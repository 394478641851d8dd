"""Fault matrix: plant one wrong coefficient or exponent in a builder, run
every registered check cold at order 200, and pin the exact set of checks
that fail.

The digest tests pin what passing checks print; they cannot see a check
that still passes but has stopped guarding anything, or a registration
bound to the wrong label or modulus.  Each row here shows which checks
catch one planted fault (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978).  A later change that shrinks a set
shows up as a failing row.
"""

import dataclasses

import pytest

from sptq import identities as I
from sptq.series import TruncatedSeries

ORDER = 200


def _bumped(series, exponent):
    """``series`` with 1 added to its q^exponent coefficient, when known."""
    if exponent > series.order:
        return series
    c = list(series.coeffs)
    c[exponent] += 1
    return TruncatedSeries(tuple(c))


def _summand_fault(n_bad, exponent):
    def plant(monkeypatch):
        real = I._smallest_part_summands

        def summands(order):
            for n, summand in real(order):
                yield n, _bumped(summand, exponent) if n == n_bad else summand

        monkeypatch.setattr(I, "_smallest_part_summands", summands)

    return plant


def _theta_fault(exponent):
    def plant(monkeypatch):
        real = I._theta_correction
        monkeypatch.setattr(
            I, "_theta_correction", lambda order: _bumped(real(order), exponent)
        )

    return plant


def _bailey_fault(label, field, index):
    def plant(monkeypatch):
        pair = I._BAILEY_PAIRS[label]
        real = getattr(pair, field)
        wrong = dataclasses.replace(
            pair, **{field: lambda k: real(k) + (k == index)}
        )
        monkeypatch.setitem(I._BAILEY_PAIRS, label, wrong)

    return plant


FAULTS = {
    "summand70_q151": (_summand_fault(70, 151), {"thm5"}),
    "summand70_q148": (_summand_fault(70, 148), {"cong5", "thm2"}),
    "summand70_q150": (_summand_fault(70, 150), {"cong7", "thm2"}),
    "summand70_q142": (_summand_fault(70, 142), {"cong13", "thm2"}),
    "theta_q150": (_theta_fault(150), {"eq1"}),
    "c1_alpha_m2": (_bailey_fault("C1", "alpha_exponent", 2),
                    {"bailey_c1", "eq12_c1"}),
    "c5_alpha_m2": (_bailey_fault("C5", "alpha_exponent", 2),
                    {"bailey_c5", "eq12_c5"}),
    "c5_beta_n3": (_bailey_fault("C5", "beta_exponent", 3),
                   {"bailey_c5", "eq12_c5", "termwise_eq2"}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_is_caught_by_exactly_these_checks(fault, cold_memos, monkeypatch):
    plant, caught_by = FAULTS[fault]
    plant(monkeypatch)
    failing = {r.id for r in I.verify_all(ORDER) if r.status == "fail"}
    assert failing == caught_by
