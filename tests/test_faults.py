"""Fault matrix: plant one wrong coefficient or exponent in a builder, run
every registered check at order 200 with the identity memos cold, and pin
the exact set of checks that fail.

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


def _builder_fault(name, exponent):
    """Bump q^exponent of whatever the ``identities`` builder ``name`` returns."""

    def plant(monkeypatch):
        real = getattr(I, name)
        monkeypatch.setattr(I, name, lambda order: _bumped(real(order), exponent))

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
    "theta_q150": (_builder_fault("_theta_correction", 150), {"eq1"}),
    "c1_alpha_m2": (_bailey_fault("C1", "alpha_exponent", 2),
                    {"bailey_c1", "eq12_c1"}),
    "c5_alpha_m2": (_bailey_fault("C5", "alpha_exponent", 2),
                    {"bailey_c5", "eq12_c5"}),
    "c5_beta_n3": (_bailey_fault("C5", "beta_exponent", 3),
                   {"bailey_c5", "eq12_c5", "termwise_eq2"}),
}

# one coefficient of a builder's series bumped at a low, a middle and a
# high exponent: the failing sets at q^3, q^99 and q^151, in that order
BUILDER_EXPONENTS = (3, 99, 151)
BUILDER_FAULTS = {
    "lhs_eq1": ({"eq1", "thm2"}, {"eq1", "thm2"}, {"eq1"}),
    "_n2_series": ({"eq1"}, {"eq1"}, {"eq1"}),
    "_m2_series": ({"eq1"}, {"eq1"}, {"eq1"}),
    "_t4_series": ({"legendre_t4"}, {"legendre_t4"}, {"legendre_t4"}),
    "rhs_eq23": ({"eq23"}, {"eq23"}, {"eq23"}),
    "_p_series": ({"eq1", "eq23"}, {"eq1"}, {"eq1"}),
    "_psi_series": ({"eq23", "legendre_t4"}, {"eq23", "legendre_t4"},
                    {"legendre_t4"}),
}
FAULTS.update(
    (f"{name.lstrip('_')}_q{e}", (_builder_fault(name, e), caught))
    for name, sets in BUILDER_FAULTS.items()
    for e, caught in zip(BUILDER_EXPONENTS, sets)
)


@pytest.fixture
def cold_identities():
    """Empty the per-order memos of ``identities`` before and after the test.
    The per-size partition walk stays warm from row to row: no fault here
    reaches ``partitions``, and rebuilding it would be 40 % of each row."""
    memos = [obj for obj in vars(I).values() if hasattr(obj, "cache_info")]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_is_caught_by_exactly_these_checks(fault, cold_identities, monkeypatch):
    plant, caught_by = FAULTS[fault]
    plant(monkeypatch)
    failing = {r.id for r in I.verify_all(ORDER) if r.status == "fail"}
    assert failing == caught_by
