"""Fault matrix: plant one wrong coefficient or exponent in a builder, run
every registered check at order 200 with the identity memos cold, and pin
the exact set of checks that fail.

The digest tests pin what passing checks print; they cannot see a check
that still passes but has stopped guarding anything, or a registration
bound to the wrong label, offset or modulus.  Each row here shows which checks
catch one planted fault (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978).  A later change that shrinks a set
shows up as a failing row.
"""

import dataclasses

import pytest

from sptq import identities as I
from sptq import partitions as P
from sptq import series as S
from sptq.series import TruncatedSeries

ORDER = 200


def _bumped(series, exponent):
    """``series`` with 1 added to its q^exponent coefficient, when known."""
    if exponent > series.order:
        return series
    c = list(series.coeffs)
    c[exponent] += 1
    return TruncatedSeries(tuple(c))


def _summand_fault(n_bad, exponent, sums=True):
    """Bump q^exponent of the n_bad-th eq. (2) numerator term q^n T_n: in
    the T_n that termwise_eq2 walks up and, unless ``sums`` is False, in
    each pair's Horner sum over T_n, where the pair places that term."""

    def plant(monkeypatch):
        real_sum, real_walk = I._horner_sum, I._upward_walk

        def horner_sum(order, summand_exponent, odd):
            total = real_sum(order, summand_exponent, odd)
            if not odd or exponent > order:  # U_n, or a coefficient T_n lacks
                return total
            return _bumped(total, summand_exponent(n_bad) + exponent - n_bad)

        def walk(order, steps):
            for n, term in real_walk(order, steps):
                yield n, _bumped(term, exponent - n) if n == n_bad else term

        if sums:
            monkeypatch.setattr(I, "_horner_sum", horner_sum)
        monkeypatch.setattr(I, "_upward_walk", walk)

    return plant


def statistics_fault(n_bad, field, smallest=1):
    """Add 1 to one per-size statistic of n_bad: spt, N2 or the bare crank
    moment (field 0, 1 or 2), or (field 3) the odd-condition smallest-part
    count at smallest part ``smallest``.  The bump goes into row n_bad of
    every table ``partitions._statistics`` returns, so every per-n reader
    sees it, spt_o_minus included."""

    def plant(monkeypatch):
        real = P._statistics

        def statistics(n):
            tables = list(real(n))
            row = list(tables[n_bad])
            if field == 3:
                row[3] = tuple(c + (s == smallest) for s, c in enumerate(row[3]))
            else:
                row[field] += 1
            tables[n_bad] = tuple(row)
            return tuple(tables)

        monkeypatch.setattr(P, "_statistics", statistics)

    return plant


def _value_fault(name, n_bad):
    """Add 1 to ``partitions.<name>(n_bad)``: sigma or p, the per-n functions
    read outside the per-size tables."""

    def plant(monkeypatch):
        real = getattr(P, name)
        monkeypatch.setattr(P, name, lambda n: real(n) + (n == n_bad))

    return plant


def _builder_fault(name, exponent):
    """Bump q^exponent of whatever the builder ``name`` returns, on the one
    module that defines it: ``series``, else ``identities``."""

    def plant(monkeypatch):
        module = S if hasattr(S, name) else I
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda order: _bumped(real(order), exponent))

    return plant


def _joint_builder_fault(names, exponent):
    """``_builder_fault`` planted in every builder of ``names`` at once."""

    def plant(monkeypatch):
        for name in names:
            _builder_fault(name, exponent)(monkeypatch)

    return plant


def _product_fault(start, step, exponent):
    """Bump q^exponent of (q^start;q^step)_inf wherever it is built; every
    other q-Pochhammer product stays as built."""

    def plant(monkeypatch):
        real = S.qpoch_inf

        def qpoch_inf(a, b, order):
            product = real(a, b, order)
            return _bumped(product, exponent) if (a, b) == (start, step) else product

        monkeypatch.setattr(S, "qpoch_inf", qpoch_inf)

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


def _registration_fault(check_id, run):
    """Register ``run`` under ``check_id`` in place of its own runner."""

    def plant(monkeypatch):
        check = dataclasses.replace(I.REGISTRY[check_id], run=run)
        monkeypatch.setitem(I.REGISTRY, check_id, check)

    return plant


FAULTS = {
    # T_5 is one of the terms termwise_eq2 compares with the literal Q_5
    "summand5_q40": (_summand_fault(5, 40),
                     {"cong7", "cong13", "eq2", "eq3", "eq12_c1", "eq12_c5",
                      "gf_note", "termwise_eq2", "thm2", "thm3", "thm4"}),
    # the same T_5 in the walk alone, which no other check reads
    "walk5_q40": (_summand_fault(5, 40, sums=False), {"termwise_eq2"}),
    "summand70_q151": (_summand_fault(70, 151), {"eq12_c1", "eq2", "gf_note", "thm5"}),
    "summand70_q148": (_summand_fault(70, 148),
                       {"cong5", "cong7", "cong13", "eq12_c1", "eq2", "gf_note",
                        "thm2"}),
    "summand70_q150": (_summand_fault(70, 150),
                       {"cong7", "cong13", "eq12_c1", "eq2", "gf_note", "thm2"}),
    "summand70_q142": (_summand_fault(70, 142),
                       {"cong5", "cong7", "cong13", "eq12_c1", "eq2", "gf_note",
                        "thm2"}),
    "theta_q150": (_builder_fault("_theta_correction", 150), {"eq1"}),
    "c1_alpha_m2": (_bailey_fault("C1", "alpha_exponent", 2),
                    {"bailey_c1", "eq12_c1"}),
    "c5_alpha_m2": (_bailey_fault("C5", "alpha_exponent", 2),
                    {"bailey_c5", "eq12_c5"}),
    # lhs_eq2 and lhs_eq3, and so lhs_gf_note, are read off the C1 and C5
    # sums, so a wrong beta exponent reaches every check built on them
    "c5_beta_n3": (_bailey_fault("C5", "beta_exponent", 3),
                   {"bailey_c5", "cong5", "cong7", "cong13", "eq12_c5", "eq23",
                    "eq3", "gf_note", "termwise_eq2", "thm2", "thm4", "thm5"}),
    "c1_beta_n3": (_bailey_fault("C1", "beta_exponent", 3),
                   {"bailey_c1", "cong5", "cong7", "cong13", "eq12_c1", "eq2",
                    "gf_note", "termwise_eq2", "thm2", "thm3", "thm5"}),
    "cong5_offset3": (_registration_fault(
        "cong5", I._runner(lambda order: I._cong_parts(5, 3, 5, order))), {"cong5"}),
    "statistics_n12_spt": (statistics_fault(12, 0),
                           {"spt_half_diff", "thm2", "thm3"}),
    "statistics_n12_n2": (statistics_fault(12, 1),
                          {"eq1", "eq2", "eq13", "eq14", "spt_half_diff"}),
    "statistics_n12_m2": (statistics_fault(12, 2),
                          {"eq3", "m2_is_2np", "spt_half_diff"}),
    "statistics_n12_odd": (statistics_fault(12, 3), {"eq13", "eq14", "thm4"}),
    # the count at s = 2 of n = 12 feeds spt_o_minus(13), at s = 4 the even
    # spt_o_minus(18); at s = 1 spt_o(12) loses it from both halves
    "statistics_n12_odd_s2": (statistics_fault(12, 3, 2), {"eq13", "eq14", "thm2"}),
    "statistics_n12_odd_s4": (statistics_fault(12, 3, 4),
                              {"eq13", "eq14", "thm2", "thm4"}),
    # sigma(12) and p(12) enter eq14's convolution, which stops at n = 15;
    # sigma(13) is an odd sigma(2n+1), and sigma(150) is past every cap
    "sigma_n12": (_value_fault("sigma", 12), {"eq14", "sigma_doubling"}),
    "sigma_n13": (_value_fault("sigma", 13), {"legendre_t4", "sigma_doubling"}),
    "sigma_n150": (_value_fault("sigma", 150), {"sigma_doubling"}),
    "p_n12": (_value_fault("p", 12), {"eq14", "m2_is_2np"}),
    "p_n29": (_value_fault("p", 29), {"m2_is_2np"}),
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
    # eq2 and eq3 cross the spt_o_plus and spt_o_minus tables at full order,
    # and those read theta/(q;q)_inf and n p(n) at half of it, not at q^151
    "_p_series": ({"eq1", "eq23", "eq3", "gf_note"}, {"eq1", "eq3", "gf_note"},
                  {"eq1"}),
    # psi(q) enters termwise_eq2's P_0 = (q^2;q^2)_inf^2/psi(q)/(q;q)_inf
    "_psi_series": ({"eq23", "legendre_t4", "termwise_eq2"},
                    {"eq23", "legendre_t4", "termwise_eq2"},
                    {"legendre_t4", "termwise_eq2"}),
    "lambert_sigma": ({"eq12_c1", "eq12_c5", "eq13", "eq2", "eq3"},
                      {"eq12_c1", "eq12_c5", "eq2", "eq3"},
                      {"eq12_c1", "eq12_c5", "eq2", "eq3"}),
    "_theta_correction": ({"eq1", "eq2", "gf_note"}, {"eq1", "eq2", "gf_note"},
                          {"eq1"}),
    # the tables compute serves: spt_o is spt(n) at q^(2n), built from
    # _spt_series at half the order, so q^151 of spt reaches eq1 alone
    "_spt_series": ({"eq1", "gf_note"}, {"eq1", "gf_note"}, {"eq1"}),
    "_spt_o_series": ({"gf_note"}, {"gf_note"}, {"gf_note"}),
    "_spt_o_plus_series": ({"eq2"}, {"eq2"}, {"eq2"}),
    "_spt_o_minus_series": ({"eq3"}, {"eq3"}, {"eq3"}),
}
# the same three exponents in the products (q;q)_inf (Euler's series, the
# eq. (1) quotient) and (q^2;q^2)_inf (the eq. (2)/(3) quotient and Lambert
# denominator), both also in termwise_eq2's P_0
PRODUCT_FAULTS = {
    "euler_series": ((1, 1), ({"eq1", "eq2", "eq23", "eq3", "gf_note", "termwise_eq2",
                               "thm2"},
                              {"eq1", "eq3", "gf_note", "termwise_eq2", "thm2"},
                              {"eq1", "termwise_eq2"})),
    "even_euler_series": ((2, 2), ({"cong5", "cong7", "cong13", "eq13", "eq2",
                                    "eq23", "eq3", "gf_note", "termwise_eq2",
                                    "thm2", "thm3", "thm4", "thm5"},
                                   {"eq2", "eq23", "eq3", "gf_note", "termwise_eq2",
                                    "thm2", "thm4", "thm5"},
                                   {"eq2", "eq23", "eq3", "gf_note", "termwise_eq2",
                                    "thm4", "thm5"})),
}
FAULTS.update(
    (f"{name}_q{e}", (_product_fault(*product, e), caught))
    for name, (product, sets) in PRODUCT_FAULTS.items()
    for e, caught in zip(BUILDER_EXPONENTS, sets)
)
# the right sides that eq2 and eq3 cap at order 60, so at q^3 and q^51
CAPPED_EXPONENTS = (3, 51)
CAPPED_FAULTS = {
    "rhs_eq2_doubled": ({"eq2", "eq13"}, {"eq2"}),
    "rhs_eq3_doubled": ({"eq3"}, {"eq3"}),
}
FAULTS.update(
    (f"{name.lstrip('_')}_q{e}", (_builder_fault(name, e), caught))
    for exponents, table in ((BUILDER_EXPONENTS, BUILDER_FAULTS),
                             (CAPPED_EXPONENTS, CAPPED_FAULTS))
    for name, sets in table.items()
    for e, caught in zip(exponents, sets)
)
# the same bump in both tables that `compute --sequence n2` and `m2` serve
# cancels in M2 - N2, and the N2 sub-check stops at n = 30; eq1 crosses
# the M2 table with 2 n p(n) at full order, so it still fails
FAULTS.update(
    (f"n2_m2_series_q{e}", (_joint_builder_fault(("_n2_series", "_m2_series"), e), caught))
    for e, caught in zip(BUILDER_EXPONENTS, ({"eq1"}, {"eq1"}, {"eq1"}))
)


@pytest.fixture
def cold_identities():
    """Empty the per-order memos of ``series`` and ``identities`` before and
    after the test, so no series built under one row's fault reaches the
    next.  The per-size partition walk stays warm from row to row: no fault
    here changes what its memo holds (the ``statistics_*`` rows bump a copy
    of a memoized value on its way out), and rebuilding it would be 40 % of
    each row."""
    memos = [obj for module in (S, I) for obj in vars(module).values()
             if hasattr(obj, "cache_info")]
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


def test_every_check_catches_some_fault():
    caught = set().union(*(ids for _, ids in FAULTS.values()))
    assert set(I.REGISTRY) - caught == set()


def test_every_compute_table_is_crossed_at_full_order():
    # a bump at q^151 of each table partitions.sequence serves fails some
    # check at order 200, so no table can land that verify does not read
    builders = {builder for builder, _ in P._SEQUENCES.values()}
    crossed = {name for name, sets in BUILDER_FAULTS.items() if sets[-1]}
    assert builders - crossed == set()


@pytest.mark.parametrize("fault", [None, "summand5_q40"], ids=["clean", "summand5_q40"])
@pytest.mark.parametrize("order", [61, 200])
def test_a_check_run_alone_reports_as_in_verify_all(order, fault, cold_memos, monkeypatch):
    # the quotient memo holds one entry per (order, sum), shared by the
    # checks of one verify_all; each check run alone with every memo cold
    # must report the same, passing or failing (at 61, eq2 and eq3 run their
    # N2/M2 half at 60)
    if fault:
        FAULTS[fault][0](monkeypatch)

    def report(check_id):
        for memo in cold_memos:
            memo.cache_clear()
        r = I.verify(check_id, order)
        return r.id, r.order, r.mismatch_total, r.mismatches

    together = [(r.id, r.order, r.mismatch_total, r.mismatches)
                for r in I.verify_all(order)]
    assert [report(check_id) for check_id in I.REGISTRY] == together
    assert any(total for _, _, total, _ in together) == bool(fault)
