"""Identity builders, Bailey machinery, and the check registry.

Coefficient prefixes are frozen from the enumeration oracles; the builders
being tested never see those oracles while computing.
"""

import dataclasses
from collections import Counter
from functools import partial

import pytest

from sptq import cli
from sptq import partitions as P
from sptq import identities as I
from sptq import series as S
from sptq.series import (
    TruncatedSeries,
    lambert_sigma,
    monomial,
    one,
    qpoch_fin,
    qpoch_inf,
    zero,
)

from test_faults import _bumped  # adds 1 at one exponent of a series
from test_faults import statistics_fault  # the one planter of per-size faults

SPT_O_PLUS = [1, 3, 5, 9, 12, 21, 25, 40, 50, 72, 86, 128, 145, 205]
SPT_O_MINUS = [1, 2, 5, 6, 12, 16, 25, 30, 50, 58, 86, 102, 145, 170]
SPT = [1, 3, 5, 10, 14, 26, 35, 57, 80, 119, 161, 238, 315, 440]


# ----------------------------------------------------------------------
# left-hand sides
# ----------------------------------------------------------------------


def test_lhs_eq2_prefix():
    s = I.lhs_eq2(14)
    assert s.coeff(0) == 0
    assert list(s.coeffs[1:]) == SPT_O_PLUS
    assert s.coeff(1) == 1
    assert s.coeff(3) == 5
    assert s.coeff(4) == 9


def test_lhs_eq3_prefix():
    s = I.lhs_eq3(14)
    assert list(s.coeffs[1:]) == SPT_O_MINUS
    assert s.coeff(1) == 1
    assert s.coeff(5) == 12
    assert s.coeff(6) == 16


def test_lhs_eq1_prefix():
    s = I.lhs_eq1(14)
    assert list(s.coeffs[1:]) == SPT
    assert s.coeff(1) == 1
    assert s.coeff(2) == 3
    assert s.coeff(4) == 10


def test_lhs_gf_note_prefix():
    s = I.lhs_gf_note(14)
    assert s.coeff(1) == 0
    assert s.coeff(3) == 0
    assert s.coeff(4) == 3
    assert all(s.coeff(2 * n + 1) == 0 for n in range(7))


def dense_beta(pair, n, order):
    """q^beta_exponent(n) / ((q;q)_n (q;q^2)_n) by inverting the product."""
    denominator = qpoch_fin(1, 1, n, order) * qpoch_fin(1, 2, n, order)
    return monomial(pair.beta_exponent(n), 1, order) * denominator.invert()


def test_upward_walk_matches_direct_construction():
    # T_n = (q;q)_(n-1) / ((1-q^n) (q;q^2)_n), truncated to order - n, from a
    # dense product and a dense inverse built anew for each n; at orders 1
    # and 2 the walk ends at an order-0 term, and it stops after ``steps``
    for order in (1, 2, 25, 60):
        got = list(I._upward_walk(order, order))
        assert [n for n, _ in got] == list(range(1, order + 1))
        for n, term in got:
            denominator = qpoch_fin(n, 1, 1, order) * qpoch_fin(1, 2, n, order)
            direct = qpoch_fin(1, 1, n - 1, order) * denominator.invert()
            assert term == direct.truncate(order - n)
        assert list(I._upward_walk(order, I.TERMWISE_N)) == got[:I.TERMWISE_N]


def spt_summand(n, order):
    """1 / ((1-q^n) (q^n;q)_inf), the eq. (1) summand without its q^n."""
    return (qpoch_fin(n, 1, 1, order) * qpoch_inf(n, 1, order)).invert()


def spt_o_summand(n, order):
    """(q^(2n+1);q^2)_inf / ((1-q^n)^2 (q^(n+1);q)_inf), the eq. (2)
    summand without its q^n."""
    denominator = qpoch_fin(n, 1, 1, order) ** 2 * qpoch_inf(n + 1, 1, order)
    return qpoch_inf(2 * n + 1, 2, order) * denominator.invert()


def at_n(n, order):
    """q^n, the eq. (1) and eq. (2) numerator."""
    return monomial(n, 1, order)


def at_triangular(n, order):
    """q^(n + n(n-1)/2), the eq. (3) numerator."""
    return monomial(n + n * (n - 1) // 2, 1, order)


@pytest.mark.parametrize("lhs, summand, numerator", [
    (I.lhs_eq1, spt_summand, at_n),
    (I.lhs_eq2, spt_o_summand, at_n),
    (I.lhs_eq3, spt_o_summand, at_triangular),
    (I.lhs_gf_note, spt_o_summand,
     lambda n, order: at_n(n, order) - at_triangular(n, order)),
], ids=["lhs_eq1", "lhs_eq2", "lhs_eq3", "lhs_gf_note"])
def test_lhs_matches_direct_construction(lhs, summand, numerator):
    # sum_n numerator(n) summand(n), every factor built and inverted anew,
    # with each shift stated here rather than read from a Bailey pair
    for order in (1, 2, 9, 20, 60):
        direct = zero(order)
        for n in range(1, order + 1):
            direct = direct + numerator(n, order) * summand(n, order)
        assert lhs(order) == direct


@pytest.mark.parametrize(
    "lhs, moments", [(I.lhs_eq2, S._n2_series), (I.lhs_eq3, S._m2_series)])
def test_quotient_sums_match_product_forms_at_scale(lhs, moments):
    # eqs. (2)/(3) at order 400, with N2/M2 from their own series at order 200
    order = 400
    placed = moments(order // 2).stretched(2)
    assert 2 * lhs(order) == I._lambert_over_even_doubled(order) - placed


def test_series_coefficients_match_enumeration():
    s2 = I.lhs_eq2(14)
    s3 = I.lhs_eq3(14)
    for n in range(1, 15):
        assert s2.coeff(n) == P.spt_o_plus(n)
        assert s3.coeff(n) == P.spt_o_minus(n)


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------


def test_rhs_eq2_doubled_low_coefficients():
    s = I.rhs_eq2_doubled(8)
    assert s.coeff(0) == 0
    assert s.coeff(1) == 2  # 2*sigma(1)
    assert s.coeff(2) == 6  # = 2*spt_o_plus(2)


def test_rhs_eq23_prefix():
    s = I.rhs_eq23(9)
    assert s.coeff(2) == 0  # only odd exponents appear
    assert s.coeff(3) == 5
    assert s.coeff(5) == 12
    assert all(s.coeff(2 * k) == 0 for k in range(5))


@pytest.mark.parametrize("order", [*range(1, 41), 400])
def test_rhs_eq23_matches_the_literal_product_form(order):
    # order mod 4 sets the truncations of psi (order // 2) and P (order // 4)
    literal = qpoch_inf(4, 4, order) ** 3 * qpoch_inf(2, 4, order).invert() ** 5
    assert I.rhs_eq23(order) == literal.shifted(1)


# the product side that ``compute`` serves for each smallest-part sequence,
# its sum of q-Pochhammer quotients and its per-n function
PRODUCT_SIDES = {
    "spt": (S._spt_series, I.lhs_eq1, P.spt),
    "spt_o_plus": (S._spt_o_plus_series, I.lhs_eq2, P.spt_o_plus),
    "spt_o_minus": (S._spt_o_minus_series, I.lhs_eq3, P.spt_o_minus),
    "spt_o": (S._spt_o_series, I.lhs_gf_note, P.spt_o),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_SIDES))
def test_product_sides_match_the_per_n_functions(name):
    product, _lhs, per_n = PRODUCT_SIDES[name]
    assert product(30).coeffs == (0, *map(per_n, range(1, 31)))


@pytest.mark.parametrize("order", [1, 2, 3, 17, 600])
@pytest.mark.parametrize("name", sorted(PRODUCT_SIDES))
def test_product_sides_equal_the_quotient_sums(name, order):
    product, lhs, _per_n = PRODUCT_SIDES[name]
    assert product(order) == lhs(order)


@pytest.mark.parametrize("order", [0, 1, 2, 17, 600])
def test_lambert_quotient_inverse_equals_the_division(order):
    # it keeps its inverse, counted by test_only_the_lambert_quotient_inverts
    want = 2 * (lambert_sigma(order) / qpoch_inf(2, 2, order))
    assert I._lambert_over_even_doubled(order) == want


def test_theta_correction_carries_rank_moments():
    order = 30
    got = 2 * (qpoch_inf(1, 1, order).invert() * S._theta_correction(order))
    want = TruncatedSeries(
        tuple(0 if n == 0 else -P.n2(n) for n in range(order + 1))
    )
    assert got == want


@pytest.mark.parametrize("order", [*range(121), 1000])
def test_euler_series_is_the_pochhammer_product(order, monkeypatch):
    # qpoch_inf(k, k, .) is Euler's pentagonal series in q^k, built without a
    # single-factor step; the stepped finite product is its oracle
    stepped = {k: qpoch_fin(k, k, order // k, order) for k in (1, 2, 3)}

    def unreachable(*args):
        raise AssertionError("qpoch_inf(k, k, .) took a single-factor step")

    monkeypatch.setattr("sptq.series.qpoch_fin", unreachable)
    monkeypatch.setattr(TruncatedSeries, "times_one_minus", unreachable)
    for k, product in stepped.items():
        assert qpoch_inf(k, k, order) == product


def test_p_series_does_not_read_the_partition_oracle(monkeypatch):
    # sum p(n) q^n is divided out of Euler's series, so the recurrence behind
    # partitions.p stays an independent oracle for it
    want = tuple(P._partition_counts(400))

    def unreachable(n):
        raise AssertionError("_p_series read partitions._partition_counts")

    monkeypatch.setattr(P, "_partition_counts", unreachable)
    assert S._p_series(400).coeffs == want


def test_n2_series_divides_instead_of_multiplying(cold_memos, monkeypatch):
    # N2 is theta over (q;q)_inf by one sparse division: no series x series
    # product, and the dense product with the recurrence's p(n) agrees
    products = Counter()
    mul = TruncatedSeries.__mul__

    def counting(self, other):
        products["series x series"] += isinstance(other, TruncatedSeries)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", counting)
    got = S._n2_series(200)
    assert products["series x series"] == 0
    monkeypatch.undo()
    p = TruncatedSeries(tuple(P._partition_counts(200)))
    assert got == -2 * (p * S._theta_correction(200))


# ----------------------------------------------------------------------
# Bailey machinery
# ----------------------------------------------------------------------


def test_bailey_pair_alpha_basics():
    c1 = I.bailey_pair("C1")
    assert c1.times_alpha(0, one(5)) == one(5)
    assert c1.times_alpha(3, one(10)) == zero(10)
    assert c1.times_alpha(2, one(10)) == TruncatedSeries(
        (0, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0)
    )  # -q^2 - q^4
    c5 = I.bailey_pair("C5")
    assert c5.times_alpha(0, one(5)) == one(5)
    # alpha_2 for C5: -q^0... exponent m(m-1) = 0, so -(1 + q^2)
    assert c5.times_alpha(2, one(6)).coeffs == (-1, 0, -1, 0, 0, 0, 0)


def direct_alpha(pair, n, order):
    """alpha_n as a series, a sum of monomials read off alpha_exponent."""
    if n == 0:
        return one(order)
    if n % 2:
        return zero(order)
    m = n // 2
    e, sign = pair.alpha_exponent(m), (-1) ** m
    return monomial(e, sign, order) + monomial(e + 2 * m, sign, order)


@pytest.mark.parametrize("order", [0, 1, 5, 40])
@pytest.mark.parametrize("label", ["C1", "C5", "C1+1"])
def test_times_alpha_is_the_product_with_the_direct_alpha(label, order):
    # two shifts of s give alpha_n * s, for both pairs and for the perturbed
    # C1 of test_bailey_checks_catch_a_perturbed_alpha; at orders 0, 1 and 5
    # some exponent of alpha_n lies past the order, and that term leaves zero
    if label == "C1+1":
        pair = I.BaileyPair("C1+1", lambda m: m * (3 * m - 1) + 1, lambda n: 0)
    else:
        pair = I.bailey_pair(label)
    s = TruncatedSeries(tuple(3 * k * k - 2 * k + 5 for k in range(order + 1)))
    for n in range(13):
        assert pair.times_alpha(n, s) == direct_alpha(pair, n, order) * s


def test_bailey_pair_beta_basics():
    # anchor values of the beta_n oracle that the relation and eq. (12) use
    assert dense_beta(I.bailey_pair("C1"), 0, 6) == one(6)
    # beta_1 = 1/((1-q)(1-q)) = sum (k+1) q^k
    assert dense_beta(I.bailey_pair("C5"), 1, 6).coeffs == (1, 2, 3, 4, 5, 6, 7)


def test_bailey_pair_unknown_label():
    with pytest.raises(ValueError):
        I.bailey_pair("C9")


def test_bailey_relation_n0():
    assert I.check_bailey_relation(I.bailey_pair("C1"), 0, 10) == []


def test_bailey_relation_holds():
    assert I.check_bailey_relation(I.bailey_pair("C1"), 6, 30) == []
    assert I.check_bailey_relation(I.bailey_pair("C5"), 6, 30) == []


def test_bailey_relation_steps_one_quotient_per_n(monkeypatch):
    # per n, 1/(q;q)_n^2 takes two divisions and each r one more plus one
    # multiplication by (1 - q^k); the running beta_n two more.  Odd alphas
    # vanish, so only the 16 (n, r) with even r >= 2 add a term, each by two
    # shifts, and each beta_n is shifted once: 41 shifts and no series product
    calls = Counter()
    names = ("divided_by_one_minus", "times_one_minus", "shifted", "__mul__")
    for name in names:
        real = getattr(TruncatedSeries, name)

        def counting(self, *args, name=name, real=real):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(TruncatedSeries, name, counting)
    assert I.check_bailey_relation(I.bailey_pair("C1"), 8, 60) == []
    assert [calls[name] for name in names] == [68, 36, 41, 0]


@pytest.mark.parametrize("label", ["C1", "C5"])
def test_bailey_relation_running_beta_is_the_pair_beta(label, monkeypatch):
    # the beta_n the relation compares, kept as a running quotient, equals
    # the dense inverse built from scratch for each n
    pair, compared = I.bailey_pair(label), []
    first_difference = I._first_difference

    def recording(n, lhs, rhs):
        compared.append((n, lhs))
        return first_difference(n, lhs, rhs)

    monkeypatch.setattr(I, "_first_difference", recording)
    assert I.check_bailey_relation(pair, I.BAILEY_N, 60) == []
    assert compared == [(n, dense_beta(pair, n, 60)) for n in range(I.BAILEY_N + 1)]


def test_eq12_holds_for_both_pairs():
    for label in ("C1", "C5"):
        pair = I.bailey_pair(label)
        assert I.eq12_lhs(pair, 40) == I.eq12_rhs(pair, 40)


def direct_eq12_sum(pair, order):
    """sum_{n>=1} (q;q)_(n-1)^2 beta_n q^n, every factor dense and built anew."""
    direct = zero(order)
    for n in range(1, order + 1):
        fin = qpoch_fin(1, 1, n - 1, order)
        beta = dense_beta(pair, n, order)
        direct = direct + fin * fin * beta * monomial(n, 1, order)
    return direct


@pytest.mark.parametrize("label", ["C1", "C5"])
@pytest.mark.parametrize("order", [1, 2, 17, 40])
def test_eq12_lhs_matches_direct_construction(label, order):
    pair = I.bailey_pair(label)
    assert I.eq12_lhs(pair, order) == direct_eq12_sum(pair, order)


def direct_spt_numerator(order):
    """sum_n q^n U_n = (q;q)_inf sum_n q^n spt_summand(n), densely."""
    direct = zero(order)
    for n in range(1, order + 1):
        direct = direct + at_n(n, order) * spt_summand(n, order)
    return qpoch_inf(1, 1, order) * direct


C1 = I.bailey_pair("C1")
# C1 with beta_3 one power of q later: summand exponents 1, 2, 4, 4, 5, ...,
# so the Horner step from n = 4 to n = 3 shifts by q^0
C1_LATE_BETA3 = dataclasses.replace(C1, beta_exponent=lambda n: int(n == 3))
HORNER_SUMS = {
    "U": (lambda n: n, False, direct_spt_numerator),
    **{label: (pair.summand_exponent, True,
               lambda order, pair=pair: direct_eq12_sum(pair, order))
       for label, pair in (("C1", C1), ("C5", I.bailey_pair("C5")),
                           ("C1_late_beta3", C1_LATE_BETA3))},
}


@pytest.mark.parametrize("order", [1, 2, 17, 40, 60])
@pytest.mark.parametrize("name", sorted(HORNER_SUMS))
def test_horner_sum_matches_the_direct_sum(name, order):
    exponent, odd, direct = HORNER_SUMS[name]
    assert I._horner_sum(order, exponent, odd) == direct(order)


@pytest.mark.parametrize("exponent", [
    {1: 1, 2: 4, 3: 3}.get,  # decreasing from n = 2 to n = 3
    lambda n: 0,  # below n, so the sum would never pass the order
], ids=["decreasing", "below_n"])
def test_horner_sum_rejects_a_bad_exponent(exponent):
    with pytest.raises(ValueError):
        I._horner_sum(10, exponent, True)


def test_an_unregistered_pair_reads_the_entry_of_its_equal():
    # a copy of a registered pair, not the object _BAILEY_PAIRS holds, is
    # equal to it field by field, so eq12_lhs reads the same memo entry
    for label in ("C1", "C5"):
        pair = I.bailey_pair(label)
        copy = dataclasses.replace(pair)
        assert copy is not pair
        assert I.eq12_lhs(copy, 40) == I.eq12_lhs(pair, 40)


def test_bailey_checks_catch_a_perturbed_alpha():
    bad = I.BaileyPair("C1+1", lambda m: m * (3 * m - 1) + 1, lambda n: 0)
    relation = I.check_bailey_relation(bad, 4, 20)
    assert relation and all(m.lhs != m.rhs for m in relation)
    assert relation[0].index == 2  # beta_n first sees alpha_2 at n = 2
    assert I.eq12_lhs(bad, 20) != I.eq12_rhs(bad, 20)


def test_eq12_lowest_term():
    lhs = I.eq12_lhs(I.bailey_pair("C1"), 10)
    rhs = I.eq12_rhs(I.bailey_pair("C1"), 10)
    assert lhs.coeff(1) == 1 == rhs.coeff(1)  # sigma(1) * alpha_0


def test_alpha_sum_is_the_moment_component():
    # removing the alpha_0 Lambert term from the differentiated-lemma series
    # and normalizing by (q^2;q^2)_inf leaves exactly -1/2 the moments
    order = 40
    inv_even = qpoch_inf(2, 2, order).invert()
    for label, moment in (("C1", P.n2), ("C5", P.m2)):
        pair = I.bailey_pair(label)
        alpha_part = I.eq12_lhs(pair, order) - lambert_sigma(order)
        got = 2 * (alpha_part * inv_even)
        want = [0] * (order + 1)
        for n in range(1, order // 2 + 1):
            want[2 * n] = -moment(n)
        assert got == TruncatedSeries(tuple(want))


def test_termwise_identity():
    assert I._termwise_mismatches(30) == []


# each left-side Horner sum by its first four exponents and its summand
HORNER_SUM_NAMES = {(False, (1, 2, 3, 4)): "U", (True, (1, 2, 3, 4)): "C1",
                    (True, (1, 2, 4, 4)): "C1_late_beta3",
                    (True, (1, 3, 6, 10)): "C5"}


@pytest.fixture
def horner_passes(monkeypatch):
    """A Counter of the Horner passes made from here on, by (order, sum)."""
    passes, horner = Counter(), I._horner_sum

    def counting(order, exponent, odd):
        passes[order, HORNER_SUM_NAMES[odd, tuple(map(exponent, range(1, 5)))]] += 1
        return horner(order, exponent, odd)

    monkeypatch.setattr(I, "_horner_sum", counting)
    return passes


def test_the_left_side_memo_is_keyed_by_the_pair_not_its_label(
        cold_memos, horner_passes):
    # C1_LATE_BETA3 keeps the label C1 but places beta_3 one power later: it
    # gets an entry of its own, while a field-for-field copy of C1 reads C1's
    assert I.eq12_lhs(C1, 40) != I.eq12_lhs(C1_LATE_BETA3, 40)
    assert I.eq12_lhs(C1_LATE_BETA3, 40) == direct_eq12_sum(C1_LATE_BETA3, 40)
    assert I.eq12_lhs(dataclasses.replace(C1), 40) == I.eq12_lhs(C1, 40)
    assert horner_passes == {(40, "C1"): 1, (40, "C1_late_beta3"): 1}


def test_verify_all_makes_one_horner_pass_per_order_and_sum(
        cold_memos, horner_passes, monkeypatch):
    # the left-side memo sums U_n for lhs_eq1 and T_n once per registered
    # pair at the requested 200, and T_n once per pair at 60, where eq2 and
    # eq3 run capped and read no U sum; both eq12 checks read the memoized
    # pair sum, and termwise_eq2 walks its 12 T_n once
    walks = Counter()
    walk, eq12_lhs = I._upward_walk, I.eq12_lhs

    def counting_walk(order, steps):
        walks[order, steps] += 1
        return walk(order, steps)

    def eq12_counting(pair, order):
        before = horner_passes.total()
        lhs = eq12_lhs(pair, order)
        eq12_passes.append(horner_passes.total() - before)
        return lhs

    eq12_passes = []
    monkeypatch.setattr(I, "_upward_walk", counting_walk)
    monkeypatch.setattr(I, "eq12_lhs", eq12_counting)
    assert all(r.status == "pass" for r in I.verify_all(200))
    assert horner_passes == Counter([(200, "U"), (200, "C1"), (200, "C5"),
                                     (60, "C1"), (60, "C5")])
    assert walks == {(200, I.TERMWISE_N): 1}
    assert eq12_passes == [0, 0]  # eq12_c1 and eq12_c5 read the pass


# the Horner sums each check reads, run alone at order 200: lhs_eq2 reads C1,
# lhs_eq3 C5, lhs_gf_note both, lhs_eq1 U; eq2 and eq3 read their sum at 60
# too, for the half capped where N2 and M2 are enumerated
CAPPED_SUMS = {"eq2": [(60, "C1")], "eq3": [(60, "C5")]}
SUMS_READ = {
    "eq1": {"U"}, "eq2": {"C1"}, "eq3": {"C5"}, "gf_note": {"C1", "C5"},
    "thm2": {"C1", "C5", "U"}, "thm3": {"C1"}, "thm4": {"C5"}, "thm5": {"C1", "C5"},
    "eq13": set(), "eq14": set(), "eq23": {"C5"}, "m2_is_2np": set(),
    "spt_half_diff": set(), "sigma_doubling": set(), "legendre_t4": set(),
    "bailey_c1": set(), "bailey_c5": set(), "eq12_c1": {"C1"}, "eq12_c5": {"C5"},
    "cong5": {"C1", "C5"}, "cong7": {"C1", "C5"}, "cong13": {"C1", "C5"},
    "termwise_eq2": set(),
}


@pytest.mark.parametrize("check_id", list(I.REGISTRY))
def test_a_check_run_alone_builds_only_the_sums_it_reads(
        check_id, cold_memos, horner_passes):
    report = I.verify(check_id, 200)
    assert report.status == "pass"
    want = [(report.order, name) for name in SUMS_READ[check_id]]
    assert horner_passes == Counter(want + CAPPED_SUMS.get(check_id, []))


def test_termwise_catches_a_wrong_beta_exponent(cold_memos, monkeypatch):
    bad = I.BaileyPair("C5", lambda m: m * (m - 1), lambda n: n * (n - 1) // 2 + 1)
    monkeypatch.setitem(I._BAILEY_PAIRS, "C5", bad)
    mismatches = I._termwise_mismatches(40)
    assert mismatches and mismatches[0].index == 1


def test_termwise_steps_do_not_grow_with_the_order(monkeypatch):
    # P_0 is built from pentagonal and triangular series, with no factor
    # (1 - q^k) of its own; per n, the walk takes two divisions and, from
    # n = 2 on, two multiplications by (1 - q^k), and P_n one multiplication
    # and three divisions, whatever the order: 8 steps per n, less the two
    # multiplications at n = 1, where the walk starts from 1
    steps = Counter()
    for name in ("times_one_minus", "divided_by_one_minus"):
        real = getattr(TruncatedSeries, name)

        def counting(self, exp, real=real):
            steps[order] += 1
            return real(self, exp)

        monkeypatch.setattr(TruncatedSeries, name, counting)
    for order in (200, 2000):
        assert I._termwise_mismatches(order) == []
    assert steps == {200: 8 * I.TERMWISE_N - 2, 2000: 8 * I.TERMWISE_N - 2}


def is_two_term(x):
    """True for a series with at most two nonzero coefficients, such as q^e,
    1 - q^k or an alpha_n, other than 1 itself (``__pow__`` starts from 1)."""
    if not isinstance(x, TruncatedSeries):
        return False
    nonzero = [(k, c) for k, c in enumerate(x.coeffs) if c]
    return len(nonzero) <= 2 and nonzero != [(0, 1)]


def test_finite_pochhammer_checks_invert_no_dense_product(cold_memos, monkeypatch):
    # finite factors are single-factor steps, the quotient sums walk their
    # infinite tails down from 1 at the truncation order, and every shift by
    # q^e, alpha_n's two included, is a slice: only right sides invert, no
    # product has a factor of at most two terms, the Bailey checks make no
    # product at all, and termwise_eq2 makes one, (q^2;q^2)_inf squared
    calls, products = Counter(), Counter()
    invert, mul = TruncatedSeries.invert, TruncatedSeries.__mul__

    def counting(self):
        calls[check_id] += 1
        return invert(self)

    def counting_mul(self, other):
        calls["two-term products"] += is_two_term(self) or is_two_term(other)
        products[check_id] += isinstance(other, TruncatedSeries)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "invert", counting)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    for check_id in ("bailey_c1", "bailey_c5", "eq12_c1", "eq12_c5",
                     "termwise_eq2", "gf_note"):
        assert I.verify(check_id, 200).status == "pass"
    check_id = "lhs_eq1"
    assert I.lhs_eq1(200).coeffs[:15] == (0, *SPT)
    assert sum(calls.values()) == 0
    assert products["termwise_eq2"] == 1
    assert sum(products[c] for c in ("bailey_c1", "bailey_c5", "eq12_c1", "eq12_c5")) == 0

    for memo in cold_memos:
        memo.cache_clear()
    check_id = "verify_all"
    assert all(r.status == "pass" for r in I.verify_all(200))
    assert calls["two-term products"] == 0
    assert calls["verify_all"] > 0  # eq2's right side still inverts (q^2;q^2)_inf


def test_only_the_lambert_quotient_inverts(cold_memos, monkeypatch):
    # eq2, eq3 and eq13 each build one Lambert/(q^2;q^2)_inf; every other
    # right side, eq23's included, is built without an inverse
    calls = Counter()
    invert, lambert = TruncatedSeries.invert, I._lambert_over_even_doubled

    def counting_invert(self):
        calls["invert"] += 1
        return invert(self)

    def counting_lambert(order):
        calls["lambert"] += 1
        return lambert(order)

    monkeypatch.setattr(TruncatedSeries, "invert", counting_invert)
    monkeypatch.setattr(I, "_lambert_over_even_doubled", counting_lambert)
    assert all(r.status == "pass" for r in I.verify_all(200))
    assert calls == {"invert": 3, "lambert": 3}


# ----------------------------------------------------------------------
# congruences
# ----------------------------------------------------------------------


def test_a_congruence_lists_a_part_from_its_first_exponent_on():
    # below 2 offset no k is in range: no part, a pass at the order asked;
    # at order 8 cong5 compares spt_o(8) alone, k = 0
    for check_id in ("cong5", "cong7", "cong13"):
        assert list(I.REGISTRY[check_id].run.parts(7)) == []
        report = I.verify(check_id, 7)
        assert (report.status, report.order) == ("pass", 7)
    [(k_max, lhs, rhs, modulus)] = I.REGISTRY["cong5"].run.parts(8)
    assert (k_max, lhs().coeffs, rhs().coeffs, modulus) == (0, (10,), (0,), 5)
    assert list(I.REGISTRY["cong7"].run.parts(8)) == []


def test_congruence_first_cases():
    s = I.lhs_gf_note(24)
    assert s.coeff(8) == 10 and 10 % 5 == 0  # spt_o(8) = spt(4)
    assert s.coeff(10) == 14 and 14 % 7 == 0  # spt_o(10) = spt(5)
    assert s.coeff(12) == 26 and 26 % 13 == 0  # spt_o(12) = spt(6)


# ----------------------------------------------------------------------
# registry and reports
# ----------------------------------------------------------------------


def test_registry_contents():
    assert list(I.REGISTRY) == [
        "eq1", "eq2", "eq3", "gf_note", "thm2", "thm3", "thm4", "thm5",
        "eq13", "eq14", "eq23", "m2_is_2np", "spt_half_diff",
        "sigma_doubling", "legendre_t4", "bailey_c1", "bailey_c5",
        "eq12_c1", "eq12_c5", "cong5", "cong7", "cong13", "termwise_eq2",
    ]
    assert len(I.REGISTRY) == 23
    for check in I.REGISTRY.values():
        assert check.kind in ("series-equality", "sequence-equality", "congruence")
        assert check.description


def test_legendre_t4_reports_a_wrong_t4_coefficient(monkeypatch):
    t4_series = S._t4_series

    def off_at_17(order):
        c = list(t4_series(order).coeffs)
        c[17] += 1
        return TruncatedSeries(tuple(c))

    monkeypatch.setattr(S, "_t4_series", off_at_17)
    report = I.verify("legendre_t4", 40)
    assert report.mismatches == (I.Mismatch(17, P.sigma(35), P.t4(17) + 1),)
    assert report.mismatch_total == 1


def _bump_builder(name, exponent):
    """Add 1 to the q^exponent coefficient of the ``identities`` builder ``name``."""

    def plant(monkeypatch):
        real = getattr(I, name)

        def bumped(order):
            c = list(real(order).coeffs)
            c[exponent] += 1
            return TruncatedSeries(tuple(c))

        monkeypatch.setattr(I, name, bumped)

    return plant


# (index, lhs, rhs) of every reported mismatch, per failing check, at order
# 120; every check not named here passes
FAILING_REPORTS = {
    # lhs_gf_note is lhs_eq2 - lhs_eq3, read through this module, so a bump
    # in either reaches gf_note and the congruence at that exponent, which
    # reports its k and the bumped coefficient; thm2 reads the even part of
    # lhs_gf_note; eq2 and eq3 report it twice, doubled against the right
    # side, then against the compute table, and thm3 twice, against
    # enumeration, then against the spt series
    "lhs_eq2_q8": (_bump_builder("lhs_eq2", 8), {
        "eq2": [(8, 82, 80), (8, 41, 40)], "gf_note": [(8, 11, 10)],
        "cong5": [(0, 11, 0)], "thm2": [(4, 11, 10)],
        "thm3": [(4, 41, 10), (4, 41, 10)]}),
    "lhs_eq3_q10": (_bump_builder("lhs_eq3", 10), {
        "eq3": [(10, 118, 116), (10, 59, 58)], "gf_note": [(10, 13, 14)],
        "cong7": [(0, 13, 0)], "thm2": [(5, 13, 14)], "thm4": [(5, 59, 0)]}),
    "lhs_gf_note_q18": (_bump_builder("lhs_gf_note", 18), {
        "gf_note": [(18, 81, 80)], "cong5": [(1, 81, 0)], "thm2": [(9, 81, 80)]}),
    "statistics_n12_odd_s4": (statistics_fault(12, 3, 4), {
        "thm4": [(9, 431, 0)], "thm2": [(6, 27, 26), (9, 79, 80)],
        "eq13": [(12, 258, 256)], "eq14": [(6, 258, 256)]}),
}


@pytest.mark.parametrize("fault", sorted(FAILING_REPORTS))
def test_failing_reports_keep_their_values(fault, cold_memos, monkeypatch):
    # the fault matrix pins which checks fail; this pins what they report
    plant, want = FAILING_REPORTS[fault]
    plant(monkeypatch)
    reports = {r.id: r for r in I.verify_all(120)}
    got = {
        check_id: [(m.index, m.lhs, m.rhs) for m in r.mismatches]
        for check_id, r in reports.items()
        if r.status == "fail"
    }
    assert got == want
    assert reports["eq2"].order == 120


def test_bailey_relation_reports_the_first_differing_coefficients():
    c1, c5 = I.bailey_pair("C1"), I.bailey_pair("C5")
    late_beta = dataclasses.replace(
        c5, beta_exponent=lambda n: c5.beta_exponent(n) + (n == 3))
    late_alpha = dataclasses.replace(
        c1, alpha_exponent=lambda m: c1.alpha_exponent(m) + 1)
    assert I.check_bailey_relation(late_beta, I.BAILEY_N, 120) == [I.Mismatch(3, 0, 1)]
    assert I.check_bailey_relation(late_alpha, I.BAILEY_N, 120) == [
        I.Mismatch(n, 4, 5) for n in range(2, I.BAILEY_N + 1)]


def test_verify_unknown_id():
    with pytest.raises(ValueError):
        I.verify("nonsense", 10)


def test_verify_bad_order():
    with pytest.raises(ValueError):
        I.verify("eq2", 0)


@pytest.mark.parametrize("check_id", I.REGISTRY)
def test_verify_refuses_orders_above_the_ceiling_before_any_build(check_id, monkeypatch):
    # the library refuses what the CLI refuses: past MAX_ORDER a check
    # raises before it builds a quotient or any other series
    def refuse(*args):
        raise AssertionError("a series was built above the ceiling")

    monkeypatch.setattr(S, "_quotient", refuse)
    monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
    with pytest.raises(ValueError, match=f"ceiling MAX_ORDER = {P.MAX_ORDER}$"):
        I.verify(check_id, P.MAX_ORDER + 1)


@pytest.mark.parametrize("build", [
    I._u_sum, C1, I.rhs_eq1_doubled, I.rhs_eq2_doubled, I.rhs_eq3_doubled, I.rhs_eq23,
], ids=["_u_sum", "C1", "rhs_eq1_doubled", "rhs_eq2_doubled", "rhs_eq3_doubled",
        "rhs_eq23"])
def test_builders_reject_order_zero(build):
    # verify rejects such an order before any builder runs, so only a
    # direct call reaches each builder's own guard
    with pytest.raises(ValueError, match="order must be >= 1"):
        build(0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: I.check_bailey_relation(I.bailey_pair("C1"), -1, 10), ValueError,
     "n_max must be >= 0"),
    (lambda: one(5).times_one_minus(0), ValueError, "exponent must be >= 1"),
    (lambda: one(5).divided_by_one_minus(0), ValueError, "exponent must be >= 1"),
    (lambda: zero(-1), ValueError, "truncation order must be >= 0"),
    (lambda: monomial(-1, 1, 5), ValueError, "exponent must be >= 0"),
    (lambda: qpoch_fin(0, 1, 3, 5), ValueError, "start and step must be >= 1"),
    (lambda: qpoch_fin(1, 1, -1, 5), ValueError, "factor count must be >= 0"),
    (lambda: S.geom_sq(0, 5), ValueError, "part size must be >= 1"),
    (lambda: one(5) + 1, TypeError, "unsupported operand"),
    (lambda: one(5) - 1, TypeError, "unsupported operand"),
    (lambda: one(5) * "x", TypeError, "multiply"),
], ids=["bailey_n_max", "times_one_minus",
        "divided_by_one_minus", "check_order", "monomial_exponent",
        "qpoch_fin_start", "qpoch_fin_count", "geom_sq_part", "add_int",
        "sub_int", "mul_str"])
def test_guards_reject_bad_arguments(call, error, message):
    # no check reaches these guards: every caller passes arguments in range
    with pytest.raises(error, match=message):
        call()


def test_verify_thm5_at_odd_order():
    report = I.verify("thm5", 29)
    assert report.status == "pass"
    assert report.mismatch_total == 0
    assert report.elapsed >= 0


def test_verify_eq14_bound_interpretation():
    report = I.verify("eq14", 15)
    assert report.status == "pass"
    assert report.order == 15


def test_verify_caps_enumeration_backed_checks():
    report = I.verify("m2_is_2np", 500)
    assert report.order == 30
    assert report.status == "pass"


@pytest.mark.parametrize("check_id, cap", [
    ("eq13", 30), ("eq14", 15), ("m2_is_2np", 30), ("spt_half_diff", 30)])
def test_capped_check_run_alone_stays_at_desk_scale(check_id, cap, cold_memos,
                                                     monkeypatch):
    # at the CLI ceiling, with no other check to warm a memo, a capped check
    # builds no series past 2 * ENUM_CAP + 1: the moments of n <= ENUM_CAP
    # stretched to q^(2n) know one coefficient more than the capped order
    built = []
    init = TruncatedSeries.__init__

    def recording(self, coeffs):
        init(self, coeffs)
        built.append(self.order)

    monkeypatch.setattr(TruncatedSeries, "__init__", recording)
    report = I.verify(check_id, P.MAX_ORDER)
    assert (report.status, report.order) == ("pass", cap)
    assert max(built, default=0) <= 2 * I.ENUM_CAP + 1


# the order of each part of each check at the requested order N, as the
# README's "Per-n partition statistics" paragraph states them: per-n parts
# stop at 60 (eq2, eq3), 30 or 15; a congruence's one part ends at its last
# k; a check not listed has one part at N
PART_ORDERS = {
    "eq1": lambda N: [N, N, min(N, 30), N],
    "eq2": lambda N: [min(N, 60), N],
    "eq3": lambda N: [min(N, 60), N],
    "thm2": lambda N: [min(N // 2, 15), N // 2],
    "thm3": lambda N: [min(N // 2, 30), N // 2],
    "thm4": lambda N: [N // 2, min(N // 2, 15)],
    "thm5": lambda N: [(N - 1) // 2],
    "eq13": lambda N: [min(N, 30)],
    "eq14": lambda N: [min(N, 15)],
    "eq23": lambda N: [(N - 1) // 2],
    "m2_is_2np": lambda N: [min(N, 30)],
    "spt_half_diff": lambda N: [min(N, 30)],
    # the last k of spt_o(2(step k + offset)), (N - 2 offset) // (2 step)
    "cong5": lambda N: [(N - 8) // 10],
    "cong7": lambda N: [(N - 10) // 14],
    "cong13": lambda N: [(N - 12) // 26],
}


@pytest.mark.parametrize("order", [15, 16, 30, 31, 60, 61, 200, P.MAX_ORDER])
def test_each_check_lists_its_part_orders_without_building_a_series(order, monkeypatch):
    built = []
    init = TruncatedSeries.__init__

    def recording(self, coeffs):
        init(self, coeffs)
        built.append(self.order)

    monkeypatch.setattr(TruncatedSeries, "__init__", recording)
    listed = {check_id: [part[0] for part in check.run.parts(order)]
              for check_id, check in I.REGISTRY.items()}
    assert built == []
    assert listed == {check_id: PART_ORDERS.get(check_id, lambda N: [N])(order)
                      for check_id in I.REGISTRY}


def _one_side_bumped(parts, target, side, exponent):
    """``parts``, with 1 added at q^exponent to side ``side`` (1: lhs, 2: rhs)
    of the ``target``-th part, where that side knows the coefficient."""
    for index, part in enumerate(parts):
        if index == target:
            part = list(part)
            build = part[side]
            part[side] = lambda: _bumped(build(), exponent)
        yield tuple(part)


@pytest.mark.parametrize("order", [15, 31, 200])
def test_a_bump_at_either_end_of_any_series_part_fails_its_check(order, monkeypatch):
    # coefficient 0 and the part's own order, on each side of each part that
    # compares two series: a part that stopped short of its declared order,
    # or skipped its constant term, would let one of these pass
    missed, tried = [], 0
    for check_id, check in list(I.REGISTRY.items()):
        for target, (n, _, rhs, *_) in enumerate(check.run.parts(order)):
            if rhs is None:  # a composite that lists its own mismatches
                continue
            for side, exponent in [(1, 0), (1, n), (2, 0), (2, n)]:
                bumped = partial(_one_side_bumped, target=target, side=side, exponent=exponent)
                run = I._runner(lambda o, bumped=bumped, parts=check.run.parts: bumped(parts(o)))
                monkeypatch.setitem(I.REGISTRY, check_id, I.IdentityCheck(
                    check_id, check.description, check.kind, run))
                tried += 1
                if I.verify(check_id, order).status == "pass":
                    missed.append((check_id, target, side, exponent))
        monkeypatch.setitem(I.REGISTRY, check_id, check)
    assert tried == 112  # 28 series parts, four bumps each
    assert missed == []


def test_the_runner_applies_the_one_rule_to_each_part_in_turn():
    a, b = TruncatedSeries((0, 1, 2, 3, 4)), TruncatedSeries((0, 1, 5, 3, 7))
    longer, composite = TruncatedSeries((0, 1, 2, 9, 4, 5)), [I.Mismatch(7, 1, 2)]
    parts = [
        (4, lambda: a, lambda: a),  # equal
        (4, lambda: a, lambda: b, 3),  # unequal but congruent modulo 3
        (4, lambda: a, lambda: b),  # differing at q^2 and q^4
        (3, lambda: longer, lambda: a),  # of different lengths, compared to q^3
        (4, lambda: composite, None),  # a thunk that lists its own mismatches
    ]
    want = I._series_mismatches(4, a, b) + I._series_mismatches(3, longer, a) + composite
    assert I._series_mismatches(4, a, b, 3) == []
    assert [m.index for m in want] == [2, 4, 3, 7]
    assert I._runner(lambda order: parts)(4) == (4, want)
    # the cap sets the order the parts are asked for and the order reported
    asked = []
    capped = I._runner(lambda order: asked.append(order) or [], cap=3)
    assert (capped(10), capped(2), asked) == ((3, []), (2, []), [3, 2])
    # a side that stops short of its part's order is an error, not a pass
    with pytest.raises(IndexError):
        I._runner(lambda order: [(5, lambda: a, lambda: a)])(5)


def test_verify_all_runs_everything_in_order():
    reports = I.verify_all(12)
    assert [r.id for r in reports] == list(I.REGISTRY)
    assert all(r.status == "pass" for r in reports)


def test_verify_all_walks_each_enumerated_size_once(cold_memos, monkeypatch):
    walked, listed = Counter(), Counter()
    enumerate_partitions = P.enumerate_partitions

    def counting(n):
        walked[n] += 1
        for pi in enumerate_partitions(n):
            listed[n] += 1
            yield pi

    monkeypatch.setattr(P, "enumerate_partitions", counting)
    assert all(r.status == "pass" for r in I.verify_all(80))
    assert walked == Counter([I.ENUM_CAP])  # one walk, at ENUM_CAP, serves every n
    assert listed == Counter({I.ENUM_CAP: P.p(I.ENUM_CAP)}) == Counter({30: 5604})


def test_memo_reuse_across_orders_keeps_reports(cold_memos):
    def outcome(reports):
        return [(r.id, r.order, r.status, r.mismatch_total, r.mismatches)
                for r in reports]

    cold = outcome(I.verify_all(40))
    for memo in cold_memos:
        memo.cache_clear()
    I.verify_all(80)
    assert outcome(I.verify_all(40)) == cold


def test_gf_note_even_part_is_spt_and_odd_part_vanishes():
    s = I.lhs_gf_note(60)
    for n in range(1, 31):
        assert s.coeff(2 * n) == P.spt(n)
    for k in range(1, 60, 2):
        assert s.coeff(k) == 0


def test_report_caps_mismatches_at_20(monkeypatch):
    def run(order):
        return order, [I.Mismatch(k, 1, 0) for k in range(50)]

    fake = I.IdentityCheck("fake", "always fails", "sequence-equality", run)
    monkeypatch.setitem(I.REGISTRY, "fake", fake)
    report = I.verify("fake", 5)
    assert report.status == "fail"
    assert report.mismatch_total == 50
    assert len(report.mismatches) == 20
