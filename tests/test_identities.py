"""Identity builders, Bailey machinery, and the check registry.

Coefficient prefixes are frozen from the enumeration oracles; the builders
being tested never see those oracles while computing.
"""

from collections import Counter

import pytest

from sptq import partitions as P
from sptq import identities as I
from sptq.series import (
    TruncatedSeries,
    geom_sq,
    lambert_sigma,
    monomial,
    one,
    qpoch_fin,
    qpoch_inf,
    zero,
)

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


def test_incremental_summands_match_direct_construction():
    # q^n (q^(2n+1);q^2)_inf / ((1-q^n)^2 (q^(n+1);q)_inf), dense products
    # and a dense inverse built anew for each n
    for order in (1, 2, 25, 60):
        got = dict(I._smallest_part_summands(order))
        assert list(got) == list(range(order, 0, -1))
        for n in range(1, order + 1):
            direct = (
                geom_sq(n, order)
                * qpoch_inf(2 * n + 1, 2, order)
                * qpoch_inf(n + 1, 1, order).invert()
            )
            assert got[n] == direct


def test_lhs_eq1_matches_direct_construction():
    # sum_n q^n / ((1-q^n) (q^n;q)_inf), every factor built and inverted anew
    for order in (1, 2, 9, 20, 60):
        direct = zero(order)
        for n in range(1, order + 1):
            denominator = qpoch_fin(n, 1, 1, order) * qpoch_inf(n, 1, order)
            direct = direct + monomial(n, 1, order) * denominator.invert()
        assert I.lhs_eq1(order) == direct


@pytest.mark.parametrize(
    "lhs, moments", [(I.lhs_eq2, I._n2_series), (I.lhs_eq3, I._m2_series)])
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


def test_theta_correction_carries_rank_moments():
    order = 30
    got = 2 * (qpoch_inf(1, 1, order).invert() * I._theta_correction(order))
    want = TruncatedSeries(
        tuple(0 if n == 0 else -P.n2(n) for n in range(order + 1))
    )
    assert got == want


# ----------------------------------------------------------------------
# Bailey machinery
# ----------------------------------------------------------------------


def test_bailey_pair_alpha_basics():
    c1 = I.bailey_pair("C1")
    assert c1.alpha(0, 5) == one(5)
    assert c1.alpha(3, 10) == zero(10)
    assert c1.alpha(2, 10) == TruncatedSeries(
        (0, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0)
    )  # -q^2 - q^4
    c5 = I.bailey_pair("C5")
    assert c5.alpha(0, 5) == one(5)
    # alpha_2 for C5: -q^0... exponent m(m-1) = 0, so -(1 + q^2)
    assert c5.alpha(2, 6).coeffs == (-1, 0, -1, 0, 0, 0, 0)


def test_bailey_pair_beta_basics():
    c1 = I.bailey_pair("C1")
    assert c1.beta(0, 6) == one(6)
    c5 = I.bailey_pair("C5")
    # beta_1 = 1/((1-q)(1-q)) = sum (k+1) q^k
    assert c5.beta(1, 6).coeffs == (1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("label", ["C1", "C5"])
def test_bailey_pair_beta_matches_dense_inverse(label):
    pair = I.bailey_pair(label)
    for n in range(9):
        assert pair.beta(n, 40) == dense_beta(pair, n, 40)


def test_bailey_pair_unknown_label():
    with pytest.raises(ValueError):
        I.bailey_pair("C9")


def test_bailey_relation_n0():
    assert I.check_bailey_relation(I.bailey_pair("C1"), 0, 10) == []


def test_bailey_relation_holds():
    assert I.check_bailey_relation(I.bailey_pair("C1"), 6, 30) == []
    assert I.check_bailey_relation(I.bailey_pair("C5"), 6, 30) == []


def test_eq12_holds_for_both_pairs():
    assert I.check_eq12(I.bailey_pair("C1"), 40) == []
    assert I.check_eq12(I.bailey_pair("C5"), 40) == []


@pytest.mark.parametrize("label", ["C1", "C5"])
@pytest.mark.parametrize("order", [1, 2, 17, 40])
def test_eq12_lhs_matches_direct_construction(label, order):
    pair = I.bailey_pair(label)
    direct = zero(order)
    for n in range(1, order + 1):
        fin = qpoch_fin(1, 1, n - 1, order)
        beta = dense_beta(pair, n, order)
        direct = direct + fin * fin * beta * monomial(n, 1, order)
    assert I.eq12_lhs(pair, order) == direct


def test_bailey_checks_catch_a_perturbed_alpha():
    bad = I.BaileyPair("C1+1", lambda m: m * (3 * m - 1) + 1, lambda n: 0)
    relation = I.check_bailey_relation(bad, 4, 20)
    assert relation and all(m.lhs != m.rhs for m in relation)
    assert relation[0].index == 2  # beta_n first sees alpha_2 at n = 2
    assert I.check_eq12(bad, 20)


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


def test_verify_all_walks_the_quotient_pass_once(cold_memos, monkeypatch):
    # termwise_eq2 reads the summands the eq. (2) pass keeps, not a second walk
    walks = Counter()
    summands = I._smallest_part_summands

    def counting(order):
        walks[order] += 1
        return summands(order)

    monkeypatch.setattr(I, "_smallest_part_summands", counting)
    assert all(r.status == "pass" for r in I.verify_all(200))
    assert walks[200] == 1


def test_termwise_catches_a_wrong_beta_exponent(monkeypatch):
    bad = I.BaileyPair("C5", lambda m: m * (m - 1), lambda n: n * (n - 1) // 2 + 1)
    monkeypatch.setitem(I._BAILEY_PAIRS, "C5", bad)
    mismatches = I._termwise_mismatches(40)
    assert mismatches and mismatches[0].index == 1


def is_pure_shift(x):
    """True for a series equal to q^e with e >= 1."""
    if not isinstance(x, TruncatedSeries):
        return False
    nonzero = [(k, c) for k, c in enumerate(x.coeffs) if c]
    return len(nonzero) == 1 and nonzero[0][0] >= 1 and nonzero[0][1] == 1


def test_finite_pochhammer_checks_invert_no_dense_product(cold_memos, monkeypatch):
    # finite factors are single-factor steps, the quotient sums walk their
    # infinite tails down from 1 at the truncation order, and every shift by
    # q^e is a slice: only right sides invert, and no product has a factor q^e
    calls = Counter()
    invert, mul = TruncatedSeries.invert, TruncatedSeries.__mul__

    def counting(self):
        calls[check_id] += 1
        return invert(self)

    def counting_mul(self, other):
        calls["shift products"] += is_pure_shift(self) or is_pure_shift(other)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "invert", counting)
    for check_id in ("bailey_c1", "bailey_c5", "eq12_c1", "eq12_c5",
                     "termwise_eq2", "gf_note"):
        assert I.verify(check_id, 200).status == "pass"
    check_id = "lhs_eq1"
    assert I.lhs_eq1(200).coeffs[:15] == (0, *SPT)
    assert sum(calls.values()) == 0

    for memo in cold_memos:
        memo.cache_clear()
    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    check_id = "verify_all"
    assert all(r.status == "pass" for r in I.verify_all(200))
    assert calls["shift products"] == 0
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
# congruence helper
# ----------------------------------------------------------------------


def test_check_congruence_reports_failures():
    mm = I.check_congruence(lambda x: x, 10, 8, 5, 3)
    # 10k+8 = 8,18,28,38; mod 5 -> 3,3,3,3
    assert len(mm) == 4
    assert mm[0] == I.Mismatch(8, 3, 0)


def test_check_congruence_empty_range():
    assert I.check_congruence(lambda x: 1, 5, 4, 5, -1) == []


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
    t4_series = I._t4_series

    def off_at_17(order):
        c = list(t4_series(order).coeffs)
        c[17] += 1
        return TruncatedSeries(tuple(c))

    monkeypatch.setattr(I, "_t4_series", off_at_17)
    report = I.verify("legendre_t4", 40)
    assert report.mismatches == (I.Mismatch(17, P.sigma(35), P.t4(17) + 1),)
    assert report.mismatch_total == 1


def test_verify_unknown_id():
    with pytest.raises(ValueError):
        I.verify("nonsense", 10)


def test_verify_bad_order():
    with pytest.raises(ValueError):
        I.verify("eq2", 0)


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
    assert walked == Counter(range(1, I.ENUM_CAP + 1))
    assert sum(listed.values()) == sum(P.p(n) for n in range(1, I.ENUM_CAP + 1)) == 28628


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


def test_even_parity_report():
    hits, total = I.even_parity_report(40)
    assert total == 20
    assert 0 <= hits <= total
    # parity matches the enumeration for the range we can afford
    expected = sum(1 for n in range(1, 16) if P.spt_o_plus(2 * n) % 2 == 0)
    got = sum(
        1 for n in range(1, 16) if I.lhs_eq2(40).coeff(2 * n) % 2 == 0
    )
    assert got == expected
