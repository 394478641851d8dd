"""Series ring: frozen examples, error contracts, and randomized ring axioms."""

import pytest
from hypothesis import given, settings, strategies as st

from sptq import partitions
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


def ts(*coeffs):
    return TruncatedSeries(tuple(coeffs))


def naive_polymul(a, b, order):
    # independent check of the product code: nothing shared with the library
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


# ----------------------------------------------------------------------
# constructors and views
# ----------------------------------------------------------------------


def test_zero():
    assert zero(3).coeffs == (0, 0, 0, 0)
    assert zero(0).coeffs == (0,)


def test_zero_is_additive_identity():
    s = ts(4, -1, 0, 2, 7, 9)
    assert zero(5) + s == s


def test_monomial():
    assert monomial(0, 1, 2).coeffs == (1, 0, 0)
    assert monomial(4, -1, 3).coeffs == (0, 0, 0, 0)  # beyond order: truncates away
    assert monomial(1, 2, 2).coeffs == (0, 2, 0)


def test_order_and_coeff():
    s = ts(5, 6, 7)
    assert s.order == 2
    assert s.coeff(2) == 7
    assert s[0] == 5
    assert zero(3).coeff(2) == 0


def test_coeff_out_of_range_is_an_error():
    with pytest.raises(IndexError):
        ts(1, 2).coeff(5)
    with pytest.raises(IndexError):
        ts(1, 2).coeff(-1)


def test_series_is_immutable():
    s = ts(1, 2, 3)
    with pytest.raises(Exception):
        s.coeffs = (9,)


def test_truncate():
    s = ts(1, 2, 3, 4)
    assert s.truncate(1).coeffs == (1, 2)
    assert s.truncate(3) == s
    with pytest.raises(ValueError):
        s.truncate(4)


# ----------------------------------------------------------------------
# ring operations
# ----------------------------------------------------------------------


def test_add_and_min_order_contract():
    assert (ts(1, 1) + ts(0, 2)).coeffs == (1, 3)
    a = ts(1, 2, 3, 4, 5, 6)  # order 5
    b = ts(1, 1, 1, 1)  # order 3
    assert (a + b).order == 3
    assert (a - b).coeffs == (0, 1, 2, 3)


def test_sub_self_is_zero():
    s = ts(3, -2, 5, 1)
    assert s - s == zero(3)


def test_scale_and_negate():
    s = ts(1, -2, 3)
    assert (2 * s).coeffs == (2, -4, 6)
    assert (s * -1).coeffs == (-1, 2, -3)
    assert (-s) == s * -1


def test_mul_square_of_geometric_prefix():
    assert (ts(1, 1, 1) * ts(1, 1, 1)).coeffs == (1, 2, 3)


def test_mul_by_one():
    s = ts(2, 0, -5, 7)
    assert s * one(3) == s


def test_mul_matches_naive_polymul():
    a = ts(1, -3, 0, 2, 5)
    b = ts(2, 1, -1, 0, 4)
    assert list((a * b).coeffs) == naive_polymul(a.coeffs, b.coeffs, 4)


def test_pow():
    s = ts(1, 1, 0, 0)
    assert (s**0) == one(3)
    assert (s**3).coeffs == (1, 3, 3, 1)
    with pytest.raises(ValueError):
        s**-1


def test_invert_geometric():
    s = TruncatedSeries((1, -1) + (0,) * 7)  # 1 - q at order 8
    assert s.invert().coeffs == (1,) * 9


def test_invert_partition_series():
    # 1/(q;q)_inf counts partitions: p(0)..p(6)
    assert qpoch_inf(1, 1, 6).invert().coeffs == (1, 1, 2, 3, 5, 7, 11)


def test_invert_non_unit_is_an_error():
    with pytest.raises(ValueError):
        ts(2, 0, 0).invert()
    with pytest.raises(ValueError):
        ts(0, 1).invert()


def test_invert_negative_unit():
    s = ts(-1, 3, 2, 1)
    assert s * s.invert() == one(3)


def test_mul_invert_round_trip_on_pochhammer():
    s = qpoch_inf(1, 1, 7)
    assert s * s.invert() == monomial(0, 1, 7)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def test_qpoch_inf_euler_product():
    assert qpoch_inf(1, 1, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_qpoch_inf_no_factors_in_range():
    assert qpoch_inf(3, 2, 2).coeffs == (1, 0, 0)


def test_qpoch_inf_even_steps():
    assert qpoch_inf(2, 2, 4).coeffs == (1, 0, -1, 0, -1)


def test_qpoch_inf_matches_naive_expansion():
    got = qpoch_inf(2, 3, 20)
    expect = [1] + [0] * 20
    e = 2
    while e <= 20:
        expect = naive_polymul(expect, [1] + [0] * (e - 1) + [-1], 20)
        e += 3
    assert list(got.coeffs) == expect


def test_qpoch_inf_bad_args():
    with pytest.raises(ValueError):
        qpoch_inf(0, 1, 5)
    with pytest.raises(ValueError):
        qpoch_inf(1, 0, 5)


def test_qpoch_fin():
    assert qpoch_fin(1, 1, 0, 5) == one(5)  # empty product
    assert qpoch_fin(1, 1, 2, 4).coeffs == (1, -1, -1, 1, 0)
    assert qpoch_fin(1, 2, 2, 4).coeffs == (1, -1, 0, -1, 1)


def test_qpoch_fin_factors_beyond_order_are_one():
    assert qpoch_fin(1, 1, 50, 6) == qpoch_fin(1, 1, 6, 6)


def test_lambert_sigma():
    assert lambert_sigma(6).coeffs == (0, 1, 3, 4, 7, 6, 12)
    assert lambert_sigma(6).coeff(1) == 1
    assert lambert_sigma(0).coeffs == (0,)


def test_lambert_sigma_matches_divisor_sums():
    s = lambert_sigma(60)
    for k in range(61):
        assert s.coeff(k) == partitions.sigma(k)


def test_geom_sq():
    assert geom_sq(1, 4).coeffs == (0, 1, 2, 3, 4)
    assert geom_sq(3, 7).coeffs == (0, 0, 0, 1, 0, 0, 2, 0)
    assert geom_sq(5, 4) == zero(4)


def test_geom_sq_is_shifted_inverse_square():
    # q^n/(1-q^n)^2 against the generic route
    n, order = 3, 30
    direct = geom_sq(n, order)
    via_invert = monomial(n, 1, order) * (qpoch_fin(n, 1, 1, order).invert() ** 2)
    assert direct == via_invert


# ----------------------------------------------------------------------
# extract
# ----------------------------------------------------------------------


def test_extract():
    s = ts(5, 7, 9, 11)
    assert s.extract(0, 2).coeffs == (5, 9)
    assert s.extract(1, 2).coeffs == (7, 11)
    assert s.extract(0, 1) == s


def test_extract_bad_args():
    with pytest.raises(ValueError):
        ts(1, 2).extract(2, 2)
    with pytest.raises(ValueError):
        ts(1).extract(1, 2)  # no exponent == 1 within order 0


def test_stretched_places_coefficients_on_multiples():
    s = ts(1, 2, 3)
    assert s.stretched(3).coeffs == (1, 0, 0, 2, 0, 0, 3, 0, 0)
    assert s.stretched(3).order == 3 * (s.order + 1) - 1
    assert s.stretched(3).extract(0, 3) == s


def test_stretched_by_one_is_the_identity():
    s = ts(4, -1, 0, 7)
    assert s.stretched(1) == s


def test_stretched_rejects_a_factor_below_one():
    for m in (0, -2):
        with pytest.raises(ValueError):
            ts(1, 2).stretched(m)


# ----------------------------------------------------------------------
# single-factor helpers
# ----------------------------------------------------------------------


def test_times_one_minus_matches_mul():
    s = ts(1, 4, -2, 0, 3, 7, 1)
    for e in (1, 2, 5, 9):
        assert s.times_one_minus(e) == s * qpoch_fin(e, 1, 1, 6)


def test_divided_by_one_minus_matches_invert():
    s = ts(1, 4, -2, 0, 3, 7, 1)
    for e in (1, 2, 5, 9):
        assert s.divided_by_one_minus(e) == s * qpoch_fin(e, 1, 1, 6).invert()


def test_one_minus_round_trip():
    s = ts(3, 1, 4, 1, 5, 9, 2, 6)
    assert s.times_one_minus(3).divided_by_one_minus(3) == s


# ----------------------------------------------------------------------
# pentagonal-number pattern of (q;q)_inf
# ----------------------------------------------------------------------


def test_pentagonal_pattern_to_order_60():
    got = qpoch_inf(1, 1, 60)
    expect = [0] * 61
    expect[0] = 1
    j = 1
    while j * (3 * j - 1) // 2 <= 60:
        sign = -1 if j % 2 else 1
        expect[j * (3 * j - 1) // 2] = sign
        if j * (3 * j + 1) // 2 <= 60:
            expect[j * (3 * j + 1) // 2] = sign
        j += 1
    assert list(got.coeffs) == expect


def test_partition_counts_against_enumeration():
    inv = qpoch_inf(1, 1, 30).invert()
    for n in range(31):
        assert inv.coeff(n) == sum(1 for _ in partitions.enumerate_partitions(n))


# ----------------------------------------------------------------------
# randomized ring axioms (hypothesis)
# ----------------------------------------------------------------------

series_st = st.lists(st.integers(-9, 9), min_size=1, max_size=9).map(
    lambda c: TruncatedSeries(tuple(c))
)
unit_series_st = st.tuples(
    st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=8)
).map(lambda t: TruncatedSeries((t[0],) + tuple(t[1])))


@settings(max_examples=200, deadline=None)
@given(series_st, series_st)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=200, deadline=None)
@given(series_st, series_st, series_st)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=200, deadline=None)
@given(series_st, series_st)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(series_st, series_st, series_st)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(series_st, series_st, series_st)
def test_mul_distributes_over_add(a, b, c):
    n = min(a.order, b.order, c.order)
    assert (a * (b + c)).truncate(n) == (a * b + a * c).truncate(n)


@settings(max_examples=200, deadline=None)
@given(series_st)
def test_one_is_multiplicative_identity(a):
    assert a * one(a.order) == a


@settings(max_examples=150, deadline=None)
@given(unit_series_st)
def test_invert_round_trip(a):
    assert a * a.invert() == monomial(0, 1, a.order)


# ----------------------------------------------------------------------
# kernels against their definitions (hypothesis), with wide coefficients
# ----------------------------------------------------------------------

wide_coeff_st = st.one_of(
    st.integers(-9, 9), st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64))
)
wide_series_st = st.lists(wide_coeff_st, min_size=1, max_size=12).map(
    lambda c: TruncatedSeries(tuple(c))
)


@settings(max_examples=200, deadline=None)
@given(wide_series_st, st.data())
def test_shifted_is_monomial_product(x, data):
    e = data.draw(st.integers(0, x.order + 2))
    assert x.shifted(e) == monomial(e, 1, x.order) * x


@settings(max_examples=200, deadline=None)
@given(wide_series_st, wide_series_st)
def test_add_and_sub_are_indexwise_at_the_smaller_order(a, b):
    n = min(a.order, b.order)
    assert (a + b).coeffs == tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1))
    assert (a - b).coeffs == tuple(a.coeffs[k] - b.coeffs[k] for k in range(n + 1))


@settings(max_examples=200, deadline=None)
@given(wide_series_st, st.data())
def test_times_one_minus_is_a_one_factor_product(x, data):
    e = data.draw(st.integers(1, x.order + 2))
    assert x.times_one_minus(e) == x * qpoch_fin(e, 1, 1, x.order)


@settings(max_examples=200, deadline=None)
@given(series_st, st.integers(1, 5))
def test_stretched_is_the_inverse_of_extract(s, m):
    out = s.stretched(m)
    assert out.order == m * (s.order + 1) - 1
    assert out.extract(0, m) == s
    assert all(out.coeffs[k] == 0 for k in range(out.order + 1) if k % m)


def test_shifted_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        ts(1, 2, 3).shifted(-1)
