"""Series ring: frozen examples, error contracts, and randomized ring axioms."""

import copy
import dataclasses
import operator
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from sptq import identities as I, partitions
from sptq.series import (
    TruncatedSeries,
    _FrozenSlots,
    _over_one_minus_into,
    _times_one_minus_into,
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


def termwise_inverse(a):
    # independent check of the division code: the term-by-term inverse of a
    # unit-constant series, every (k, j) pair walked, zeros included
    inv = [a[0]]
    for k in range(1, len(a)):
        inv.append(-a[0] * sum(a[j] * inv[k - j] for j in range(1, k + 1)))
    return inv


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


# each slot class: (constructor, fields, other fields, the repr of the first);
# a frozen dataclass compares and hashes the tuple of its fields and reprs as
# Cls(name=value, ...), which ``TruncatedSeries`` shortens to its coefficients
VALUE_CLASSES = {
    "TruncatedSeries": (TruncatedSeries, ((1, 2, 3),), ((1, 2, 4),),
                        "TruncatedSeries([1, 2, 3] order=2)"),
    "Mismatch": (I.Mismatch, (1, 2, 3), (1, 2, 4), "Mismatch(index=1, lhs=2, rhs=3)"),
    "IdentityReport": (
        I.IdentityReport, ("eq1", 5, 1, (I.Mismatch(1, 2, 3),), 0.5),
        ("eq1", 5, 0, (), 0.5),
        "IdentityReport(id='eq1', order=5, mismatch_total=1, "
        "mismatches=(Mismatch(index=1, lhs=2, rhs=3),), elapsed=0.5)"),
    "IdentityCheck": (
        I.IdentityCheck, ("eq1", "a check", "congruence", abs),
        ("eq1", "a check", "congruence", len),
        "IdentityCheck(id='eq1', description='a check', kind='congruence', "
        "run=<built-in function abs>)"),
    "BaileyPair": (I.BaileyPair, ("C1", abs, operator.neg), ("C5", abs, operator.neg),
                   "BaileyPair(label='C1', alpha_exponent=<built-in function abs>, "
                   "beta_exponent=<built-in function neg>)"),
}


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_classes_keep_the_frozen_dataclass_contract(name):
    cls, fields, other, text = VALUE_CLASSES[name]
    names = cls.__slots__
    value = cls(*fields)
    assert tuple(getattr(value, field) for field in names) == fields
    assert value == cls(**dict(zip(names, fields)))  # by name, or by both
    assert value == cls(*fields[:1], **dict(zip(names[1:], fields[1:])))
    assert value != cls(*other)
    assert value != fields and value != other
    assert hash(value) == hash(cls(*fields)) == hash(fields)
    assert repr(value) == text
    assert copy.copy(value) == copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    for attr in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    for args, kwargs in [(fields[:-1], {}),  # missing
                         (fields + (0,), {}),  # one too many
                         (fields, {names[0]: fields[0]}),  # doubled
                         (fields, {"extra": 0}),  # unknown
                         (fields[:-1], {"extra": 0})]:  # unknown in a missing one's place
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_classes_serve_the_dataclasses_functions(name):
    # perfbench's tracer and the fault tests swap one field with
    # ``dataclasses.replace``; no command imports ``dataclasses``
    cls, fields, other, _ = VALUE_CLASSES[name]
    names = cls.__slots__
    value = cls(*fields)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert tuple(field.name for field in dataclasses.fields(value)) == names
    assert tuple(dataclasses.asdict(value)) == names
    assert dataclasses.replace(value) == value
    changed = dataclasses.replace(value, **{names[-1]: other[-1]})
    assert changed == cls(*fields[:-1], other[-1]) and type(changed) is cls
    with pytest.raises(TypeError):
        dataclasses.replace(value, extra=0)


def test_asdict_recurses_into_a_report_s_mismatches():
    report = I.IdentityReport("eq1", 5, 1, (I.Mismatch(1, 2, 3),), 0.5)
    assert dataclasses.asdict(report)["mismatches"] == ({"index": 1, "lhs": 2, "rhs": 3},)


def test_dataclass_fields_are_built_on_first_read_once_per_class():
    class Pair(_FrozenSlots):
        __slots__ = ("a", "b")

    assert not dataclasses.is_dataclass(_FrozenSlots)  # the base has no fields
    assert "__dataclass_fields__" not in vars(Pair)
    assert dataclasses.replace(Pair(1, 2), b=3) == Pair(1, 3)
    built = vars(Pair)["__dataclass_fields__"]  # stored on the class
    assert tuple(built) == ("a", "b")
    assert dataclasses.fields(Pair) == tuple(built.values())
    assert Pair.__dataclass_fields__ is built
    assert "__dataclass_fields__" in vars(_FrozenSlots)  # the descriptor stays


def test_series_stores_a_tuple_and_needs_a_constant_term():
    assert ts(1, 2) == TruncatedSeries([1, 2]) and TruncatedSeries([1, 2]).coeffs == (1, 2)
    with pytest.raises(ValueError):  # no values: no constant term
        TruncatedSeries(())


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


def test_div_by_a_non_unit_is_an_error():
    with pytest.raises(ValueError, match="constant term 2, must be"):
        ts(1, 1) / ts(2, 0)
    with pytest.raises(ValueError):
        ts(1, 1) / ts(0, 1)


def test_div_by_an_int_is_a_type_error():
    with pytest.raises(TypeError):
        ts(2, 4) / 2


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


def scalar_times_one_minus(c, m):
    # reference loop for (1 - q^m): each coefficient less the one m below it
    return [c[k] - (c[k - m] if k >= m else 0) for k in range(len(c))]


def scalar_over_one_minus(c, m):
    # reference loop for 1/(1 - q^m): one coefficient at a time, bottom up
    out = list(c)
    for k in range(m, len(out)):
        out[k] += out[k - m]
    return out


# (length, m) around the kernel's size rule: running sums per residue class
# while m*m < length, blocks of m at m*m = length and above, no-op at m >= length
KERNEL_SIZES = [(m * m + d, m) for m in (1, 2, 3, 5, 8) for d in (-1, 0, 1)
                if m * m + d >= 1] + [(1, 1), (1, 4), (6, 6), (6, 7), (6, 40)]


@pytest.mark.parametrize("length, m", KERNEL_SIZES)
def test_one_minus_kernels_match_the_scalar_loops(length, m):
    c = [(k * 37 % 19 - 9) * 2**64 + k for k in range(length)]
    up, down = list(c), list(c)
    _times_one_minus_into(up, m)
    _over_one_minus_into(down, m)
    assert up == scalar_times_one_minus(c, m)
    assert down == scalar_over_one_minus(c, m)
    _over_one_minus_into(up, m)
    _times_one_minus_into(down, m)
    assert up == down == c


# ----------------------------------------------------------------------
# pentagonal-number pattern of (q;q)_inf
# ----------------------------------------------------------------------


def test_pentagonal_pattern_to_order_60():
    got = qpoch_fin(1, 1, 60, 60)
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


@settings(max_examples=150, deadline=None)
@given(unit_series_st)
def test_invert_matches_the_termwise_inverse(a):
    assert list(a.invert().coeffs) == termwise_inverse(a.coeffs)


@settings(max_examples=200, deadline=None)
@given(series_st, unit_series_st)
def test_div_round_trip(a, b):
    assert (a / b) * b == a.truncate(min(a.order, b.order))


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


# up to 80 coefficients: residue classes mod e long enough for the kernel's
# running-sum branch, short enough for its block branch, and e > order, a no-op
# (the length is drawn first, since hypothesis keeps most lists short)
long_wide_series_st = st.integers(1, 80).flatmap(
    lambda n: st.lists(wide_coeff_st, min_size=n, max_size=n)
).map(lambda c: TruncatedSeries(tuple(c)))


@settings(max_examples=200, deadline=None)
@given(long_wide_series_st, st.data())
def test_divided_by_one_minus_is_a_one_factor_quotient(x, data):
    e = data.draw(st.integers(1, x.order + 2))
    assert x.divided_by_one_minus(e) == x / qpoch_fin(e, 1, 1, x.order)


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
