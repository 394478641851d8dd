"""Coefficientwise verification of the smallest-part generating identities.

Every identity carrying a factor 1/2 is checked in doubled form so the
whole pipeline stays in exact integer arithmetic; that is sound because
the rank and crank second moments are even (negation symmetry of the rank
and crank multisets, asserted by the partition tests).

The left sides are sums of q-Pochhammer quotients built purely in the
series ring.  The right sides are product forms; those of eqs. (2)/(3)
pull N2/M2 from literal partition enumeration, which makes each check a
genuine cross-representation test rather than a tautology.  Checks that
need enumeration cap their range at desk scale (n <= ENUM_CAP) no matter
what bound is requested; the reported order is the one actually used.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator

from . import partitions
from .series import (
    TruncatedSeries,
    geom_sq,
    lambert_sigma,
    monomial,
    one,
    qpoch_inf,
    zero,
)

ENUM_CAP = 30  # largest n any enumeration-backed table is asked for
TERMWISE_N = 12  # termwise_eq2 compares the summands n = 1..TERMWISE_N
BAILEY_N = 8  # bailey_c1/bailey_c5 check the relation for n = 0..BAILEY_N


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    """One disagreeing position: exponent (or sequence index), both values."""

    index: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class IdentityReport:
    id: str
    order: int
    mismatch_total: int
    mismatches: tuple[Mismatch, ...]  # capped at 20 entries
    elapsed: float

    @property
    def status(self) -> str:
        return "pass" if self.mismatch_total == 0 else "fail"


@dataclass(frozen=True)
class IdentityCheck:
    """A named lhs/rhs builder pair; ``run(order)`` returns the order
    actually used plus every mismatch found."""

    id: str
    description: str
    kind: str  # series-equality | sequence-equality | congruence
    run: Callable[[int], tuple[int, list[Mismatch]]]


def _series_mismatches(lhs: TruncatedSeries, rhs: TruncatedSeries) -> list[Mismatch]:
    n = min(lhs.order, rhs.order)
    return [
        Mismatch(k, lhs.coeffs[k], rhs.coeffs[k])
        for k in range(n + 1)
        if lhs.coeffs[k] != rhs.coeffs[k]
    ]


def _sequence_mismatches(indices: Iterable[int], lhs, rhs) -> list[Mismatch]:
    """One Mismatch per index n where the ints lhs(n) and rhs(n) differ."""
    values = ((n, lhs(n), rhs(n)) for n in indices)
    return [Mismatch(n, a, b) for n, a, b in values if a != b]


def _first_difference(index: int, lhs, rhs) -> list[Mismatch]:
    """[] when the two series agree; otherwise one Mismatch at ``index``
    holding the first differing coefficient of each side."""
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        if a != b:
            return [Mismatch(index, a, b)]
    return []


# ----------------------------------------------------------------------
# left-hand sides: sums of q-Pochhammer quotients
# ----------------------------------------------------------------------


def _smallest_part_summands(order: int) -> Iterator[tuple[int, TruncatedSeries]]:
    """Yield (n, q^n Q_n / (1-q^n)^2) for n = order down to 1, the eq. (2)
    summands, where Q_n = (q^(2n+1);q^2)_inf / (q^(n+1);q)_inf.

    Q_order is 1 modulo q^(order+1), so the walk starts from 1 and steps
    down by Q_(n-1) = Q_n (1 - q^(2n-1)) / (1 - q^n), sharing the division
    by (1 - q^n) with the summand: three O(order) updates and a shift per n.
    Tests pin it to the direct dense construction.
    """
    quotient = one(order)  # Q_order
    for n in range(order, 0, -1):
        half = quotient.divided_by_one_minus(n)
        yield n, half.divided_by_one_minus(n).shifted(n)
        quotient = half.times_one_minus(2 * n - 1)


@lru_cache(maxsize=None)
def _smallest_part_lhs(order: int) -> tuple:
    """lhs_eq2, lhs_eq3 and lhs_gf_note, summed in one pass over the summands,
    and the (n, summand) pairs with n <= TERMWISE_N in ascending n.

    The spt_o sum accumulates each summand times (1 - q^(n(n-1)/2)) on its
    own rather than being taken as the eq2 sum minus the eq3 sum, so the
    gf_note check compares two different constructions.
    """
    total2 = total3 = total_o = zero(order)
    kept = []
    for n, summand in _smallest_part_summands(order):
        total2 = total2 + summand
        if n * (n + 1) // 2 <= order:
            total3 = total3 + summand.shifted(n * (n - 1) // 2)
        if n > 1:  # the n = 1 factor is 1 - q^0 = 0
            total_o = total_o + summand.times_one_minus(n * (n - 1) // 2)
        if n <= TERMWISE_N:
            kept.append((n, summand))
    return total2, total3, total_o, tuple(kept[::-1])


def lhs_eq2(order: int) -> TruncatedSeries:
    """Generating series of spt_o_plus as a sum of Pochhammer quotients."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _smallest_part_lhs(order)[0]


def lhs_eq3(order: int) -> TruncatedSeries:
    """Generating series of spt_o_minus (triangular-companion weights)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _smallest_part_lhs(order)[1]


def lhs_gf_note(order: int) -> TruncatedSeries:
    """Generating series of spt_o: each summand carries (1 - q^(n(n-1)/2))."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _smallest_part_lhs(order)[2]


@lru_cache(maxsize=None)
def lhs_eq1(order: int) -> TruncatedSeries:
    """Generating series of spt: sum_n q^n / ((1-q^n) (q^n;q)_inf), walked
    down from n = order, where the tail 1/(q^(n+1);q)_inf is 1 mod q^(order+1)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    total = zero(order)
    inv_tail = one(order)
    for n in range(order, 0, -1):
        inv_tail = inv_tail.divided_by_one_minus(n)  # now 1/(q^n;q)_inf
        total = total + inv_tail.divided_by_one_minus(n).shifted(n)
    return total


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------


def _lambert_over_even_doubled(order: int) -> TruncatedSeries:
    """2 * Lambert/(q^2;q^2)_inf, the main term of both doubled right sides."""
    return 2 * (qpoch_inf(2, 2, order).invert() * lambert_sigma(order))


def _enumerated_series(value: Callable[[int], int], order: int) -> TruncatedSeries:
    """sum_{n>=1} value(n) q^n, truncated at ``order``: a table of enumerated
    (or otherwise per-n) values as a series."""
    return TruncatedSeries((0, *map(value, range(1, order + 1))))


def rhs_eq2_doubled(order: int) -> TruncatedSeries:
    """2 * Lambert/(q^2;q^2)_inf minus the rank moments N2(n) at q^(2n)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    moments = _enumerated_series(partitions.n2, order // 2).stretched(2)
    return _lambert_over_even_doubled(order) - moments


def rhs_eq3_doubled(order: int) -> TruncatedSeries:
    """Same with the crank moments M2(n)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    moments = _enumerated_series(partitions.m2, order // 2).stretched(2)
    return _lambert_over_even_doubled(order) - moments


def _theta_correction(order: int) -> TruncatedSeries:
    """sum_{n>=1} (-1)^n q^(n(3n+1)/2) (1 + q^n) / (1 - q^n)^2."""
    total = zero(order)
    n = 1
    while n * (3 * n + 1) // 2 <= order:
        base = geom_sq(n, order).shifted(n * (3 * n - 1) // 2)
        term = base + base.shifted(n)
        total = total + (term if n % 2 == 0 else -term)
        n += 1
    return total


def _p_series(order: int) -> TruncatedSeries:
    """sum p(n) q^n = 1/(q;q)_inf, from the pentagonal-number recurrence."""
    return TruncatedSeries(tuple(partitions._partition_counts(order)))


def _n2_series(order: int) -> TruncatedSeries:
    """-2 * theta correction * sum p(n) q^n (that is, over (q;q)_inf), whose
    q^n coefficient is the rank moment N2(n)."""
    return -2 * (_p_series(order) * _theta_correction(order))


def _m2_series(order: int) -> TruncatedSeries:
    """sum 2 n p(n) q^n, whose q^n coefficient is the crank moment M2(n)."""
    p = _p_series(order).coeffs
    return TruncatedSeries(tuple(2 * n * c for n, c in enumerate(p)))


def _psi_series(order: int) -> TruncatedSeries:
    """psi(q) = sum_{k>=0} q^(k(k+1)/2) = (q^2;q^2)_inf/(q;q^2)_inf (Gauss)."""
    triangular = {k * (k + 1) // 2 for k in range(order + 1)}
    return TruncatedSeries(tuple(int(e in triangular) for e in range(order + 1)))


def _t4_series(order: int) -> TruncatedSeries:
    """psi^4: q^n counts the ordered quadruples of triangular numbers summing to n."""
    return _psi_series(order) ** 4


def rhs_eq1_doubled(order: int) -> TruncatedSeries:
    """2 sum n p(n) q^n + 2 * theta correction / (q;q)_inf, that is the M2
    series minus the N2 series."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _m2_series(order) - _n2_series(order)


def rhs_eq23(order: int) -> TruncatedSeries:
    """q (q^4;q^4)_inf^3/(q^2;q^4)_inf^5 = q psi(q^2)^5 P(q^4)^2, the odd-part
    product form, by Gauss's psi(q) = (q^2;q^2)_inf/(q;q^2)_inf and Euler's
    P(q) = sum p(n) q^n = 1/(q;q)_inf: no inverse and no dense power."""
    if order < 1:
        raise ValueError("order must be >= 1")
    p = _p_series(order // 4)
    odd = _psi_series(order // 2) ** 5 * (p * p).stretched(2)
    return odd.stretched(2).shifted(1).truncate(order)


# ----------------------------------------------------------------------
# Bailey pairs C1 and C5 (relative to a = 1)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BaileyPair:
    """A Bailey pair relative to a = 1, given by two exponents:

    alpha_0 = 1, odd-index alphas vanish,
    alpha_{2m} = (-1)^m q^(alpha_exponent(m)) (1 + q^(2m)),
    beta_n = q^(beta_exponent(n)) / ((q;q)_n (q;q^2)_n).

    Each exponent is also the lowest one present, so sums over a pair can
    stop as soon as it passes the truncation order.
    """

    label: str
    alpha_exponent: Callable[[int], int]
    beta_exponent: Callable[[int], int]

    def alpha(self, n: int, order: int) -> TruncatedSeries:
        if n == 0:
            return one(order)
        if n % 2:
            return zero(order)
        m = n // 2
        e = self.alpha_exponent(m)
        sign = -1 if m % 2 else 1
        return monomial(e, sign, order) + monomial(e + 2 * m, sign, order)

    def beta(self, n: int, order: int) -> TruncatedSeries:
        out = monomial(self.beta_exponent(n), 1, order)
        for k in range(1, n + 1):
            out = out.divided_by_one_minus(k).divided_by_one_minus(2 * k - 1)
        return out


_BAILEY_PAIRS = {
    "C1": BaileyPair("C1", lambda m: m * (3 * m - 1), lambda n: 0),
    "C5": BaileyPair("C5", lambda m: m * (m - 1), lambda n: n * (n - 1) // 2),
}


def bailey_pair(label: str) -> BaileyPair:
    """The two classical pairs used here, labelled C1 and C5."""
    if label not in _BAILEY_PAIRS:
        raise ValueError(f"unknown Bailey pair label {label!r}; known: C1, C5")
    return _BAILEY_PAIRS[label]


def check_bailey_relation(pair: BaileyPair, n_max: int, order: int) -> list[Mismatch]:
    """Verify beta_n = sum_{r=0..n} alpha_r / ((q;q)_{n+r} (q;q)_{n-r}).

    A mismatch entry records the failing n and the first differing
    coefficient of each side.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    inv_fin = [one(order)]  # inv_fin[k] = 1/(q;q)_k
    for k in range(1, 2 * n_max + 1):
        inv_fin.append(inv_fin[-1].divided_by_one_minus(k))
    out = []
    for n in range(n_max + 1):
        acc = zero(order)
        for r in range(n + 1):
            denominator_inverse = inv_fin[n + r]
            for k in range(1, n - r + 1):
                denominator_inverse = denominator_inverse.divided_by_one_minus(k)
            acc = acc + pair.alpha(r, order) * denominator_inverse
        out += _first_difference(n, pair.beta(n, order), acc)
    return out


def _eq12_summands(
    pair: BaileyPair, order: int
) -> Iterator[tuple[int, TruncatedSeries]]:
    """Yield (n, (q;q)_{n-1}^2 beta_n q^n) for each n whose summand is not
    zero at this order.

    With beta_n written out, the n-th summand is q^(n + beta_exponent(n))
    times T_n = (q;q)_{n-1} / ((1-q^n) (q;q^2)_n), and T_{n+1} is T_n times
    (1-q^n)^2 / ((1-q^(n+1)) (1-q^(2n+1))): four O(order) updates per step.
    """
    quotient = one(order).divided_by_one_minus(1).divided_by_one_minus(1)  # T_1
    n = 1
    while n + pair.beta_exponent(n) <= order:
        if n > 1:
            quotient = quotient.times_one_minus(n - 1).times_one_minus(n - 1)
            quotient = quotient.divided_by_one_minus(n).divided_by_one_minus(2 * n - 1)
        yield n, quotient.shifted(n + pair.beta_exponent(n))
        n += 1


def eq12_lhs(pair: BaileyPair, order: int) -> TruncatedSeries:
    """sum_{n>=1} (q;q)_{n-1}^2 beta_n q^n."""
    return sum((term for _, term in _eq12_summands(pair, order)), zero(order))


def eq12_rhs(pair: BaileyPair, order: int) -> TruncatedSeries:
    """alpha_0 * Lambert + sum_{n>=1} alpha_n q^n/(1-q^n)^2 (even n only)."""
    total = lambert_sigma(order)
    m = 1
    while pair.alpha_exponent(m) + 2 * m <= order:
        total = total + pair.alpha(2 * m, order) * geom_sq(2 * m, order)
        m += 1
    return total


def check_eq12(pair: BaileyPair, order: int) -> list[Mismatch]:
    """The differentiated-lemma identity for one pair, coefficientwise."""
    return _series_mismatches(eq12_lhs(pair, order), eq12_rhs(pair, order))


def _termwise_mismatches(order: int) -> list[Mismatch]:
    """Each differentiated-lemma summand equals (q^2;q^2)_inf times the
    matching quotient summand: C1 pairs with eq2, C5 with eq3, whose extra
    q^(n(n-1)/2) is stated here, not read off the pair, so that a wrong
    beta_exponent shows.  (q^2;q^2)_inf is pentagonal-sparse, so each
    product is O(order^1.5).  The quotient summands are the ones the
    eq. (2) pass keeps, n <= TERMWISE_N in ascending n."""
    even = qpoch_inf(2, 2, order)
    quotients = _smallest_part_lhs(order)[3]
    out = []
    for label, shift in (("C1", lambda n: 0), ("C5", lambda n: n * (n - 1) // 2)):
        terms = dict(islice(_eq12_summands(bailey_pair(label), order), TERMWISE_N))
        for n, quotient in quotients:
            rhs = even * quotient.shifted(shift(n))
            out += _first_difference(n, terms.get(n, zero(order)), rhs)
    return out


# ----------------------------------------------------------------------
# congruences
# ----------------------------------------------------------------------


def check_congruence(
    values: Callable[[int], int], step: int, offset: int, modulus: int, k_max: int
) -> list[Mismatch]:
    """Check values(step*k + offset) == 0 (mod modulus) for k = 0..k_max."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    out = []
    for k in range(k_max + 1):
        arg = step * k + offset
        v = values(arg)
        if v % modulus != 0:
            out.append(Mismatch(arg, v % modulus, 0))
    return out


def even_parity_report(order: int) -> tuple[int, int]:
    """(count of n <= order//2 with spt_o_plus(2n) even, count of n checked).

    A finite-range observation only; nothing is asserted about a limit.
    """
    s = lhs_eq2(order)
    hits = sum(1 for n in range(1, order // 2 + 1) if s.coeffs[2 * n] % 2 == 0)
    return hits, order // 2


# ----------------------------------------------------------------------
# the check registry: each check adds itself to REGISTRY where it is
# defined, through ``_check``, so ``verify --all`` and ``list`` run in
# definition order
# ----------------------------------------------------------------------

REGISTRY: dict[str, IdentityCheck] = {}


def _check(check_id: str, kind: str, description: str):
    """Decorator: register ``run`` as check ``check_id`` and return it as is."""

    def register(run):
        REGISTRY[check_id] = IdentityCheck(check_id, description, kind, run)
        return run

    return register


@_check("eq1", "series-equality",
        "doubled spt gf: 2*sum q^n/((1-q^n)(q^n;q)_inf) vs 2*sum n p(n) q^n "
        "+ 2*pentagonal theta correction/(q;q)_inf; sub-check: the correction "
        "term carries -N2(n)/2 at q^n (desk scale)")
def _run_eq1(order):
    mm = _series_mismatches(2 * lhs_eq1(order), rhs_eq1_doubled(order))
    # the theta correction over (q;q)_inf carries exactly -1/2 the rank
    # moments; checked against enumeration, at desk scale
    sub = min(order, ENUM_CAP)
    mm += _series_mismatches(_n2_series(sub), _enumerated_series(partitions.n2, sub))
    return order, mm


@_check("eq2", "series-equality",
        "doubled spt_o_plus gf: 2*sum q^n (q^(2n+1);q^2)_inf/((1-q^n)^2 "
        "(q^(n+1);q)_inf) vs 2*Lambert/(q^2;q^2)_inf - sum N2(n) q^(2n) "
        f"(order capped at {2 * ENUM_CAP}: N2 is enumerated)")
def _run_eq2(order):
    used = min(order, 2 * ENUM_CAP)
    return used, _series_mismatches(2 * lhs_eq2(used), rhs_eq2_doubled(used))


@_check("eq3", "series-equality",
        "doubled spt_o_minus gf: numerators q^(n(n+1)/2), crank moments "
        f"M2(n) q^(2n) (order capped at {2 * ENUM_CAP}: M2 is enumerated)")
def _run_eq3(order):
    used = min(order, 2 * ENUM_CAP)
    return used, _series_mismatches(2 * lhs_eq3(used), rhs_eq3_doubled(used))


@_check("gf_note", "series-equality",
        "spt_o gf built with (1 - q^(n(n-1)/2)) factors equals lhs_eq2 - lhs_eq3")
def _run_gf_note(order):
    direct = lhs_gf_note(order)
    difference = lhs_eq2(order) - lhs_eq3(order)
    return order, _series_mismatches(direct, difference)


@_check("thm2", "sequence-equality",
        f"spt_o(2n) = spt(n): by enumeration for n <= {ENUM_CAP // 2} and by "
        "series (even part of lhs_eq2 - lhs_eq3 vs the spt series)")
def _run_thm2(order):
    mm = _sequence_mismatches(
        range(1, min(ENUM_CAP // 2, order // 2) + 1),
        lambda n: partitions.spt_o(2 * n),
        partitions.spt,
    )
    even = (lhs_eq2(order) - lhs_eq3(order)).extract(0, 2)
    mm += _series_mismatches(even, lhs_eq1(order).truncate(even.order))
    return order, mm


@_check("thm3", "congruence",
        "spt_o_plus(2n) == spt(n) (mod 2): series coefficients vs "
        f"enumeration (n capped at {ENUM_CAP})")
def _run_thm3(order):
    even = lhs_eq2(order).extract(0, 2)
    mm = []
    for n in range(1, min(even.order, ENUM_CAP) + 1):
        series_val = even.coeffs[n]
        enum_val = partitions.spt(n)
        if (series_val - enum_val) % 2 != 0:
            mm.append(Mismatch(n, series_val, enum_val))
    return order, mm


@_check("thm4", "congruence",
        "spt_o_minus(2n) == 0 (mod 2): series route for 2n <= order, "
        f"enumeration route for n <= {ENUM_CAP // 2}")
def _run_thm4(order):
    even = lhs_eq3(order).extract(0, 2)
    mm = [
        Mismatch(n, even.coeffs[n], 0)
        for n in range(1, even.order + 1)
        if even.coeffs[n] % 2 != 0
    ]
    for n in range(1, min(ENUM_CAP // 2, order // 2) + 1):
        v = partitions.spt_o_minus(2 * n)
        if v % 2 != 0:
            mm.append(Mismatch(n, v, 0))
    return order, mm


@_check("thm5", "series-equality",
        "odd-exponent coefficients of lhs_eq2 and lhs_eq3 agree "
        "(spt_o_plus(2n+1) = spt_o_minus(2n+1))")
def _run_thm5(order):
    odd2 = lhs_eq2(order).extract(1, 2)
    odd3 = lhs_eq3(order).extract(1, 2)
    return order, _series_mismatches(odd2, odd3)


@_check("eq13", "series-equality",
        "doubled spt_o_plus gf from enumeration vs 2*(sigma series)/"
        "(q^2;q^2)_inf - sum N2(n) q^(2n) (desk scale)")
def _run_eq13(order):
    used = min(order, ENUM_CAP)
    lhs = 2 * _enumerated_series(partitions.spt_o_plus, used)
    return used, _series_mismatches(lhs, rhs_eq2_doubled(used))


@_check("eq14", "sequence-equality",
        "2 spt_o_plus(2n) = 2 sum_k p(k) sigma(2(n-k)) - N2(n) "
        f"for n <= {ENUM_CAP // 2}")
def _run_eq14(order):
    bound = min(order, ENUM_CAP // 2)  # spt_o_plus(2n) is enumerated

    def rhs(n):
        conv = sum(
            partitions.p(k) * partitions.sigma(2 * (n - k)) for k in range(n + 1)
        )
        return 2 * conv - partitions.n2(n)

    return bound, _sequence_mismatches(
        range(1, bound + 1), lambda n: 2 * partitions.spt_o_plus(2 * n), rhs
    )


@_check("eq23", "series-equality",
        "odd part of lhs_eq3 vs q (q^4;q^4)_inf^3/(q^2;q^4)_inf^5")
def _run_eq23(order):
    odd3 = lhs_eq3(order).extract(1, 2)
    odd_product = rhs_eq23(order).extract(1, 2)
    return order, _series_mismatches(odd3, odd_product)


@_check("m2_is_2np", "sequence-equality",
        f"M2(n) = 2 n p(n) (n capped at {ENUM_CAP})")
def _run_m2_is_2np(order):
    used = min(order, ENUM_CAP)
    return used, _sequence_mismatches(
        range(1, used + 1), partitions.m2, lambda n: 2 * n * partitions.p(n)
    )


@_check("spt_half_diff", "sequence-equality",
        f"2 spt(n) = M2(n) - N2(n) (n capped at {ENUM_CAP})")
def _run_spt_half_diff(order):
    used = min(order, ENUM_CAP)
    return used, _sequence_mismatches(
        range(1, used + 1),
        lambda n: 2 * partitions.spt(n),
        lambda n: partitions.m2(n) - partitions.n2(n),
    )


@_check("sigma_doubling", "sequence-equality",
        "sigma(2n) = 3 sigma(n) - 2 sigma(n/2), the last term only for even n")
def _run_sigma_doubling(order):
    def rhs(n):
        return 3 * partitions.sigma(n) - (0 if n % 2 else 2 * partitions.sigma(n // 2))

    return order, _sequence_mismatches(
        range(1, order + 1), lambda n: partitions.sigma(2 * n), rhs
    )


@_check("legendre_t4", "sequence-equality", "sigma(2n+1) = t4(n)")
def _run_legendre_t4(order):
    t4 = _t4_series(order).coeffs
    return order, _sequence_mismatches(
        range(order + 1), lambda n: partitions.sigma(2 * n + 1), t4.__getitem__
    )


def _run_bailey(label):
    def run(order):
        return order, check_bailey_relation(bailey_pair(label), BAILEY_N, order)

    return run


def _run_eq12(label):
    def run(order):
        return order, check_eq12(bailey_pair(label), order)

    return run


def _run_cong(step, offset, modulus):
    """spt_o(2(step k + offset)) == 0 (mod modulus) for 2(step k + offset) <= order."""

    def run(order):
        k_max = (order // 2 - offset) // step
        return order, check_congruence(
            lhs_gf_note(order).coeff, 2 * step, 2 * offset, modulus, k_max
        )

    return run


_check("bailey_c1", "series-equality",
       "beta_n = sum_r alpha_r/((q;q)_(n+r) (q;q)_(n-r)) for pair C1, "
       f"n <= {BAILEY_N}")(_run_bailey("C1"))
_check("bailey_c5", "series-equality",
       f"same summation relation for pair C5, n <= {BAILEY_N}")(_run_bailey("C5"))
_check("eq12_c1", "series-equality",
       "sum (q;q)_(n-1)^2 beta_n q^n = Lambert + sum alpha_n q^n/(1-q^n)^2 "
       "for pair C1")(_run_eq12("C1"))
_check("eq12_c5", "series-equality",
       "same differentiated-lemma identity for pair C5")(_run_eq12("C5"))
_check("cong5", "congruence",
       "spt_o(2(5k+4)) == 0 (mod 5), series route")(_run_cong(5, 4, 5))
_check("cong7", "congruence",
       "spt_o(2(7k+5)) == 0 (mod 7), series route")(_run_cong(7, 5, 7))
_check("cong13", "congruence",
       "spt_o(2(13k+6)) == 0 (mod 13), series route")(_run_cong(13, 6, 13))


@_check("termwise_eq2", "series-equality",
        "summandwise: differentiated-lemma terms over (q^2;q^2)_inf equal "
        f"the matching quotient summands (C1<->eq2, C5<->eq3), n <= {TERMWISE_N}")
def _run_termwise(order):
    return order, _termwise_mismatches(order)


def verify(check_id: str, order: int) -> IdentityReport:
    """Run one registered check at the given order/bound."""
    if check_id not in REGISTRY:
        raise ValueError(
            f"unknown identity check {check_id!r}; known: {', '.join(REGISTRY)}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    t0 = time.perf_counter()
    used, mismatches = REGISTRY[check_id].run(order)
    elapsed = time.perf_counter() - t0
    return IdentityReport(
        id=check_id,
        order=used,
        mismatch_total=len(mismatches),
        mismatches=tuple(mismatches[:20]),
        elapsed=elapsed,
    )


def verify_all(order: int) -> list[IdentityReport]:
    """Run every registered check, in registry order."""
    return [verify(check_id, order) for check_id in REGISTRY]
