"""Coefficientwise verification of the smallest-part generating identities.

Every identity carrying a factor 1/2 is checked in doubled form so the
whole pipeline stays in exact integer arithmetic; that is sound because
the rank and crank second moments are even (negation symmetry of the rank
and crank multisets, asserted by the partition tests).

The left sides are sums of q-Pochhammer quotients built purely in the
series ring; the right sides pull N2/M2 from literal partition
enumeration, which makes each check a genuine cross-representation test
rather than a tautology.  Checks that need enumeration cap their range at
desk scale (n <= 30) no matter what bound is requested; the reported
order is the one actually used.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from . import partitions
from .series import (
    TruncatedSeries,
    geom_sq,
    lambert_sigma,
    monomial,
    one,
    qpoch_fin,
    qpoch_inf,
    zero,
)

ENUM_CAP = 30  # largest n any enumeration-backed table is asked for


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


def eq2_summand(n: int, order: int) -> TruncatedSeries:
    """q^n (q^(2n+1);q^2)_inf / ((1-q^n)^2 (q^(n+1);q)_inf), directly."""
    return (
        geom_sq(n, order)
        * qpoch_inf(2 * n + 1, 2, order)
        * qpoch_inf(n + 1, 1, order).invert()
    )


def eq3_summand(n: int, order: int) -> TruncatedSeries:
    """Same quotient with numerator q^(n(n+1)/2) instead of q^n."""
    return monomial(n * (n - 1) // 2, 1, order) * eq2_summand(n, order)


def _smallest_part_summands(order: int) -> Iterator[tuple[int, TruncatedSeries]]:
    """Yield (n, eq2_summand(n)) for n = 1..order, sharing work between n.

    The quotient (q^(2n+1);q^2)_inf / (q^(n+1);q)_inf steps to n+1 by
    dividing out (1 - q^(2n+1)) and multiplying in (1 - q^(n+1)), both
    O(order); each summand is then the sparse geom_sq(n) times it.  Tests
    pin equality with the direct construction.
    """
    if order < 1:
        return
    quotient = qpoch_inf(3, 2, order) * qpoch_inf(2, 1, order).invert()
    for n in range(1, order + 1):
        if n > 1:
            quotient = quotient.divided_by_one_minus(2 * n - 1).times_one_minus(n)
        yield n, geom_sq(n, order) * quotient


@lru_cache(maxsize=None)
def _eq2_eq3_lhs(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    total2 = zero(order)
    total3 = zero(order)
    for n, summand in _smallest_part_summands(order):
        total2 = total2 + summand
        if n * (n + 1) // 2 <= order:
            total3 = total3 + monomial(n * (n - 1) // 2, 1, order) * summand
    return total2, total3


def lhs_eq2(order: int) -> TruncatedSeries:
    """Generating series of spt_o_plus as a sum of Pochhammer quotients."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _eq2_eq3_lhs(order)[0]


def lhs_eq3(order: int) -> TruncatedSeries:
    """Generating series of spt_o_minus (triangular-companion weights)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _eq2_eq3_lhs(order)[1]


@lru_cache(maxsize=None)
def lhs_gf_note(order: int) -> TruncatedSeries:
    """Generating series of spt_o: each summand carries (1 - q^(n(n-1)/2)).

    Built as its own sum rather than as lhs_eq2 - lhs_eq3; the gf_note
    check confirms the two constructions agree.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    total = zero(order)
    for n, summand in _smallest_part_summands(order):
        factor = one(order) - monomial(n * (n - 1) // 2, 1, order)
        total = total + summand * factor
    return total


@lru_cache(maxsize=None)
def lhs_eq1(order: int) -> TruncatedSeries:
    """Generating series of spt: sum_n q^n / ((1-q^n) (q^n;q)_inf)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    total = zero(order)
    inv_tail = qpoch_inf(1, 1, order).invert()
    for n in range(1, order + 1):
        if n > 1:
            inv_tail = inv_tail.times_one_minus(n - 1)  # now 1/(q^n;q)_inf
        total = total + monomial(n, 1, order) * inv_tail.divided_by_one_minus(n)
    return total


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _even_part_inverse(order: int) -> TruncatedSeries:
    return qpoch_inf(2, 2, order).invert()  # 1/(q^2;q^2)_inf


def _moment_even_series(order: int, moment: Callable[[int], int]) -> TruncatedSeries:
    """sum_{n>=1} moment(n) q^(2n), truncated at ``order``."""
    c = [0] * (order + 1)
    for n in range(1, order // 2 + 1):
        c[2 * n] = moment(n)
    return TruncatedSeries(tuple(c))


def rhs_eq2_doubled(order: int) -> TruncatedSeries:
    """2 * Lambert/(q^2;q^2)_inf minus the rank moments N2(n) at q^(2n)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    main = 2 * (_even_part_inverse(order) * lambert_sigma(order))
    return main - _moment_even_series(order, partitions.n2)


def rhs_eq3_doubled(order: int) -> TruncatedSeries:
    """Same with the crank moments M2(n)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    main = 2 * (_even_part_inverse(order) * lambert_sigma(order))
    return main - _moment_even_series(order, partitions.m2)


def _theta_correction(order: int) -> TruncatedSeries:
    """sum_{n>=1} (-1)^n q^(n(3n+1)/2) (1 + q^n) / (1 - q^n)^2."""
    total = zero(order)
    n = 1
    while n * (3 * n + 1) // 2 <= order:
        base = monomial(n * (3 * n - 1) // 2, 1, order) * geom_sq(n, order)
        term = base + monomial(n, 1, order) * base
        total = total + (term if n % 2 == 0 else -term)
        n += 1
    return total


def rhs_eq1_doubled(order: int) -> TruncatedSeries:
    """2 sum n p(n) q^n + 2 * theta correction / (q;q)_inf."""
    if order < 1:
        raise ValueError("order must be >= 1")
    np_series = TruncatedSeries(
        tuple(n * partitions.p(n) for n in range(order + 1))
    )
    corr = qpoch_inf(1, 1, order).invert() * _theta_correction(order)
    return 2 * np_series + 2 * corr


def rhs_eq23(order: int) -> TruncatedSeries:
    """q (q^4;q^4)_inf^3 / (q^2;q^4)_inf^5, the odd-part product form."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return (
        monomial(1, 1, order)
        * qpoch_inf(4, 4, order) ** 3
        * qpoch_inf(2, 4, order).invert() ** 5
    )


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
        base = (qpoch_fin(1, 1, n, order) * qpoch_fin(1, 2, n, order)).invert()
        return monomial(self.beta_exponent(n), 1, order) * base


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
            acc = acc + pair.alpha(r, order) * inv_fin[n + r] * inv_fin[n - r]
        out += _first_difference(n, pair.beta(n, order), acc)
    return out


def eq12_lhs(pair: BaileyPair, order: int) -> TruncatedSeries:
    """sum_{n>=1} (q;q)_{n-1}^2 beta_n q^n.

    With beta_n written out, the n-th summand is q^(n + beta_exponent(n))
    times T_n = (q;q)_{n-1} / ((1-q^n) (q;q^2)_n), and T_{n+1} is T_n times
    (1-q^n)^2 / ((1-q^(n+1)) (1-q^(2n+1))): four O(order) updates per step.
    """
    total = zero(order)
    quotient = one(order).divided_by_one_minus(1).divided_by_one_minus(1)  # T_1
    n = 1
    while n + pair.beta_exponent(n) <= order:
        if n > 1:
            quotient = quotient.times_one_minus(n - 1).times_one_minus(n - 1)
            quotient = quotient.divided_by_one_minus(n).divided_by_one_minus(2 * n - 1)
        total = total + monomial(n + pair.beta_exponent(n), 1, order) * quotient
        n += 1
    return total


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


def _termwise_mismatches(order: int, n_max: int = 12) -> list[Mismatch]:
    """Each differentiated-lemma summand over (q^2;q^2)_inf equals the
    matching Pochhammer-quotient summand: C1 pairs with eq2, C5 with eq3."""
    inv_even = _even_part_inverse(order)
    out = []
    for label, direct in (("C1", eq2_summand), ("C5", eq3_summand)):
        pair = bailey_pair(label)
        for n in range(1, n_max + 1):
            fin = qpoch_fin(1, 1, n - 1, order)
            lhs = fin * fin * pair.beta(n, order) * monomial(n, 1, order) * inv_even
            out += _first_difference(n, lhs, direct(n, order))
    return out


# ----------------------------------------------------------------------
# congruences
# ----------------------------------------------------------------------


def check_congruence(
    values: Callable[[int], int],
    step: int,
    offset: int,
    transform: Callable[[int], int],
    modulus: int,
    k_max: int,
) -> list[Mismatch]:
    """Check values(transform(step*k + offset)) == 0 (mod modulus) for k = 0..k_max."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    out = []
    for k in range(k_max + 1):
        arg = transform(step * k + offset)
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
# the check registry
# ----------------------------------------------------------------------


def _run_eq1(order):
    mm = _series_mismatches(2 * lhs_eq1(order), rhs_eq1_doubled(order))
    # the theta correction over (q;q)_inf carries exactly -1/2 the rank
    # moments; checked doubled, at desk scale
    sub = min(order, ENUM_CAP)
    got = 2 * (qpoch_inf(1, 1, sub).invert() * _theta_correction(sub))
    want = TruncatedSeries(
        tuple(0 if n == 0 else -partitions.n2(n) for n in range(sub + 1))
    )
    mm += _series_mismatches(got, want)
    return order, mm


def _run_eq2(order):
    used = min(order, 2 * ENUM_CAP)
    return used, _series_mismatches(2 * lhs_eq2(used), rhs_eq2_doubled(used))


def _run_eq3(order):
    used = min(order, 2 * ENUM_CAP)
    return used, _series_mismatches(2 * lhs_eq3(used), rhs_eq3_doubled(used))


def _run_gf_note(order):
    direct = lhs_gf_note(order)
    difference = lhs_eq2(order) - lhs_eq3(order)
    return order, _series_mismatches(direct, difference)


def _run_thm2(order):
    mm = _sequence_mismatches(
        range(1, min(15, order // 2) + 1),
        lambda n: partitions.spt_o(2 * n),
        partitions.spt,
    )
    even = (lhs_eq2(order) - lhs_eq3(order)).extract(0, 2)
    mm += _series_mismatches(even, lhs_eq1(order).truncate(even.order))
    return order, mm


def _run_thm3(order):
    even = lhs_eq2(order).extract(0, 2)
    mm = []
    for n in range(1, min(even.order, ENUM_CAP) + 1):
        series_val = even.coeffs[n]
        enum_val = partitions.spt(n)
        if (series_val - enum_val) % 2 != 0:
            mm.append(Mismatch(n, series_val, enum_val))
    return order, mm


def _run_thm4(order):
    even = lhs_eq3(order).extract(0, 2)
    mm = [
        Mismatch(n, even.coeffs[n], 0)
        for n in range(1, even.order + 1)
        if even.coeffs[n] % 2 != 0
    ]
    for n in range(1, min(15, order // 2) + 1):
        v = partitions.spt_o_minus(2 * n)
        if v % 2 != 0:
            mm.append(Mismatch(n, v, 0))
    return order, mm


def _run_thm5(order):
    odd2 = lhs_eq2(order).extract(1, 2)
    odd3 = lhs_eq3(order).extract(1, 2)
    return order, _series_mismatches(odd2, odd3)


def _run_eq13(order):
    used = min(order, ENUM_CAP)
    lhs = TruncatedSeries(
        tuple(0 if n == 0 else 2 * partitions.spt_o_plus(n) for n in range(used + 1))
    )
    sigma_series = TruncatedSeries(
        tuple(partitions.sigma(n) for n in range(used + 1))
    )
    rhs = 2 * (_even_part_inverse(used) * sigma_series) - _moment_even_series(
        used, partitions.n2
    )
    return used, _series_mismatches(lhs, rhs)


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


def _run_eq23(order):
    odd3 = lhs_eq3(order).extract(1, 2)
    odd_product = rhs_eq23(order).extract(1, 2)
    return order, _series_mismatches(odd3, odd_product)


def _run_m2_is_2np(order):
    used = min(order, ENUM_CAP)
    return used, _sequence_mismatches(
        range(1, used + 1), partitions.m2, lambda n: 2 * n * partitions.p(n)
    )


def _run_spt_half_diff(order):
    used = min(order, ENUM_CAP)
    return used, _sequence_mismatches(
        range(1, used + 1),
        lambda n: 2 * partitions.spt(n),
        lambda n: partitions.m2(n) - partitions.n2(n),
    )


def _run_sigma_doubling(order):
    def rhs(n):
        return 3 * partitions.sigma(n) - (0 if n % 2 else 2 * partitions.sigma(n // 2))

    return order, _sequence_mismatches(
        range(1, order + 1), lambda n: partitions.sigma(2 * n), rhs
    )


def _run_legendre_t4(order):
    return order, _sequence_mismatches(
        range(order + 1), lambda n: partitions.sigma(2 * n + 1), partitions.t4
    )


def _run_bailey(label):
    def run(order):
        return order, check_bailey_relation(bailey_pair(label), 8, order)

    return run


def _run_eq12(label):
    def run(order):
        return order, check_eq12(bailey_pair(label), order)

    return run


def _run_cong(step, offset, modulus):
    def run(order):
        series = lhs_gf_note(order)
        k_max = (order // 2 - offset) // step
        mm = check_congruence(
            series.coeff, step, offset, lambda x: 2 * x, modulus, k_max
        )
        return order, mm

    return run


def _run_termwise(order):
    return order, _termwise_mismatches(order)


def _registry() -> dict[str, IdentityCheck]:
    checks = [
        IdentityCheck(
            "eq1",
            "doubled spt gf: 2*sum q^n/((1-q^n)(q^n;q)_inf) vs 2*sum n p(n) q^n "
            "+ 2*pentagonal theta correction/(q;q)_inf; sub-check: the correction "
            "term carries -N2(n)/2 at q^n (desk scale)",
            "series-equality",
            _run_eq1,
        ),
        IdentityCheck(
            "eq2",
            "doubled spt_o_plus gf: 2*sum q^n (q^(2n+1);q^2)_inf/((1-q^n)^2 "
            "(q^(n+1);q)_inf) vs 2*Lambert/(q^2;q^2)_inf - sum N2(n) q^(2n) "
            "(order capped at 60: N2 is enumerated)",
            "series-equality",
            _run_eq2,
        ),
        IdentityCheck(
            "eq3",
            "doubled spt_o_minus gf: numerators q^(n(n+1)/2), crank moments "
            "M2(n) q^(2n) (order capped at 60: M2 is enumerated)",
            "series-equality",
            _run_eq3,
        ),
        IdentityCheck(
            "gf_note",
            "spt_o gf built with (1 - q^(n(n-1)/2)) factors equals "
            "lhs_eq2 - lhs_eq3",
            "series-equality",
            _run_gf_note,
        ),
        IdentityCheck(
            "thm2",
            "spt_o(2n) = spt(n): by enumeration for n <= 15 and by series "
            "(even part of lhs_eq2 - lhs_eq3 vs the spt series)",
            "sequence-equality",
            _run_thm2,
        ),
        IdentityCheck(
            "thm3",
            "spt_o_plus(2n) == spt(n) (mod 2): series coefficients vs "
            "enumeration (n capped at 30)",
            "congruence",
            _run_thm3,
        ),
        IdentityCheck(
            "thm4",
            "spt_o_minus(2n) == 0 (mod 2): series route for 2n <= order, "
            "enumeration route for n <= 15",
            "congruence",
            _run_thm4,
        ),
        IdentityCheck(
            "thm5",
            "odd-exponent coefficients of lhs_eq2 and lhs_eq3 agree "
            "(spt_o_plus(2n+1) = spt_o_minus(2n+1))",
            "series-equality",
            _run_thm5,
        ),
        IdentityCheck(
            "eq13",
            "doubled spt_o_plus gf from enumeration vs 2*(sigma series)/"
            "(q^2;q^2)_inf - sum N2(n) q^(2n) (desk scale)",
            "series-equality",
            _run_eq13,
        ),
        IdentityCheck(
            "eq14",
            "2 spt_o_plus(2n) = 2 sum_k p(k) sigma(2(n-k)) - N2(n) for n <= 15",
            "sequence-equality",
            _run_eq14,
        ),
        IdentityCheck(
            "eq23",
            "odd part of lhs_eq3 vs q (q^4;q^4)_inf^3/(q^2;q^4)_inf^5",
            "series-equality",
            _run_eq23,
        ),
        IdentityCheck(
            "m2_is_2np",
            "M2(n) = 2 n p(n) (n capped at 30)",
            "sequence-equality",
            _run_m2_is_2np,
        ),
        IdentityCheck(
            "spt_half_diff",
            "2 spt(n) = M2(n) - N2(n) (n capped at 30)",
            "sequence-equality",
            _run_spt_half_diff,
        ),
        IdentityCheck(
            "sigma_doubling",
            "sigma(2n) = 3 sigma(n) - 2 sigma(n/2), the last term only for even n",
            "sequence-equality",
            _run_sigma_doubling,
        ),
        IdentityCheck(
            "legendre_t4",
            "sigma(2n+1) = t4(n)",
            "sequence-equality",
            _run_legendre_t4,
        ),
        IdentityCheck(
            "bailey_c1",
            "beta_n = sum_r alpha_r/((q;q)_(n+r) (q;q)_(n-r)) for pair C1, n <= 8",
            "series-equality",
            _run_bailey("C1"),
        ),
        IdentityCheck(
            "bailey_c5",
            "same summation relation for pair C5, n <= 8",
            "series-equality",
            _run_bailey("C5"),
        ),
        IdentityCheck(
            "eq12_c1",
            "sum (q;q)_(n-1)^2 beta_n q^n = Lambert + sum alpha_n q^n/(1-q^n)^2 "
            "for pair C1",
            "series-equality",
            _run_eq12("C1"),
        ),
        IdentityCheck(
            "eq12_c5",
            "same differentiated-lemma identity for pair C5",
            "series-equality",
            _run_eq12("C5"),
        ),
        IdentityCheck(
            "cong5",
            "spt_o(2(5k+4)) == 0 (mod 5), series route",
            "congruence",
            _run_cong(5, 4, 5),
        ),
        IdentityCheck(
            "cong7",
            "spt_o(2(7k+5)) == 0 (mod 7), series route",
            "congruence",
            _run_cong(7, 5, 7),
        ),
        IdentityCheck(
            "cong13",
            "spt_o(2(13k+6)) == 0 (mod 13), series route",
            "congruence",
            _run_cong(13, 6, 13),
        ),
        IdentityCheck(
            "termwise_eq2",
            "summandwise: differentiated-lemma terms over (q^2;q^2)_inf equal "
            "the matching quotient summands (C1<->eq2, C5<->eq3), n <= 12",
            "series-equality",
            _run_termwise,
        ),
    ]
    return {c.id: c for c in checks}


REGISTRY: dict[str, IdentityCheck] = _registry()


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
