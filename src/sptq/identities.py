"""Coefficientwise verification of the smallest-part generating identities.

Every identity carrying a factor 1/2 is checked in doubled form so the
whole pipeline stays in exact integer arithmetic; that is sound because
the rank and crank second moments are even (negation symmetry of the rank
and crank multisets, asserted by the partition tests).

The left sides are sums of q-Pochhammer quotients, each summed by Horner's
rule from its last term down, in one right-sized list, and kept in the
``series._quotient`` memo, so a check builds only the sums it reads.  The
right sides are product forms, some read through the ``series`` module, which
serves them to ``compute`` (eq1-eq3 and gf_note cross its spt table and the
three of spt_o); those of eqs. (2)/(3) take N2 from one listing, of the
partitions of ENUM_CAP, and M2 from one pass that counts the crank moments of
every n, so each check crosses two representations.

Each check yields its parts: an order and two thunks building the series it
compares to that order, with a modulus for a congruence, or one thunk listing
the mismatches of a composite (bailey_c1, bailey_c5, termwise_eq2: the first
difference per n).  One runner applies the one rule, ``_series_mismatches``:
two coefficients differ or, given a modulus, are incongruent modulo it; a
congruence's index is the k of its description.  Per-n statistics stop at
desk scale whatever the request: eq13, eq14, m2_is_2np and spt_half_diff
declare a cap, at which they run and which they report; eq1-eq3 and thm2-thm4
report the requested order and cap only their per-n parts, at 2 ENUM_CAP,
ENUM_CAP or half of it.
"""

import time
from collections.abc import Callable, Iterable, Iterator
from functools import partial

from . import partitions, series
from .partitions import ENUM_CAP  # largest n any per-n table is asked for
from .series import TruncatedSeries, _FrozenSlots

TERMWISE_N = 12  # termwise_eq2 compares the summands n = 1..TERMWISE_N
BAILEY_N = 8  # bailey_c1/bailey_c5 check the relation for n = 0..BAILEY_N


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


class Mismatch(_FrozenSlots):
    """One disagreeing position: exponent (or sequence index), both values."""

    __slots__ = ("index", "lhs", "rhs")


class IdentityReport(_FrozenSlots):
    __slots__ = ("id", "order", "mismatch_total", "mismatches", "elapsed")

    @property
    def status(self) -> str:
        return "pass" if self.mismatch_total == 0 else "fail"


class IdentityCheck(_FrozenSlots):
    """A registered series-equality, sequence-equality or congruence check;
    ``run(order)`` returns the order it reports, its registered cap if any, and
    every mismatch found; ``run.parts(order)`` lists what it compares, lazily."""

    __slots__ = ("id", "description", "kind", "run")


def _series_mismatches(order: int, lhs: TruncatedSeries, rhs: TruncatedSeries,
                       modulus: int = 0) -> list[Mismatch]:
    """The one mismatch rule: one Mismatch per exponent 0..order where the two
    coefficients differ or, given a modulus, are incongruent modulo it.  Each
    series must be known that far (else IndexError); equal prefixes give none,
    at C speed."""
    if min(lhs.order, rhs.order) >= order and lhs.coeffs[: order + 1] == rhs.coeffs[: order + 1]:
        return []
    values = ((n, lhs.coeff(n), rhs.coeff(n)) for n in range(order + 1))
    return [Mismatch(n, a, b) for n, a, b in values
            if ((a - b) % modulus if modulus else a != b)]


def _first_difference(index: int, lhs, rhs) -> list[Mismatch]:
    """[] when the two series agree to the lower order; otherwise one Mismatch
    at ``index`` holding the first differing coefficient of each side."""
    mismatches = _series_mismatches(min(lhs.order, rhs.order), lhs, rhs)
    return [Mismatch(index, m.lhs, m.rhs) for m in mismatches[:1]]


# ----------------------------------------------------------------------
# left-hand sides: sums of q-Pochhammer quotients
# ----------------------------------------------------------------------


def _upward_walk(order: int, steps: int) -> Iterator[tuple[int, TruncatedSeries]]:
    """Yield (n, T_n mod q^(order-n+1)) for n = 1..min(steps, order), T_n =
    (q;q)_(n-1) / ((1-q^n) (q;q^2)_n), for ``termwise_eq2``: T_(n+1) is T_n
    truncated, times (1-q^n)^2, over (1-q^(n+1)) and (1-q^(2n+1))."""
    term = series.one(order)
    for n in range(1, min(steps, order) + 1):
        term = term.truncate(order - n)
        if n > 1:  # T_(n-1) times (1-q^(n-1))^2, taken only once T_n is read
            term = term.times_one_minus(n - 1).times_one_minus(n - 1)
        term = term.divided_by_one_minus(n).divided_by_one_minus(2 * n - 1)
        yield n, term


def _horner_sum(order: int, exponent: Callable, odd: bool) -> TruncatedSeries:
    """sum_{n>=1} q^exponent(n) S_n mod q^(order+1), S_n = T_n if ``odd``,
    else U_n = (q;q)_(n-1)/(1-q^n), by Horner's rule from the last n with
    exponent(n) <= order down: K_n = 1/(1-q^n) + (1-q^n) q^(exponent(n+1) -
    exponent(n)) K_(n+1), over (1-q^(2n-1)) for T; the sum is q^exponent(1) K_1.
    Each K_n is one list of order - exponent(n) + 1 coefficients, updated in
    place.  ``exponent`` must be nondecreasing and >= n, else ValueError."""
    if order < 1:
        raise ValueError("order must be >= 1")
    exponents = [0]
    while exponents[-1] <= order:
        n, e = len(exponents), exponent(len(exponents))
        if e < max(n, exponents[-1]):
            raise ValueError(f"exponent({n}) = {e} is below {n} or exponent({n - 1})")
        exponents.append(e)
    exponents[-1], k = order + 1, []  # the top K_n starts as zeros of full size
    for n in range(len(exponents) - 2, 0, -1):
        series._times_one_minus_into(k, n)
        k[:0] = [0] * (exponents[n + 1] - exponents[n])  # times the q-shift
        k[::n] = map((1).__add__, k[::n])  # plus 1/(1 - q^n)
        if odd:
            series._over_one_minus_into(k, 2 * n - 1)
    return TruncatedSeries((0,) * (order + 1 - len(k)) + tuple(k))


def _u_sum(order: int) -> TruncatedSeries:
    """sum_{n>=1} q^n U_n, U_n = (q;q)_(n-1)/(1-q^n): the eq. (1) numerator."""
    return _horner_sum(order, lambda n: n, odd=False)


def lhs_eq2(order: int) -> TruncatedSeries:
    """Generating series of spt_o_plus as a sum of Pochhammer quotients."""
    return series._quotient(order, _BAILEY_PAIRS["C1"], 2)


def lhs_eq3(order: int) -> TruncatedSeries:
    """Generating series of spt_o_minus (triangular-companion weights)."""
    return series._quotient(order, _BAILEY_PAIRS["C5"], 2)


def lhs_gf_note(order: int) -> TruncatedSeries:
    """Generating series of spt_o = spt_o_plus - spt_o_minus: by linearity,
    (C1 - C5)/(q^2;q^2)_inf, each summand carrying (1 - q^(n(n-1)/2))."""
    return lhs_eq2(order) - lhs_eq3(order)


def lhs_eq1(order: int) -> TruncatedSeries:
    """Generating series of spt: [sum_n q^n (q;q)_(n-1)/(1-q^n)]/(q;q)_inf
    (Andrews 2008), one Horner sum over U_n and one sparse division."""
    return series._quotient(order, _u_sum, 1)


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------


def _lambert_over_even_doubled(order: int) -> TruncatedSeries:
    """2 * Lambert/(q^2;q^2)_inf, the main term of both doubled right sides."""
    return 2 * (series.qpoch_inf(2, 2, order).invert() * series.lambert_sigma(order))


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


def rhs_eq1_doubled(order: int) -> TruncatedSeries:
    """2 sum n p(n) q^n + 2 * theta correction / (q;q)_inf, that is the M2
    series minus the N2 series."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return series._m2_series(order) - series._n2_series(order)


def rhs_eq23(order: int) -> TruncatedSeries:
    """q (q^4;q^4)_inf^3/(q^2;q^4)_inf^5 = q psi(q^2)^5 P(q^4)^2, the odd-part
    product form, by Gauss's psi(q) = (q^2;q^2)_inf/(q;q^2)_inf and Euler's
    P(q) = sum p(n) q^n = 1/(q;q)_inf, so P^2 = P/(q;q)_inf: one sparse
    division in place of a dense square, and no inverse."""
    if order < 1:
        raise ValueError("order must be >= 1")
    p_squared = series._p_series(order // 4) / series.qpoch_inf(1, 1, order // 4)
    odd = series._psi_series(order // 2) ** 5 * p_squared.stretched(2)
    return odd.stretched(2).shifted(1).truncate(order)


# ----------------------------------------------------------------------
# Bailey pairs C1 and C5 (relative to a = 1)
# ----------------------------------------------------------------------


class BaileyPair(_FrozenSlots):
    """A Bailey pair relative to a = 1, given by two exponents:

    alpha_0 = 1, odd-index alphas vanish,
    alpha_{2m} = (-1)^m q^(alpha_exponent(m)) (1 + q^(2m)),
    beta_n = q^(beta_exponent(n)) / ((q;q)_n (q;q^2)_n).

    Each exponent is also the lowest one present, so sums over a pair can
    stop as soon as it passes the truncation order.  Every alpha_n enters a
    series through ``times_alpha``, two shifts and no series product.
    """

    __slots__ = ("label", "alpha_exponent", "beta_exponent")  # a str, two int -> int maps

    def __call__(self, order: int) -> TruncatedSeries:
        """The eq. (12) Horner sum, a ``series._quotient`` numerator keyed by value."""
        return _horner_sum(order, self.summand_exponent, odd=True)

    def summand_exponent(self, n: int) -> int:
        """The eq. (12) summand (q;q)_(n-1)^2 beta_n q^n is q^(this) T_n."""
        return n + self.beta_exponent(n)

    def times_alpha(self, n: int, s: TruncatedSeries) -> TruncatedSeries:
        """alpha_n * s from alpha_exponent: s, zero, or +-(two shifts of s)."""
        if n == 0:
            return s
        if n % 2:
            return series.zero(s.order)
        m = n // 2
        e = self.alpha_exponent(m)
        both = s.shifted(e) + s.shifted(e + 2 * m)
        return -both if m % 2 else both


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

    Only even r add a term (odd-index alphas vanish), each by
    ``times_alpha``; beta_n is a running quotient too.  A mismatch entry
    records the failing n and the first differing coefficient of each side.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    square = base = series.one(order)  # 1/(q;q)_n^2 and 1/((q;q)_n (q;q^2)_n)
    out = []
    for n in range(n_max + 1):
        if n:
            square = square.divided_by_one_minus(n).divided_by_one_minus(n)
            base = base.divided_by_one_minus(n).divided_by_one_minus(2 * n - 1)
        quotient = acc = square  # the r = 0 term: alpha_0 = 1
        for r in range(1, n + 1):  # quotient: 1/((q;q)_(n+r) (q;q)_(n-r))
            quotient = quotient.times_one_minus(n - r + 1).divided_by_one_minus(n + r)
            if r % 2 == 0:
                acc = acc + pair.times_alpha(r, quotient)
        out += _first_difference(n, base.shifted(pair.beta_exponent(n)), acc)
    return out


def eq12_lhs(pair: BaileyPair, order: int) -> TruncatedSeries:
    """sum_{n>=1} (q;q)_{n-1}^2 beta_n q^n = sum q^(n + beta_exponent(n)) T_n,
    T_n = (q;q)_{n-1} / ((1-q^n) (q;q^2)_n), memoized by the pair."""
    return series._quotient(order, pair, 0)


def eq12_rhs(pair: BaileyPair, order: int) -> TruncatedSeries:
    """alpha_0 * Lambert + sum_{n>=1} alpha_n q^n/(1-q^n)^2 (even n only)."""
    total = series.lambert_sigma(order)
    m = 1
    while pair.alpha_exponent(m) + 2 * m <= order:
        total = total + pair.times_alpha(2 * m, series.geom_sq(2 * m, order))
        m += 1
    return total


def _termwise_mismatches(order: int) -> list[Mismatch]:
    """Each differentiated-lemma summand q^(n + beta_exponent(n)) T_n, T_n
    from ``_upward_walk``, equals the literal quotient summand q^n P_n/(1-q^n)^2
    shifted by the stated 0 (C1) or n(n-1)/2 (C5), so a wrong beta_exponent
    shows.  P_n = (q^2;q^2)_inf (q^(2n+1);q^2)_inf/(q^(n+1);q)_inf = P_(n-1)
    (1-q^n)/(1-q^(2n-1)) steps up with the walk from P_0, the series 1 built
    as (q^2;q^2)_inf^2/psi(q)/(q;q)_inf by Gauss's psi(q) = (q^2;q^2)_inf/
    (q;q^2)_inf, so that the check guards all three products."""
    even = series.qpoch_inf(2, 2, order)
    product = even * even / series._psi_series(order) / series.qpoch_inf(1, 1, order)
    c1, c5 = [], []
    for n, term in _upward_walk(order, TERMWISE_N):
        product = product.times_one_minus(n).divided_by_one_minus(2 * n - 1)
        summand = product.divided_by_one_minus(n).divided_by_one_minus(n).shifted(n)
        for out, label, shift in ((c1, "C1", 0), (c5, "C5", n * (n - 1) // 2)):
            lhs = (0,) * bailey_pair(label).summand_exponent(n) + term.coeffs
            out += _first_difference(n, TruncatedSeries(lhs), summand.shifted(shift))
    return c1 + c5


# ----------------------------------------------------------------------
# the check registry: each check adds itself to REGISTRY where it is
# defined, through ``_check``, so ``verify --all`` and ``list`` run in
# definition order
# ----------------------------------------------------------------------

REGISTRY: dict[str, IdentityCheck] = {}


def _runner(parts: Callable[[int], Iterable[tuple]], cap: int | None = None):
    """``run`` for the check whose parts ``parts(order)`` yields: each (order,
    lhs, rhs[, modulus]), lhs and rhs thunks that build series, or (order, a
    thunk listing mismatches, None).  ``run(order)`` compares the parts at
    min(order, cap) in turn by the one rule, ``_series_mismatches``, and
    reports that order; ``run.parts(order)`` lists them alike, building no series."""

    def run(order):
        mismatches = []
        for n, lhs, rhs, *modulus in run.parts(order):
            mismatches += lhs() if rhs is None else _series_mismatches(n, lhs(), rhs(), *modulus)
        return min(order, cap or order), mismatches

    run.parts = lambda order: parts(min(order, cap or order))
    return run


def _check(check_id: str, kind: str, description: str, cap: int | None = None):
    """Decorator: register the parts generator ``parts`` as check ``check_id``,
    run at min(order, cap), and return it as is."""

    def register(parts):
        REGISTRY[check_id] = IdentityCheck(check_id, description, kind, _runner(parts, cap))
        return parts

    return register


@_check("eq1", "series-equality",
        "doubled spt gf: 2*sum q^n/((1-q^n)(q^n;q)_inf) vs 2*sum n p(n) q^n "
        "+ 2*pentagonal theta correction/(q;q)_inf, undoubled vs the spt table; "
        "sub-checks: the correction carries -N2(n)/2 (desk scale), M2 table = 2n p(n)")
def _eq1_parts(order):
    yield order, lambda: 2 * lhs_eq1(order), lambda: rhs_eq1_doubled(order)
    yield order, lambda: lhs_eq1(order), lambda: series._spt_series(order)
    # N2 against enumeration at desk scale (the theta correction over (q;q)_inf
    # carries -N2(n)/2), M2 against 2 n p(n) by the recurrence at full order
    sub = min(order, ENUM_CAP)
    yield sub, lambda: series._n2_series(sub), lambda: _enumerated_series(partitions.n2, sub)
    yield order, lambda: series._m2_series(order), lambda: TruncatedSeries(
        2 * n * c for n, c in enumerate(partitions._partition_counts(order)))


@_check("eq2", "series-equality",
        "doubled spt_o_plus gf: 2*sum q^n (q^(2n+1);q^2)_inf/((1-q^n)^2 "
        "(q^(n+1);q)_inf) vs 2*Lambert/(q^2;q^2)_inf - sum N2(n) q^(2n) "
        f"to order {2 * ENUM_CAP} (N2 enumerated), undoubled vs the spt_o_plus table")
def _eq2_parts(order):
    used = min(order, 2 * ENUM_CAP)
    yield used, lambda: 2 * lhs_eq2(used), lambda: rhs_eq2_doubled(used)
    yield order, lambda: lhs_eq2(order), lambda: series._spt_o_plus_series(order)


@_check("eq3", "series-equality",
        "doubled spt_o_minus gf: numerators q^(n(n+1)/2), crank moments "
        f"M2(n) q^(2n) to order {2 * ENUM_CAP}, undoubled vs the spt_o_minus table")
def _eq3_parts(order):
    used = min(order, 2 * ENUM_CAP)
    yield used, lambda: 2 * lhs_eq3(used), lambda: rhs_eq3_doubled(used)
    yield order, lambda: lhs_eq3(order), lambda: series._spt_o_minus_series(order)


@_check("gf_note", "series-equality",
        "spt_o gf lhs_eq2 - lhs_eq3 vs the spt_o table: spt(n) at q^(2n), 0 at odd q^k")
def _gf_note_parts(order):
    yield order, lambda: lhs_gf_note(order), lambda: series._spt_o_series(order)


@_check("thm2", "sequence-equality",
        f"spt_o(2n) = spt(n): by listing and counting for n <= {ENUM_CAP // 2} "
        "and by series (even part of lhs_eq2 - lhs_eq3 vs the spt series)")
def _thm2_parts(order):
    counted = min(ENUM_CAP // 2, order // 2)
    yield (counted, lambda: _enumerated_series(lambda n: partitions.spt_o(2 * n), counted),
           lambda: _enumerated_series(partitions.spt, counted))
    yield order // 2, lambda: lhs_gf_note(order).extract(0, 2), lambda: lhs_eq1(order)


@_check("thm3", "congruence",
        "spt_o_plus(2n) == spt(n) (mod 2): even part of lhs_eq2 vs enumeration "
        f"for n <= {ENUM_CAP} and vs the spt series")
def _thm3_parts(order):
    counted = min(order // 2, ENUM_CAP)
    yield (counted, lambda: lhs_eq2(order).extract(0, 2),
           lambda: _enumerated_series(partitions.spt, counted), 2)
    yield (order // 2, lambda: lhs_eq2(order).extract(0, 2),
           lambda: series._spt_series(order // 2), 2)


@_check("thm4", "congruence",
        "spt_o_minus(2n) == 0 (mod 2): series route for 2n <= order, "
        f"counting route for n <= {ENUM_CAP // 2}")
def _thm4_parts(order):
    counted = min(ENUM_CAP // 2, order // 2)
    yield order // 2, lambda: lhs_eq3(order).extract(0, 2), lambda: series.zero(order // 2), 2
    yield (counted, lambda: _enumerated_series(lambda n: partitions.spt_o_minus(2 * n), counted),
           lambda: series.zero(counted), 2)


@_check("thm5", "series-equality",
        "odd-exponent coefficients of lhs_eq2 and lhs_eq3 agree "
        "(spt_o_plus(2n+1) = spt_o_minus(2n+1))")
def _thm5_parts(order):
    yield ((order - 1) // 2, lambda: lhs_eq2(order).extract(1, 2),
           lambda: lhs_eq3(order).extract(1, 2))


@_check("eq13", "series-equality",
        "doubled spt_o_plus gf from the counting DP vs 2*(sigma series)/"
        "(q^2;q^2)_inf - sum N2(n) q^(2n) (desk scale)", cap=ENUM_CAP)
def _eq13_parts(order):
    yield (order, lambda: 2 * _enumerated_series(partitions.spt_o_plus, order),
           lambda: rhs_eq2_doubled(order))


@_check("eq14", "sequence-equality",
        "2 spt_o_plus(2n) = 2 sum_k p(k) sigma(2(n-k)) - N2(n) "
        f"for n <= {ENUM_CAP // 2}", cap=ENUM_CAP // 2)  # spt_o_plus(2n) is counted per n
def _eq14_parts(order):
    def rhs(n):
        conv = sum(
            partitions.p(k) * partitions.sigma(2 * (n - k)) for k in range(n + 1)
        )
        return 2 * conv - partitions.n2(n)

    yield (order, lambda: _enumerated_series(lambda n: 2 * partitions.spt_o_plus(2 * n), order),
           lambda: _enumerated_series(rhs, order))


@_check("eq23", "series-equality",
        "odd part of lhs_eq3 vs q (q^4;q^4)_inf^3/(q^2;q^4)_inf^5")
def _eq23_parts(order):
    yield ((order - 1) // 2, lambda: lhs_eq3(order).extract(1, 2),
           lambda: rhs_eq23(order).extract(1, 2))


@_check("m2_is_2np", "sequence-equality",
        f"M2(n) = 2 n p(n) (n capped at {ENUM_CAP})", cap=ENUM_CAP)
def _m2_is_2np_parts(order):
    yield (order, lambda: _enumerated_series(partitions.m2, order),
           lambda: _enumerated_series(lambda n: 2 * n * partitions.p(n), order))


@_check("spt_half_diff", "sequence-equality",
        f"2 spt(n) = M2(n) - N2(n) (n capped at {ENUM_CAP})", cap=ENUM_CAP)
def _spt_half_diff_parts(order):
    yield (order, lambda: _enumerated_series(lambda n: 2 * partitions.spt(n), order),
           lambda: _enumerated_series(lambda n: partitions.m2(n) - partitions.n2(n), order))


@_check("sigma_doubling", "sequence-equality",
        "sigma(2n) = 3 sigma(n) - 2 sigma(n/2), the last term only for even n")
def _sigma_doubling_parts(order):
    def rhs(n):
        return 3 * partitions.sigma(n) - (0 if n % 2 else 2 * partitions.sigma(n // 2))

    yield (order, lambda: _enumerated_series(lambda n: partitions.sigma(2 * n), order),
           lambda: _enumerated_series(rhs, order))


@_check("legendre_t4", "sequence-equality", "sigma(2n+1) = t4(n)")
def _legendre_t4_parts(order):
    yield (order, lambda: TruncatedSeries(partitions.sigma(2 * n + 1) for n in range(order + 1)),
           lambda: series._t4_series(order))


def _bailey_parts(label, order):
    yield order, lambda: check_bailey_relation(bailey_pair(label), BAILEY_N, order), None


def _eq12_parts(label, order):
    yield (order, lambda: eq12_lhs(bailey_pair(label), order),
           lambda: eq12_rhs(bailey_pair(label), order))


def _cong_parts(step, offset, modulus, order):
    """spt_o(2(step k + offset)) == 0 (mod modulus) for k = 0..k_max, the
    largest k with 2(step k + offset) <= order; no part below order 2 offset."""
    if order >= 2 * offset:
        k_max = (order - 2 * offset) // (2 * step)
        yield (k_max, lambda: lhs_gf_note(order).extract(2 * offset, 2 * step),
               lambda: series.zero(k_max), modulus)


_check("bailey_c1", "series-equality",
       "beta_n = sum_r alpha_r/((q;q)_(n+r) (q;q)_(n-r)) for pair C1, "
       f"n <= {BAILEY_N}")(partial(_bailey_parts, "C1"))
_check("bailey_c5", "series-equality",
       f"same summation relation for pair C5, n <= {BAILEY_N}")(partial(_bailey_parts, "C5"))
_check("eq12_c1", "series-equality",
       "sum (q;q)_(n-1)^2 beta_n q^n = Lambert + sum alpha_n q^n/(1-q^n)^2 "
       "for pair C1")(partial(_eq12_parts, "C1"))
_check("eq12_c5", "series-equality",
       "same differentiated-lemma identity for pair C5")(partial(_eq12_parts, "C5"))
_check("cong5", "congruence",
       "spt_o(2(5k+4)) == 0 (mod 5), series route")(partial(_cong_parts, 5, 4, 5))
_check("cong7", "congruence",
       "spt_o(2(7k+5)) == 0 (mod 7), series route")(partial(_cong_parts, 7, 5, 7))
_check("cong13", "congruence",
       "spt_o(2(13k+6)) == 0 (mod 13), series route")(partial(_cong_parts, 13, 6, 13))


@_check("termwise_eq2", "series-equality",
        "summandwise: differentiated-lemma terms over (q^2;q^2)_inf equal "
        f"the matching quotient summands (C1<->eq2, C5<->eq3), n <= {TERMWISE_N}")
def _termwise_parts(order):
    yield order, lambda: _termwise_mismatches(order), None


def verify(check_id: str, order: int) -> IdentityReport:
    """Run one registered check at the given order/bound, 1..MAX_ORDER."""
    if check_id not in REGISTRY:
        raise ValueError(
            f"unknown identity check {check_id!r}; known: {', '.join(REGISTRY)}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > partitions.MAX_ORDER:
        raise ValueError(f"order {order} is above the ceiling "
                         f"MAX_ORDER = {partitions.MAX_ORDER}")
    t0 = time.perf_counter()
    used, mismatches = REGISTRY[check_id].run(order)
    elapsed = time.perf_counter() - t0
    return IdentityReport(id=check_id, order=used, mismatch_total=len(mismatches),
                          mismatches=tuple(mismatches[:20]), elapsed=elapsed)


def verify_all(order: int) -> list[IdentityReport]:
    """Run every registered check, in registry order."""
    return [verify(check_id, order) for check_id in REGISTRY]
