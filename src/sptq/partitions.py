"""Integer partition enumeration and exact counting functions.

The per-n counting functions are the ground truth here, independent of the
generating-function machinery they are used to cross-check.  spt(n) and
N2(n) are literal sums over a listing of partitions; the crank moment and
the odd-condition smallest-part counts add and remove parts with the two
list kernels of ``series``, tested against the listing sums of ``crank``
and ``odd_condition``.  Only p(n) (pentagonal-number recurrence), sigma(n)
(divisor sums) and t4(n) use closed forms.

Tables are another matter: ``sequence`` reads every one of the nine off
its product side in ``series``, built once at order hi, and leaves the
per-n functions to the checks and tests that pin those series.

Each per-n statistic of n reads one field of row n of one table,
``_tables(top)`` with top = max(n, ENUM_CAP), through ``_statistics(n)``: one
walk over the partitions of top lists spt and N2 of every size up to top, and
one pass each over all sizes counts the bare crank moment and the finished
spt_o_plus and spt_o_minus.  A pair counted by spt_o_minus(n) is a partition
pi with smallest part s plus the staircase (s-1, ..., 1), which s fixes, so
that pass adds its count at s into spt_o_minus s(s-1)/2 sizes up.

Partitions are plain weakly decreasing tuples of positive ints; n = 0 has
exactly the empty partition.  Enumeration order is lexicographically
decreasing, e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  The walk is the
iterative ZS1 algorithm: O(1) amortized steps per partition plus the tuple
copy, about 2 ms for the 5,604 partitions of 30 on one core of a 2-vCPU
machine; ``_tables(30)`` takes about 5 ms, 4 ms of it that walk with the sums
it makes per partition.  ``rank``, ``crank`` and ``odd_condition`` rely on the
decreasing order (the parts above a bound form a prefix, which ``crank``
and ``odd_condition`` find by bisection), so they take only such tuples.
"""

import math
from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache
from operator import add, neg

from . import series

Partition = tuple[int, ...]
ENUM_CAP = 30  # the per-size statistics of every n <= ENUM_CAP come from one listing
STATISTICS_CAP = 70  # _tables(70) lists p(70) = 4,087,968 partitions; p(n + 10) ~ 4 p(n)
# largest order the library builds for ``sequence`` and ``identities.verify``,
# and so the largest ``compute --hi`` and ``verify --order``: every route is
# polynomial, but grows about x4 per doubling (verify --all: 1.9-2.5 s at order
# 4000, 7.9-10.5 s at 10 000, on a shared 2-vCPU machine), so far past this a
# run takes hours
MAX_ORDER = 10_000


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, lexicographically decreasing.

    Iterative ZS1 walk (Zoghbi and Stojmenovic, 1998): ``x[:m]`` is the
    current partition, every entry past ``h`` is 1, and each step splits the
    last part above 1 into copies of one less plus a remainder.  That is
    O(1) amortized per partition, plus the tuple copy.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0  # length of the partition; index of its last part above 1
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


# ----------------------------------------------------------------------
# statistics of a single partition
# ----------------------------------------------------------------------


def _require_nonempty(parts: Partition):
    if not parts:
        raise ValueError("statistic undefined for the empty partition")


def rank(parts: Partition) -> int:
    """Largest part minus number of parts."""
    _require_nonempty(parts)
    return parts[0] - len(parts)


def crank(parts: Partition) -> int:
    """Largest part when there are no 1's; otherwise mu - omega, where
    omega counts the 1's and mu counts the parts larger than omega.

    ``parts`` must be weakly decreasing, as ``rank`` also assumes: the parts
    larger than omega are then a prefix, found by bisection.
    """
    _require_nonempty(parts)
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    mu = bisect_left(parts, -ones, key=neg)
    return mu - ones


def odd_condition(parts: Partition) -> bool:
    """True when no part is both odd and larger than twice the smallest part.

    ``parts`` must be weakly decreasing, as ``rank`` also assumes: the parts
    above twice the smallest are then a prefix, found by bisection.
    """
    _require_nonempty(parts)
    above = bisect_left(parts, -2 * parts[-1], key=neg)
    return not any(map((1).__and__, parts[:above]))


# ----------------------------------------------------------------------
# counting functions
# ----------------------------------------------------------------------


def _partition_counts(n: int) -> list[int]:
    """[p(0), ..., p(n)] by the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = [1]
    for m in range(1, n + 1):
        acc = 0
        j = 1
        while (g := j * (3 * j - 1) // 2) <= m:
            term = table[m - g]
            if g + j <= m:
                term += table[m - g - j]
            acc += term if j % 2 else -term
            j += 1
        table.append(acc)
    return table


def p(n: int) -> int:
    """Number of partitions of n, via the pentagonal-number recurrence."""
    return _partition_counts(n)[-1]


def sigma(n: int) -> int:
    """Sum of the positive divisors of n, with sigma(0) = 0.

    The zero convention keeps convolutions like sum_k p(k) sigma(2(n-k))
    honest as full convolutions: the k = n term contributes nothing.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d * d != n:
                total += n // d
    return total


def _crank_moments(top: int) -> list[int]:
    """Indexed by m, the sum of crank(pi)^2 over the partitions pi of m (1 at
    m = 1), for every m <= top in one pass down omega = top..1.  ``low``
    counts the partitions into parts in [2, omega], and y0, y1, y2 sum mu^0,
    mu^1, mu^2 over those into parts >= 2, mu being their number of parts >
    omega.  With omega ones the crank is mu - omega, so the rest adds (y2 -
    2 omega y1 + omega^2 y0)(m - omega).  Without ones, largest part L, the
    crank is L and the rest is a partition of m - L into parts in [2, L].  y0
    never moves: part omega only passes from the uncounted to the counted."""
    low = [1] + [0] * top
    for part in range(2, top + 1):
        series._over_one_minus_into(low, part)
    y0, y1, y2 = low[:], [0] * (top + 1), [0] * (top + 1)
    total = [0] * (top + 1)
    for omega in range(top, 0, -1):
        for r in range(top - omega + 1):
            total[omega + r] += y2[r] - 2 * omega * y1[r] + omega * omega * y0[r]
        if omega > 1:
            for r in range(top - omega + 1):
                total[omega + r] += omega * omega * low[r]
            series._times_one_minus_into(low, omega)
        series._times_one_minus_into(y1, omega)
        series._times_one_minus_into(y2, omega)
        for m in range(omega, top + 1):  # count parts of size omega in mu
            y2[m] += y2[m - omega] + 2 * y1[m - omega] + y0[m - omega]
            y1[m] += y1[m - omega] + y0[m - omega]
    return total


def _odd_smallest_parts(top: int) -> tuple[list[int], list[int]]:
    """spt_o_plus(m) and spt_o_minus(m) for m = 0..top, the q^m coefficients
    of the eq. (2) and (3) sums in product form, so no check may compare
    ``lhs_eq2`` or ``lhs_eq3`` with them.  The smallest parts s over the
    odd-condition partitions of m count sum_k k R_s(m - ks), the q^m
    coefficient of R_s q^s/(1-q^s)^2, where ``rest`` = R_s counts the
    partitions into parts in (s, 2s] or even parts > 2s.  R_1 allows the even
    parts; R_(s+1) is R_s without s + 1, with 2s + 1.  That column adds into
    spt_o_plus from m = s on and, joined to the staircase (s-1, ..., 1), into
    spt_o_minus from m = s(s+1)/2 on."""
    rest = [1] + [0] * top
    for part in range(2, top + 1, 2):
        series._over_one_minus_into(rest, part)
    plus, minus = [0] * (top + 1), [0] * (top + 1)
    for s in range(1, top + 1):
        column = [0] * s + rest[: top + 1 - s]
        series._over_one_minus_into(column, s)
        series._over_one_minus_into(column, s)
        plus[s:] = map(add, plus[s:], column[s:])
        minus[s * (s + 1) // 2 :] = map(add, minus[s * (s + 1) // 2 :], column[s:])
        series._times_one_minus_into(rest, s + 1)
        series._over_one_minus_into(rest, 2 * s + 1)
    return plus, minus


@lru_cache(maxsize=None)
def _tables(top: int) -> tuple:
    """The per-size statistics of every m = 1..top, indexed by m.  One walk over
    the partitions of top gives spt and N2 of every m: taking r <= t of the t
    ones off a partition rho of top leaves a partition of top - r with rank
    rank(rho) + r whose smallest parts are the t - r ones left or, at r = t,
    the least part of rho above 1, and each partition of each m <= top arises
    so once.  Per t the walk sums the count, rank, rank^2 and that multiplicity."""
    count, rank1, rank2, above = ([0] * (top + 1) for _ in range(4))
    for pi in enumerate_partitions(top):
        t, r = pi.count(1), pi[0] - len(pi)
        count[t], rank1[t], rank2[t] = count[t] + 1, rank1[t] + r, rank2[t] + r * r
        if t < len(pi):
            above[t] += pi.count(pi[-t - 1])
    cranks, (plus, minus) = _crank_moments(top), _odd_smallest_parts(top)
    tables = [None] * (top + 1)
    c = ct = s1 = s2 = 0  # over t >= r: count, t count, rank, rank^2
    for r in range(top, -1, -1):  # the t = r term of the spt sum is 0
        c, ct, s1, s2 = c + count[r], ct + r * count[r], s1 + rank1[r], s2 + rank2[r]
        if r < top:  # m = top - r
            tables[top - r] = (ct - r * c + above[r], s2 + 2 * r * s1 + r * r * c,
                               cranks[top - r], plus[top - r], minus[top - r])
    return tuple(tables)


def _statistics(n: int) -> tuple:
    """_tables(max(n, ENUM_CAP)), whose row m holds the finished spt(m), N2(m),
    bare crank moment of m (1 at m = 1), spt_o_plus(m) and spt_o_minus(m);
    ValueError at once unless 1 <= n <= STATISTICS_CAP."""
    if not 1 <= n <= STATISTICS_CAP:
        raise ValueError(f"n must be >= 1 and <= STATISTICS_CAP = {STATISTICS_CAP}")
    return _tables(max(n, ENUM_CAP))


def spt(n: int) -> int:
    """Total number of smallest parts over all partitions of n."""
    return _statistics(n)[n][0]


def n2(n: int) -> int:
    """Second rank moment: sum of rank(pi)^2 over partitions of n."""
    return _statistics(n)[n][1]


def m2(n: int) -> int:
    """Second crank moment: sum of crank(pi)^2 over partitions of n.

    m2(1) is 2 by convention, not the 1 the bare crank of (1) would give:
    the moment relation M2(n) = 2 n p(n) is only an identity with the
    standard adjusted crank counts at n = 1.
    """
    return 2 if n == 1 else _statistics(n)[n][2]


def spt_o_plus(n: int) -> int:
    """Smallest-part count over partitions of n satisfying the odd condition."""
    return _statistics(n)[n][3]


def spt_o_minus(n: int) -> int:
    """Smallest-part count over pairs (pi, delta_s) of total size n, where
    pi satisfies the odd condition, s is its smallest part and delta_s is
    the staircase (s-1, ..., 1) of size s(s-1)/2."""
    return _statistics(n)[n][4]


def spt_o(n: int) -> int:
    """spt_o_plus(n) - spt_o_minus(n)."""
    return spt_o_plus(n) - spt_o_minus(n)


def t4(n: int) -> int:
    """Ordered quadruples of triangular numbers (zero allowed) summing to n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    tri = []
    a = 0
    while a * (a + 1) // 2 <= n:
        tri.append(a * (a + 1) // 2)
        a += 1
    pairs = [0] * (n + 1)
    for x in tri:
        for y in tri:
            if x + y <= n:
                pairs[x + y] += 1
    return sum(pairs[m] * pairs[n - m] for m in range(n + 1))


# ----------------------------------------------------------------------
# named sequences
# ----------------------------------------------------------------------


# name -> (name of its generating-series builder in ``series``, smallest n)
_SEQUENCES: dict[str, tuple[str, int]] = {
    "p": ("_p_series", 0),
    "sigma": ("lambert_sigma", 0),
    "spt": ("_spt_series", 1),
    "spt_o_plus": ("_spt_o_plus_series", 1),
    "spt_o_minus": ("_spt_o_minus_series", 1),
    "spt_o": ("_spt_o_series", 1),
    "n2": ("_n2_series", 1),
    "m2": ("_m2_series", 1),
    "t4": ("_t4_series", 0),
}


def sequence_ids() -> tuple[str, ...]:
    return tuple(_SEQUENCES)


def sequence_domain_min(name: str) -> int:
    if name not in _SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}; known: {', '.join(_SEQUENCES)}")
    return _SEQUENCES[name][1]


def check_range(name: str, lo: int, hi: int) -> None:
    """ValueError unless lo..hi is non-empty, inside the domain of ``name``
    and no higher than MAX_ORDER."""
    if lo > hi:
        raise ValueError(f"empty range {lo}..{hi}")
    lo_min = sequence_domain_min(name)
    if lo < lo_min:
        raise ValueError(f"sequence {name!r} is defined for n >= {lo_min}")
    if hi > MAX_ORDER:
        raise ValueError(f"hi {hi} is above the ceiling MAX_ORDER = {MAX_ORDER}")


def sequence(name: str, lo: int, hi: int) -> tuple[int, ...]:
    """Values of a registered sequence on the inclusive range lo..hi:
    coefficients lo..hi of its product side in ``series``, built at order hi.

    Tests pin every series to the per-n function of the same name.
    """
    check_range(name, lo, hi)
    return getattr(series, _SEQUENCES[name][0])(hi).coeffs[lo : hi + 1]
