"""Integer partition enumeration and exact counting functions.

Enumeration is the ground truth here: rank/crank second moments and all
smallest-part counts are literal sums over every partition of n, so they
stay independent of the generating-function machinery they are used to
cross-check.  Only p(n) (pentagonal-number recurrence) and sigma(n)
(divisor sums) use closed forms, so that series work can run far past
enumeration scale.

Partitions are plain weakly decreasing tuples of positive ints; n = 0 has
exactly the empty partition.  Enumeration order is lexicographically
decreasing, e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
"""

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

Partition = tuple[int, ...]


class PartitionPair(NamedTuple):
    """A non-empty partition together with its forced triangular companion.

    ``delta_index`` always equals the smallest part s of ``pi``; the
    companion is the staircase (s-1, s-2, ..., 1), which adds s(s-1)/2 to
    the total size and contains every part below s exactly once.
    """

    pi: Partition
    delta_index: int


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, lexicographically decreasing."""
    if n < 0:
        raise ValueError("n must be >= 0")
    prefix: list[int] = []

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part)
            prefix.pop()

    yield from rec(n, n)


def partition_pairs(n: int) -> Iterator[PartitionPair]:
    """Yield every PartitionPair of total size n.

    The smallest part s of pi determines the companion, so the pairs of
    size n are exactly: for each s with s + s(s-1)/2 <= n, the partitions
    of n - s(s-1)/2 whose smallest part is s.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = 1
    while s + s * (s - 1) // 2 <= n:
        rest = n - s * (s - 1) // 2
        for pi in enumerate_partitions(rest):
            if pi and pi[-1] == s:
                yield PartitionPair(pi, s)
        s += 1


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
    omega counts the 1's and mu counts the parts larger than omega."""
    _require_nonempty(parts)
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    mu = sum(1 for x in parts if x > ones)
    return mu - ones


def odd_condition(parts: Partition) -> bool:
    """True when no part is both odd and larger than twice the smallest part."""
    _require_nonempty(parts)
    bound = 2 * parts[-1]
    return all(x % 2 == 0 or x <= bound for x in parts)


# ----------------------------------------------------------------------
# counting functions
# ----------------------------------------------------------------------

_p_table = [1]
_p_lock = threading.Lock()


def p(n: int) -> int:
    """Number of partitions of n, via the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_p_table):
        with _p_lock:
            while len(_p_table) <= n:
                m = len(_p_table)
                acc = 0
                j = 1
                while True:
                    g = j * (3 * j - 1) // 2
                    if g > m:
                        break
                    term = _p_table[m - g]
                    if g + j <= m:
                        term += _p_table[m - g - j]
                    acc += term if j % 2 else -term
                    j += 1
                _p_table.append(acc)
    return _p_table[n]


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


@lru_cache(maxsize=None)
def spt(n: int) -> int:
    """Total number of smallest parts over all partitions of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(pi.count(pi[-1]) for pi in enumerate_partitions(n))


@lru_cache(maxsize=None)
def n2(n: int) -> int:
    """Second rank moment: sum of rank(pi)^2 over partitions of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(rank(pi) ** 2 for pi in enumerate_partitions(n))


@lru_cache(maxsize=None)
def m2(n: int) -> int:
    """Second crank moment: sum of crank(pi)^2 over partitions of n.

    m2(1) is 2 by convention, not the 1 the bare crank of (1) would give:
    the moment relation M2(n) = 2 n p(n) is only an identity with the
    standard adjusted crank counts at n = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 2
    return sum(crank(pi) ** 2 for pi in enumerate_partitions(n))


@lru_cache(maxsize=None)
def spt_o_plus(n: int) -> int:
    """Smallest-part count over partitions of n satisfying the odd condition."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(
        pi.count(pi[-1])
        for pi in enumerate_partitions(n)
        if odd_condition(pi)
    )


@lru_cache(maxsize=None)
def spt_o_minus(n: int) -> int:
    """Smallest-part count over partition pairs of total size n whose
    partition component satisfies the odd condition."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(
        pair.pi.count(pair.delta_index)
        for pair in partition_pairs(n)
        if odd_condition(pair.pi)
    )


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


@dataclass(frozen=True)
class SequenceTable:
    """Inclusive slice of one named sequence."""

    name: str
    lo: int
    hi: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.hi - self.lo + 1:
            raise ValueError("value count does not match the index range")


_SEQUENCES: dict[str, tuple[Callable[[int], int], int]] = {
    "p": (p, 0),
    "sigma": (sigma, 0),
    "spt": (spt, 1),
    "spt_o_plus": (spt_o_plus, 1),
    "spt_o_minus": (spt_o_minus, 1),
    "spt_o": (spt_o, 1),
    "n2": (n2, 1),
    "m2": (m2, 1),
    "t4": (t4, 0),
}


def sequence_ids() -> tuple[str, ...]:
    return tuple(_SEQUENCES)


def sequence_domain_min(name: str) -> int:
    if name not in _SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}")
    return _SEQUENCES[name][1]


def sequence(name: str, lo: int, hi: int) -> SequenceTable:
    """Table of values of a registered sequence on the inclusive range lo..hi."""
    if name not in _SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}; known: {', '.join(_SEQUENCES)}")
    fn, lo_min = _SEQUENCES[name]
    if lo > hi:
        raise ValueError(f"empty range {lo}..{hi}")
    if lo < lo_min:
        raise ValueError(f"sequence {name!r} is defined for n >= {lo_min}")
    return SequenceTable(name, lo, hi, tuple(fn(k) for k in range(lo, hi + 1)))
