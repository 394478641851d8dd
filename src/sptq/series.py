"""Exact truncated formal power series over the integers.

A :class:`TruncatedSeries` stores the coefficients c_0..c_N of a power
series in q known modulo q^(N+1).  All arithmetic is plain ``int``
arithmetic: no floats, no rationals, no rounding anywhere.  Binary
operations between series of different orders return the smaller order,
which is the largest truncation both operands actually know.
"""

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class TruncatedSeries:
    """Immutable series prefix: ``coeffs[k]`` is the coefficient of q^k."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("series needs at least its constant coefficient")

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Truncation order N: coefficients are known for exponents 0..N."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        """Coefficient of q^k.

        Asking past the truncation order raises IndexError rather than
        returning zero, so an under-truncated identity check fails loudly
        instead of comparing fabricated zeros.
        """
        if not 0 <= k <= self.order:
            raise IndexError(
                f"coefficient of q^{k} unknown at truncation order {self.order}"
            )
        return self.coeffs[k]

    __getitem__ = coeff

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above ``order`` (which must already be known)."""
        if not 0 <= order <= self.order:
            raise ValueError(
                f"cannot truncate order-{self.order} series to order {order}"
            )
        return TruncatedSeries(self.coeffs[: order + 1])

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries([{head}{tail}] order={self.order})"

    # ------------------------------------------------------------------
    # ring arithmetic (min-order truncation on binary ops)
    # ------------------------------------------------------------------

    # map stops at the shorter operand, which is the min-order contract
    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedSeries(tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(tuple(map(other.__mul__, self.coeffs)))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # schoolbook convolution, walking the sparser factor (more zeros) outside;
        # the strided series this library lives on make the skip worthwhile
        if b[: n + 1].count(0) > a[: n + 1].count(0):
            a, b = b, a
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return TruncatedSeries(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers must have non-negative int exponents")
        result = one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo q^(order+1).

        Over the integers only series with constant term +1 or -1 are
        invertible; anything else raises ValueError.
        """
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(
                "series is not invertible over the integers "
                f"(constant term {c0}, must be +1 or -1)"
            )
        n = self.order
        a = self.coeffs
        inv = [c0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                aj = a[j]
                if aj:
                    acc += aj * inv[k - j]
            inv[k] = -c0 * acc
        return TruncatedSeries(tuple(inv))

    # ------------------------------------------------------------------
    # exponent surgery
    # ------------------------------------------------------------------

    def extract(self, residue: int, modulus: int) -> "TruncatedSeries":
        """Arithmetic-progression slice: coefficient k of the result is the
        coefficient of q^(modulus*k + residue) here."""
        if modulus < 1 or not 0 <= residue < modulus:
            raise ValueError("need modulus >= 1 and 0 <= residue < modulus")
        if self.order < residue:
            raise ValueError(
                f"no exponent == {residue} (mod {modulus}) within order {self.order}"
            )
        return TruncatedSeries(tuple(self.coeffs[residue :: modulus]))

    def stretched(self, m: int) -> "TruncatedSeries":
        """Substitute q^m for q, the inverse of ``extract(0, m)``: an order-N
        series becomes one of order m(N+1) - 1, all that is then known."""
        if m < 1:
            raise ValueError("need m >= 1")
        c = [0] * (m * len(self.coeffs))
        c[::m] = self.coeffs
        return TruncatedSeries(tuple(c))

    # ------------------------------------------------------------------
    # cheap single-factor updates, all O(order)
    # ------------------------------------------------------------------

    def shifted(self, exp: int) -> "TruncatedSeries":
        """Multiply by q^exp: exp leading zeros, then the prefix that still fits."""
        if exp < 0:
            raise ValueError("exponent must be >= 0")
        zeros = min(exp, self.order + 1)
        return TruncatedSeries((0,) * zeros + self.coeffs[: self.order + 1 - zeros])

    def times_one_minus(self, exp: int) -> "TruncatedSeries":
        """Multiply by (1 - q^exp)."""
        if exp < 1:
            raise ValueError("exponent must be >= 1")
        c = self.coeffs
        return TruncatedSeries(c[:exp] + tuple(map(operator.sub, c[exp:], c)))

    def divided_by_one_minus(self, exp: int) -> "TruncatedSeries":
        """Divide by (1 - q^exp), i.e. multiply by 1 + q^exp + q^(2 exp) + ..."""
        if exp < 1:
            raise ValueError("exponent must be >= 1")
        c = list(self.coeffs)
        for k in range(exp, self.order + 1):
            c[k] += c[k - exp]
        return TruncatedSeries(tuple(c))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _check_order(order: int):
    if order < 0:
        raise ValueError("truncation order must be >= 0")


def zero(order: int) -> TruncatedSeries:
    _check_order(order)
    return TruncatedSeries((0,) * (order + 1))


def one(order: int) -> TruncatedSeries:
    return monomial(0, 1, order)


def monomial(exp: int, coeff: int, order: int) -> TruncatedSeries:
    """coeff * q^exp, truncated; an exponent past the order leaves zero."""
    _check_order(order)
    if exp < 0:
        raise ValueError("exponent must be >= 0")
    c = [0] * (order + 1)
    if exp <= order:
        c[exp] = coeff
    return TruncatedSeries(tuple(c))


def qpoch_inf(start: int, step: int, order: int) -> TruncatedSeries:
    """Infinite q-Pochhammer product (q^start; q^step)_inf.

    Only factors (1 - q^e) with e <= order are multiplied in; the omitted
    ones are congruent to 1 modulo q^(order+1), so the result equals the
    infinite product at this truncation.
    """
    if start < 1 or step < 1:
        raise ValueError("start and step must be >= 1")
    return qpoch_fin(start, step, max(0, (order - start) // step + 1), order)


def qpoch_fin(start: int, step: int, count: int, order: int) -> TruncatedSeries:
    """Finite q-Pochhammer product of ``count`` factors (1 - q^(start + j*step))."""
    _check_order(order)
    if start < 1 or step < 1:
        raise ValueError("start and step must be >= 1")
    if count < 0:
        raise ValueError("factor count must be >= 0")
    out = one(order)
    for e in range(start, min(start + count * step, order + 1), step):
        out = out.times_one_minus(e)
    return out


def lambert_sigma(order: int) -> TruncatedSeries:
    """Lambert series sum_{n>=1} n q^n/(1-q^n); coefficient of q^k is sigma(k)."""
    _check_order(order)
    c = [0] * (order + 1)
    for n in range(1, order + 1):
        for k in range(n, order + 1, n):
            c[k] += n
    return TruncatedSeries(tuple(c))


def geom_sq(part: int, order: int) -> TruncatedSeries:
    """q^part/(1-q^part)^2 = sum_{k>=1} k q^(k*part)."""
    _check_order(order)
    if part < 1:
        raise ValueError("part size must be >= 1")
    ramp = TruncatedSeries(tuple(range(order // part + 1)))  # sum k q^k
    return ramp.stretched(part).truncate(order)
