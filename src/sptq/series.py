"""Exact truncated formal power series over the integers.

A :class:`TruncatedSeries` stores the coefficients c_0..c_N of a power
series in q known modulo q^(N+1).  All arithmetic is plain ``int``
arithmetic: no floats, no rationals, no rounding anywhere.  Binary
operations between series of different orders return the smaller order,
which is the largest truncation both operands actually know.  The product
sides at the end serve ``compute`` every named sequence without ``identities``.
"""

import itertools
import math
import operator
from functools import lru_cache


class _DataclassFields:
    """Built on first read, then kept on the class: ``dataclasses.replace`` reads it."""

    def __get__(self, value, cls):
        if not cls.__slots__:  # the base: no fields, and the descriptor stays
            raise AttributeError("__dataclass_fields__")
        from dataclasses import make_dataclass
        fields = make_dataclass(cls.__name__, cls.__slots__).__dataclass_fields__
        cls.__dataclass_fields__ = fields  # in the class's own dict: built once
        return fields


class _FrozenSlots:
    """Frozen-dataclass behaviour over the fields in ``__slots__``, without
    importing ``dataclasses``, which would slow every command's start."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, *args, **kwargs):
        """Take each field once, by position or by name, as a dataclass does."""
        names = self.__slots__
        given = dict(zip(names, args), **kwargs)  # counted below: none is doubled
        if len(args) + len(kwargs) != len(names) or given.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}() takes each of "
                            f"{', '.join(names)} once, by position or by name")
        for name in names:
            object.__setattr__(self, name, given[name])

    def __repr__(self):
        pairs = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle: rebuild through __init__
        return self.__class__, self._fields()


def _times_one_minus_into(c: list, m: int) -> None:
    """Multiply the coefficient list ``c`` by (1 - q^m) in place, m >= 1."""
    c[m:] = map(operator.sub, c[m:], c)


def _over_one_minus_into(c: list, m: int) -> None:
    """Divide ``c`` by (1 - q^m) in place: per residue mod m, or by blocks of m."""
    if m * m < len(c):  # residue classes longer than m: one running sum each
        for r in range(m):
            c[r::m] = itertools.accumulate(c[r::m])
    else:  # few short classes: add the block of m below, one block at a time
        for i in range(m, len(c), m):
            c[i:i + m] = map(operator.add, c[i:i + m], c[i - m:i])


class TruncatedSeries(_FrozenSlots):
    """Immutable series prefix: ``coeffs[k]`` is the coefficient of q^k."""

    __slots__ = ("coeffs",)  # a non-empty tuple of ints

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)  # the same object when it is a tuple already
        if len(coeffs) == 0:
            raise ValueError("series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

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

    def __truediv__(self, other):
        """Quotient modulo q^(n+1), n the smaller order, by forward
        substitution over the divisor's nonzero coefficients: O(n x nonzeros),
        so O(n^1.5) for a pentagonal-sparse divisor.

        Over the integers only a divisor with constant term +1 or -1 divides
        every series; anything else raises ValueError.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        c0 = other.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(
                "series is not invertible over the integers "
                f"(constant term {c0}, must be +1 or -1)"
            )
        n = min(self.order, other.order)
        terms = [(j, b) for j, b in enumerate(other.coeffs[1 : n + 1], 1) if b]
        out = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j, b in terms:
                if j > k:
                    break
                acc -= b * out[k - j]
            out.append(c0 * acc)
        return TruncatedSeries(tuple(out))

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo q^(order+1): ``one / self``, so only
        series with constant term +1 or -1 are invertible."""
        return one(self.order) / self

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
        c = list(self.coeffs)
        _times_one_minus_into(c, exp)
        return TruncatedSeries(c)

    def divided_by_one_minus(self, exp: int) -> "TruncatedSeries":
        """Divide by (1 - q^exp), i.e. multiply by 1 + q^exp + q^(2 exp) + ..."""
        if exp < 1:
            raise ValueError("exponent must be >= 1")
        c = list(self.coeffs)
        _over_one_minus_into(c, exp)
        return TruncatedSeries(c)


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

    (q^k;q^k)_inf is Euler's pentagonal series sum_j (-1)^j q^(k j(3j-1)/2)
    over |j| <= isqrt(order), as j(3j-1)/2 >= j^2: O(order), no single-factor
    step.  Any other product multiplies in its factors (1 - q^e) with e <=
    order, one O(order) step each; the omitted ones are 1 modulo q^(order+1).
    """
    if start < 1 or step < 1:
        raise ValueError("start and step must be >= 1")
    if start == step:
        _check_order(order)
        signs = {step * (j * (3 * j - 1) // 2): 1 - 2 * (j % 2)
                 for j in range(-math.isqrt(order), math.isqrt(order) + 1)}
        return TruncatedSeries(tuple(signs.get(e, 0) for e in range(order + 1)))
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


@lru_cache(maxsize=None)
def _quotient(order: int, numerator, step: int) -> TruncatedSeries:
    """numerator(order) at step 0, else its quotient by (q^step;q^step)_inf,
    one sparse division of the step-0 entry: the library's one memo of
    series, keyed by what it builds, so each numerator must hash by value."""
    if not step:
        return numerator(order)
    return _quotient(order, numerator, 0) / qpoch_inf(step, step, order)


def _p_series(order: int) -> TruncatedSeries:
    """sum p(n) q^n = 1/qpoch_inf(1, 1, order), one sparse division by Euler's
    series, so the pentagonal recurrence of ``partitions.p`` stays independent."""
    return _quotient(order, one, 1)


def _psi_series(order: int) -> TruncatedSeries:
    """psi(q) = sum_{k>=0} q^(k(k+1)/2) = (q^2;q^2)_inf/(q;q^2)_inf (Gauss)."""
    triangular = {k * (k + 1) // 2 for k in range(order + 1)}
    return TruncatedSeries(tuple(int(e in triangular) for e in range(order + 1)))


def _t4_series(order: int) -> TruncatedSeries:
    """psi^4: q^n counts the ordered quadruples of triangular numbers summing to n."""
    return _psi_series(order) ** 4


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


def _n2_series(order: int) -> TruncatedSeries:
    """-2 * theta correction / (q;q)_inf: the rank moment N2(n) at q^n."""
    return -2 * _quotient(order, _theta_correction, 1)


def _np_series(order: int) -> TruncatedSeries:
    """sum n p(n) q^n, half the crank moments: M2(n) = 2 n p(n)."""
    return TruncatedSeries(tuple(n * c for n, c in enumerate(_p_series(order).coeffs)))


def _m2_series(order: int) -> TruncatedSeries:
    """sum 2 n p(n) q^n, whose q^n coefficient is the crank moment M2(n)."""
    return 2 * _np_series(order)


def _spt_series(order: int) -> TruncatedSeries:
    """sum n p(n) q^n + theta/(q;q)_inf: spt(n) = n p(n) - N2(n)/2 (Andrews 2008)."""
    return _np_series(order) + _quotient(order, _theta_correction, 1)


def _spt_o_plus_series(order: int) -> TruncatedSeries:
    """Lambert/(q^2;q^2)_inf - N2(n)/2 at q^(2n): spt_o_plus by eq. (2)."""
    moments = _quotient(order // 2, _theta_correction, 1).stretched(2).truncate(order)
    return _quotient(order, lambert_sigma, 2) + moments


def _spt_o_minus_series(order: int) -> TruncatedSeries:
    """Lambert/(q^2;q^2)_inf - M2(n)/2 at q^(2n): spt_o_minus by eq. (3)."""
    moments = _np_series(order // 2).stretched(2).truncate(order)
    return _quotient(order, lambert_sigma, 2) - moments


def _spt_o_series(order: int) -> TruncatedSeries:
    """spt(n) at q^(2n): spt_o(2n) = spt(n) and spt_o(2n+1) = 0 (Theorems 2, 5)."""
    return _spt_series(order // 2).stretched(2).truncate(order)
