"""Exact arithmetic in the nine imaginary quadratic rings of class number 1.

Elements are written a + b*omega where omega = i*sqrt(d) for d = 1, 2 and
omega = (1 + i*sqrt(d))/2 for the seven d = 3 mod 4 values.  Plane points
(x, y) stand for the complex number x + y*sqrt(d)*i, so every sign predicate
below is exact rational arithmetic.

Every ring formula is written once, from omega's minimal polynomial
X^2 - tr*X + nm (tr = `trace_omega`, nm = `norm_omega`): the product uses
omega^2 = tr*omega - nm, conj(omega) = tr - omega, and the norm form is
a^2 + tr*a*b + nm*b^2.  `Field.case` is only the denominator of the affix,
omega = (tr + i*sqrt(d))/case.

The element <-> plane-point map lives here alone, in integers: `QuadInt.affix`
and its inverse `from_affix`.  `plane` and `PlanePoint` are rational views of
it, kept for callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .errors import BothZero, CheckFailed, DivByZero, FieldMismatch, ZeroInput, check

HEEGNER_DS = (1, 2, 3, 7, 11, 19, 43, 67, 163)


@dataclass(frozen=True)
class Field:
    d: int

    def __post_init__(self):
        if self.d not in HEEGNER_DS:
            raise ValueError(f"d must be one of {HEEGNER_DS}, got {self.d}")

    @cached_property
    def case(self) -> int:
        # the denominator of the affix: omega = (trace_omega + i*sqrt(d))/case
        return 1 if self.d % 4 in (1, 2) else 2

    @cached_property
    def trace_omega(self) -> int:
        return self.case - 1

    @cached_property
    def norm_omega(self) -> int:
        return (self.d + self.trace_omega) // self.case**2

    @cached_property
    def discriminant(self) -> int:
        return self.trace_omega**2 - 4 * self.norm_omega

    @cached_property
    def sigma(self) -> int:
        return len(self.units)

    @cached_property
    def units(self) -> tuple[QuadInt, ...]:
        # the powers of one generator: omega when it is a unit (d = 1, 3), else -1
        gen = self.omega if self.norm_omega == 1 else -self.one
        out = [self.one]
        while (u := out[-1] * gen) != self.one:
            out.append(u)
        return tuple(out)

    @cached_property
    def omega(self) -> QuadInt:
        return QuadInt(self, 0, 1)

    @cached_property
    def one(self) -> QuadInt:
        return QuadInt(self, 1, 0)

    @cached_property
    def zero(self) -> QuadInt:
        return QuadInt(self, 0, 0)

    def __repr__(self):
        return f"Field(d={self.d})"


@cache
def field(d: int) -> Field:
    return Field(d)


def same_field(x, y):
    """Raise FieldMismatch unless x and y live over the same field."""
    if x.field.d != y.field.d:
        raise FieldMismatch(f"d={x.field.d} vs d={y.field.d}")


@dataclass(frozen=True)
class QuadInt:
    field: Field
    a: int
    b: int

    def __add__(self, other: QuadInt) -> QuadInt:
        same_field(self, other)
        return QuadInt(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: QuadInt) -> QuadInt:
        same_field(self, other)
        return QuadInt(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> QuadInt:
        return QuadInt(self.field, -self.a, -self.b)

    def __mul__(self, other) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(self.field, self.a * other, self.b * other)
        same_field(self, other)
        f = self.field
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        bb = b1 * b2
        return QuadInt(f, a1 * a2 - f.norm_omega * bb, a1 * b2 + a2 * b1 + f.trace_omega * bb)

    __rmul__ = __mul__

    def norm(self) -> int:
        return _norm_form(self.field, self.a, self.b)

    def trace(self) -> int:
        return 2 * self.a + self.field.trace_omega * self.b

    def conj(self) -> QuadInt:
        return QuadInt(self.field, self.a + self.field.trace_omega * self.b, -self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def affix(self) -> tuple[int, int]:
        """The plane point (x, y), meaning x + y*sqrt(d)*i, as integers over `field.case`."""
        return self.field.case * self.a + self.field.trace_omega * self.b, self.b

    def plane(self) -> PlanePoint:
        """The rational view of `affix`, kept for callers that read plane points."""
        x, y = self.affix()
        c = self.field.case
        return PlanePoint(Fraction(x, c), Fraction(y, c))

    def in_sector(self) -> bool:
        # argument in [0, 2*pi/sigma); exact, see canonical_unit_rep
        if self.field.sigma == 2:
            return self.b > 0 or (self.b == 0 and self.a > 0)
        return self.a > 0 and self.b >= 0

    def __repr__(self):
        return f"QuadInt(d={self.field.d}, {self.a}, {self.b})"


def canonical_unit_rep(x: QuadInt) -> QuadInt:
    if x.is_zero():
        raise ZeroInput("canonical_unit_rep(0)")
    for u in x.field.units:
        y = u * x
        if y.in_sector():
            return y
    raise CheckFailed("no unit image in sector")  # unreachable


@dataclass(frozen=True)
class QuadRat:
    """num/den in lowest terms, den > 0."""

    num: QuadInt
    den: int

    @staticmethod
    def make(num: QuadInt, den: int) -> QuadRat:
        if den == 0:
            raise DivByZero("QuadRat with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.a, num.b, den)
        if g > 1:
            num = QuadInt(num.field, num.a // g, num.b // g)
            den //= g
        return QuadRat(num, den)

    @staticmethod
    def from_int(f: Field, n: int) -> QuadRat:
        return QuadRat(QuadInt(f, n, 0), 1)

    @property
    def field(self) -> Field:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.den == 1

    def __add__(self, other: QuadRat) -> QuadRat:
        same_field(self, other)
        return QuadRat.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: QuadRat) -> QuadRat:
        return self + (-other)

    def __neg__(self) -> QuadRat:
        return QuadRat(-self.num, self.den)

    def __mul__(self, other) -> QuadRat:
        if isinstance(other, QuadInt):
            other = QuadRat(other, 1)
        elif isinstance(other, int):
            return QuadRat.make(self.num * other, self.den)
        same_field(self, other)
        return QuadRat.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadRat:
        if isinstance(other, int):
            other = QuadRat.from_int(self.field, other)
        elif isinstance(other, QuadInt):
            other = QuadRat(other, 1)
        if other.is_zero():
            raise DivByZero("division by zero")
        # 1/(n/d) = d*conj(n)/norm(n)
        return QuadRat.make(self.num * other.num.conj() * other.den, self.den * other.num.norm())

    def inverse(self) -> QuadRat:
        return QuadRat.from_int(self.field, 1) / self

    def plane(self) -> PlanePoint:
        """The rational view of the affix of `num` over `field.case * den`."""
        x, y = self.num.affix()
        s = self.field.case * self.den
        return PlanePoint(Fraction(x, s), Fraction(y, s))

    def pow(self, k: int) -> QuadRat:
        if k < 0:
            return self.inverse().pow(-k)
        out = QuadRat.from_int(self.field, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"QuadRat(({self.num.a},{self.num.b})/{self.den})"


def div_exact(x: QuadInt, y: QuadInt) -> QuadRat:
    if y.is_zero():
        raise DivByZero("div_exact by zero")
    return QuadRat.make(x * y.conj(), y.norm())


def divides(y: QuadInt, x: QuadInt) -> bool:
    if y.is_zero():
        return x.is_zero()
    return div_exact(x, y).is_integral()


def from_affix(f: Field, x: int, y: int) -> QuadInt:
    """The element over scale s whose affix is (x, y) over s: the inverse of `QuadInt.affix`."""
    return QuadInt(f, x - f.trace_omega * y, f.case * y)


@dataclass(frozen=True)
class PlanePoint:
    """A rational plane point (x, y), meaning x + y*sqrt(d)*i: a view kept for callers."""

    x: Fraction
    y: Fraction


def _norm_form(f: Field, a: int, b: int) -> int:
    return a * (a + f.trace_omega * b) + f.norm_omega * b * b


def enumerate_norm_le(f: Field, bound: int):
    """Every nonzero element of norm <= bound, b ascending, then a ascending.

    4*N(a + b*omega) = (2a + tr*b)^2 + D*b^2 with D = -discriminant, so the
    norm is <= bound exactly when |2a + tr*b| <= isqrt(4*bound - D*b^2).
    """
    if bound < 1:
        return
    tr, disc = f.trace_omega, -f.discriminant
    bmax = math.isqrt(4 * bound // disc)
    for b in range(-bmax, bmax + 1):
        t = math.isqrt(4 * bound - disc * b * b)
        for a in range(-((t + tr * b) // 2), (t - tr * b) // 2 + 1):
            if a or b:
                yield QuadInt(f, a, b)


def gcd(x: QuadInt, y: QuadInt) -> tuple[QuadInt, QuadInt, QuadInt]:
    """Generator of the ideal (x, y), unit-canonical, with Bezout cofactors.

    Returns (g, s, t) with g = s*x + t*y.  The ideal is viewed as the rank-2
    lattice spanned by x, omega*x, y, omega*y and reduced by Lagrange-Gauss
    under the norm form; class number 1 makes the shortest vector a generator.
    """
    same_field(x, y)
    f = x.field
    if x.is_zero() and y.is_zero():
        raise BothZero("gcd(0, 0)")
    # the unit u with canonical_unit_rep(v) = u*v is the exact quotient
    if y.is_zero():
        g = canonical_unit_rep(x)
        return g, div_exact(g, x).num, f.zero
    if x.is_zero():
        g = canonical_unit_rep(y)
        return g, f.zero, div_exact(g, y).num

    w = f.omega
    # rows: lattice vectors in omega-coordinates; coeffs: (s, t) with row = s*x + t*y
    rows = [(x.a, x.b), ((w * x).a, (w * x).b), (y.a, y.b), ((w * y).a, (w * y).b)]
    coeffs = [(f.one, f.zero), (w, f.zero), (f.zero, f.one), (f.zero, w)]

    # integer row reduction to two independent rows (Hermite-style on column 1 then 2)
    def reduce_column(idx, col):
        nonlocal rows, coeffs
        while True:
            live = [i for i in range(len(rows)) if i >= idx and rows[i][col] != 0]
            if len(live) <= 1:
                return live[0] if live else None
            live.sort(key=lambda i: abs(rows[i][col]))
            p = live[0]
            for i in live[1:]:
                q = rows[i][col] // rows[p][col]
                rows[i] = (rows[i][0] - q * rows[p][0], rows[i][1] - q * rows[p][1])
                coeffs[i] = (coeffs[i][0] - q * coeffs[p][0], coeffs[i][1] - q * coeffs[p][1])

    piv0 = reduce_column(0, 0)
    if piv0 is not None and piv0 != 0:
        rows[0], rows[piv0] = rows[piv0], rows[0]
        coeffs[0], coeffs[piv0] = coeffs[piv0], coeffs[0]
    start = 0 if piv0 is None else 1
    piv1 = reduce_column(start, 1)
    if piv1 is not None and piv1 != start:
        rows[start], rows[piv1] = rows[piv1], rows[start]
        coeffs[start], coeffs[piv1] = coeffs[piv1], coeffs[start]
    basis = [(rows[i], coeffs[i]) for i in range(len(rows)) if rows[i] != (0, 0)][:2]
    check(len(basis) == 2, "ideal lattice must have rank 2")

    (u, cu), (v, cv) = basis
    # Lagrange-Gauss under the norm form (the inner product may be half-integral)
    if _norm_form(f, *u) > _norm_form(f, *v):
        u, v, cu, cv = v, u, cv, cu
    while True:
        # floor(B(u, v)/N(u) + 1/2) in integers, as 2*B(u, v) = N(u+v) - N(u) - N(v)
        mu = (_norm_form(f, u[0] + v[0], u[1] + v[1]) - _norm_form(f, *v)) // (2 * _norm_form(f, *u))
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        cv = (cv[0] - mu * cu[0], cv[1] - mu * cu[1])
        if _norm_form(f, *v) >= _norm_form(f, *u):
            break
        u, v, cu, cv = v, u, cv, cu

    short = QuadInt(f, u[0], u[1])
    g = canonical_unit_rep(short)
    uc = div_exact(g, short).num
    s, t = uc * cu[0], uc * cu[1]
    check(s * x + t * y == g)
    check(divides(g, x) and divides(g, y))
    return g, s, t
