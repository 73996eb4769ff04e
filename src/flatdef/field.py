"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(d)).

A scalar is a + b*sqrt(d) with a, b rational and d a square-free
non-negative integer (d = 0 encodes the base field Q, in which case b
is forced to 0).  All comparisons are decided exactly by
square-and-compare; there is no floating point anywhere.

Representation: a FieldScalar stores three Python integers A, B, D and
means (A + B*sqrt(d))/D, so a = A/D and b = B/D share one denominator
(the integer-polynomial-over-common-denominator form of e-antic).  Every
scalar is kept in lowest terms:

- D > 0;
- gcd(A, B, D) = 1 (for d = 0, B = 0 and so gcd(A, D) = 1).

Since (A, B, D) is then unique for each field element, equality within
one field is equality of the triples, and sign tests need only A, B and
d.  All arithmetic results come from the private constructor `_new`,
which restores these invariants with integer operations only.  The
public constructor takes int and Fraction only and raises TypeError for
anything else (a float, a str, a Decimal), so no inexact or unparsed
value becomes a scalar silently; text goes through `parse_scalar`.
Every number handed to the library enters through one door, `_as_scalar`,
and every length that must be positive through `_positive`.  The
Fraction views `.a` and `.b` exist for the public API (serialization,
rational relations, tests).  The text form is that of the pair (a, b) in
lowest terms; the hash is that of the triple with d (0 for a rational),
so equal scalars hash equal, a rational one alike in every field.

Which field: `join_ctx` is the one rule.  A rational scalar fits any
field; an irrational one brought into another irrational field raises
ValueError naming its own field first (`join_ctx` and `with_ctx` are
the only places that raise it).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import NonPositiveLength

__all__ = [
    "FieldCtx",
    "FieldScalar",
    "Vec2",
    "Mat2",
    "QQ",
    "parse_scalar",
    "join_ctx",
]

_Rat = int | Fraction


def _is_square_free(n: int) -> bool:
    if n < 0:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


@lru_cache(maxsize=None)
def _ctx(d: int) -> "FieldCtx":
    return FieldCtx.__new_raw__(d)


class FieldCtx:
    """The coefficient field Q(sqrt(d)); d = 0 means Q itself."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        raise TypeError("use FieldCtx.get(d)")

    @classmethod
    def __new_raw__(cls, d: int) -> "FieldCtx":
        if d == 1 or not _is_square_free(d):
            raise ValueError(f"d must be square-free and != 1, got {d}")
        self = object.__new__(cls)
        object.__setattr__(self, "d", d)
        return self

    @staticmethod
    def get(d: int) -> "FieldCtx":
        """Q(sqrt(d)) for an int d; a bool, 5.7 or "5" is a TypeError."""
        if type(d) is not int:
            raise TypeError(f"field d {d!r} is not an integer")
        if d >= 2 ** 31:
            # square-freeness is decided by trial division up to sqrt(d)
            raise ValueError(f"d must be below 2**31, got {d}")
        return _ctx(d)

    def __setattr__(self, *a):  # contexts are immutable
        raise AttributeError("FieldCtx is immutable")

    def __repr__(self) -> str:
        return f"FieldCtx(d={self.d})"

    def sqrt_gen(self) -> "FieldScalar":
        """The generator sqrt(d); requires d > 0."""
        if self.d == 0:
            raise ValueError("Q has no irrational generator")
        return FieldScalar(0, 1, self)


QQ = FieldCtx.get(0)


def _rat_str(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, without building the Fraction."""
    g = gcd(n, den)
    if g != 1:
        n //= g
        den //= g
    return str(n) if den == 1 else f"{n}/{den}"


def _text(A: int, B: int, D: int, d: int) -> str:
    """The text form of (A + B*sqrt(d))/D for D > 0, in lowest terms or
    not: each part is reduced on its own."""
    if not B:
        return _rat_str(A, D)
    sign = "-" if B < 0 else "+"
    return f"{_rat_str(A, D)}{sign}{_rat_str(abs(B), D)}*sqrt({d})"


class FieldScalar:
    """An exact element (A + B*sqrt(d))/D of Q(sqrt(d)), in lowest terms."""

    __slots__ = ("_A", "_B", "_D", "ctx")

    def __init__(self, a: _Rat, b: _Rat = 0, ctx: FieldCtx = QQ):
        if type(a) is int and type(b) is int:
            A, B, D = a, b, 1
        else:
            for x in (a, b):
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(f"scalars are exact: expected int or "
                                    f"Fraction, got {type(x).__name__} {x!r}")
            da, db = a.denominator, b.denominator
            A, B, D = a.numerator * db, b.numerator * da, da * db
            g = gcd(A, B, D)
            if g != 1:
                A //= g
                B //= g
                D //= g
        if B and ctx.d == 0:
            raise ValueError("irrational part requires d > 0")
        _set_A(self, A)
        _set_B(self, B)
        _set_D(self, D)
        _set_ctx(self, ctx)

    def __setattr__(self, *a):
        raise AttributeError("FieldScalar is immutable")

    @property
    def a(self) -> Fraction:
        """The rational part a of a + b*sqrt(d)."""
        return Fraction(self._A, self._D)

    @property
    def b(self) -> Fraction:
        """The irrational coefficient b of a + b*sqrt(d)."""
        return Fraction(self._B, self._D)

    def with_ctx(self, ctx: FieldCtx) -> "FieldScalar":
        """This scalar as an element of `ctx`; rational scalars fit any field."""
        if self.ctx is ctx:
            return self
        if self._B and self.ctx.d != ctx.d:
            raise _incompatible(self.ctx.d, ctx.d)
        return _new(self._A, self._B, self._D, ctx)

    # -- coercion -----------------------------------------------------

    def _pair(self, other):
        """(self, other) as scalars of one field, or (None, None)."""
        if other.__class__ is FieldScalar:
            if other.ctx is self.ctx:
                return self, other
            if not other._B:
                return self, other.with_ctx(self.ctx)
            return self.with_ctx(other.ctx), other
        if isinstance(other, int):
            return self, _new(other, 0, 1, self.ctx)
        if isinstance(other, Fraction):
            return self, _new(other.numerator, 0, other.denominator, self.ctx)
        return None, None

    # -- ring/field operations ---------------------------------------

    def __add__(self, other):
        s, o = self._pair(other)
        if s is None:
            return NotImplemented
        D1, D2 = s._D, o._D
        if D1 == D2:
            return _new(s._A + o._A, s._B + o._B, D1, s.ctx)
        return _new(s._A * D2 + o._A * D1, s._B * D2 + o._B * D1, D1 * D2, s.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        s, o = self._pair(other)
        if s is None:
            return NotImplemented
        D1, D2 = s._D, o._D
        if D1 == D2:
            return _new(s._A - o._A, s._B - o._B, D1, s.ctx)
        return _new(s._A * D2 - o._A * D1, s._B * D2 - o._B * D1, D1 * D2, s.ctx)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _new(-self._A, -self._B, self._D, self.ctx)

    def __mul__(self, other):
        s, o = self._pair(other)
        if s is None:
            return NotImplemented
        A1, B1, A2, B2 = s._A, s._B, o._A, o._B
        return _new(A1 * A2 + s.ctx.d * B1 * B2, A1 * B2 + B1 * A2,
                    s._D * o._D, s.ctx)

    __rmul__ = __mul__

    def inverse(self) -> "FieldScalar":
        A, B, D = self._A, self._B, self._D
        if not A and not B:
            raise ZeroDivisionError("division by zero field scalar")
        # D/(A + B sqrt d) = D (A - B sqrt d) / (A^2 - d B^2); the norm
        # is never 0 for (A, B) != 0 because sqrt(d) is irrational
        return _new(D * A, -D * B, A * A - self.ctx.d * B * B, self.ctx)

    def __truediv__(self, other):
        s, o = self._pair(other)
        if s is None:
            return NotImplemented
        return s * o.inverse()

    def __rtruediv__(self, other):
        s, o = self._pair(other)
        if s is None:
            return NotImplemented
        return o * s.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _new(1, 0, 1, self.ctx)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._A and not self._B

    def is_rational(self) -> bool:
        return not self._B

    def as_fraction(self) -> Fraction:
        if self._B:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._A, self._D)

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(d)."""
        return _sign(self._A, self._B, self.ctx.d)

    def _cmp(self, other):
        """Sign of self - other, or None if other is not a scalar."""
        s, o = self._pair(other)
        if s is None:
            return None
        D1, D2 = s._D, o._D
        if D1 == D2:
            return _sign(s._A - o._A, s._B - o._B, s.ctx.d)
        return _sign(s._A * D2 - o._A * D1, s._B * D2 - o._B * D1, s.ctx.d)

    def __eq__(self, other) -> bool:
        try:
            s, o = self._pair(other)
        except ValueError:
            return False
        if s is None:
            return NotImplemented
        return s._A == o._A and s._B == o._B and s._D == o._D

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        # a rational hashes as the int or Fraction A/D that it equals
        A, B, D = self._A, self._B, self._D
        if not B:
            return hash(A if D == 1 else Fraction(A, D))
        return hash((A, B, D, self.ctx.d))

    def __bool__(self):
        return bool(self._A or self._B)

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        return _text(self._A, self._B, self._D, self.ctx.d)

    def __repr__(self) -> str:
        return f"FieldScalar({self})"

    def __float__(self) -> float:
        """The value as the nearest float, for display and rendering only;
        never used in predicates.  Scaled by 2**k, the value lies strictly
        between two consecutive integers, `lo` and `lo + 1` (the integer
        root is within 1 of the irrational part), and one int division
        rounds each correctly; when the two disagree, k doubles.  So parts
        that cancel lose nothing, however large A and B are."""
        A, B, D = self._A, self._B, self._D
        if not B:
            return A / D
        k = A.bit_length() + B.bit_length() + 64
        while True:
            r = isqrt(self.ctx.d * B * B << 2 * k)
            lo = (A << k) + (r if B > 0 else -r - 1)
            f = lo / (D << k)
            if f == (lo + 1) / (D << k):
                return f
            k *= 2


_set_A = FieldScalar._A.__set__
_set_B = FieldScalar._B.__set__
_set_D = FieldScalar._D.__set__
_set_ctx = FieldScalar.ctx.__set__
_alloc = object.__new__


def _new(A: int, B: int, D: int, ctx: FieldCtx) -> FieldScalar:
    """(A + B*sqrt(d))/D in lowest terms; D must be non-zero.

    Every arithmetic result is built here, from integers only.
    """
    if D != 1:
        if D < 0:
            A, B, D = -A, -B, -D
        g = gcd(A, B, D)
        if g != 1:
            A //= g
            B //= g
            D //= g
    s = _alloc(FieldScalar)
    _set_A(s, A)
    _set_B(s, B)
    _set_D(s, D)
    _set_ctx(s, ctx)
    return s


def _sign(A: int, B: int, d: int) -> int:
    """Exact sign of A + B*sqrt(d)."""
    if not B:
        return (A > 0) - (A < 0)
    if not A:
        return 1 if B > 0 else -1
    if (A > 0) == (B > 0):
        return 1 if A > 0 else -1
    # opposite signs: |A| vs |B| sqrt(d), square-free d so never equal
    if A * A > d * B * B:
        return 1 if A > 0 else -1
    return 1 if B > 0 else -1


def _sum_is_one(s: FieldScalar, t: FieldScalar) -> bool:
    """s + t == 1, read off the integer triples without building a sum."""
    return (s._A * t._D + t._A * s._D == s._D * t._D
            and s._B * t._D + t._B * s._D == 0)


_SCALAR_RE = re.compile(
    r"""^\s*
    (?P<a>[+-]?\d+(?:/\d+)?)?
    \s*
    (?:(?P<sign>[+-])?\s*(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(?P<d>\d+)\s*\))?
    \s*$""",
    re.VERBOSE | re.ASCII,
)


def parse_scalar(text: str) -> FieldScalar:
    """Parse "p/q" or "p/q+r/s*sqrt(d)" back into a FieldScalar.

    parse_scalar(str(x)) == x for every scalar x.
    """
    m = _SCALAR_RE.match(text)
    if not m or (m["a"] is None and m["b"] is None):
        raise ValueError(f"cannot parse scalar {text!r}")
    ctx = QQ if m["b"] is None else FieldCtx.get(int(m["d"]))
    try:
        return _read(m["a"] or "0", (m["sign"] or "") + (m["b"] or "0"), ctx)
    except ZeroDivisionError:
        raise ValueError(
            f"cannot parse scalar {text!r}: zero denominator") from None


def _read(a: str, b: str, ctx: FieldCtx) -> FieldScalar:
    """The scalar a + b*sqrt(d) of `ctx` from the matched texts "p/q" or
    "p" (q = 1) of a and b.  A zero q is a ZeroDivisionError, and an
    irrational part in Q the ValueError that `FieldScalar` gives."""
    pa, _, qa = a.partition("/")
    pb, _, qb = b.partition("/")
    qa, qb, pb = int(qa or 1), int(qb or 1), int(pb)
    if not qa or not qb:
        raise ZeroDivisionError(f"zero denominator in {a!r} or {b!r}")
    if pb and not ctx.d:
        raise ValueError("irrational part requires d > 0")
    return _new(int(pa) * qb, pb * qa, qa * qb, ctx)


def _as_scalar(x) -> FieldScalar:
    """`x` as a FieldScalar: the one door for numbers handed to the
    library.  A FieldScalar passes unchanged; an int or a Fraction is
    lifted, anything else raises the constructor's TypeError."""
    return x if isinstance(x, FieldScalar) else FieldScalar(x)


def _positive(name: str, x) -> FieldScalar:
    """`x` as a FieldScalar (`_as_scalar`); NonPositiveLength unless it
    is positive."""
    x = _as_scalar(x)
    if x.sign() <= 0:
        raise NonPositiveLength(f"{name} must be positive, got {x}")
    return x


def _incompatible(d1: int, d2: int) -> ValueError:
    """The error for two scalars of Q(sqrt(d1)) and Q(sqrt(d2)), d1 != d2."""
    return ValueError(f"incompatible fields Q(sqrt({d1})) and Q(sqrt({d2}))")


def join_ctx(ctx: FieldCtx, *scalars: FieldScalar) -> FieldCtx:
    """The field of `ctx` and the scalars, each taken in turn: a rational
    one takes the field of the others.  A scalar over another irrational
    field raises ValueError naming its field first, as `with_ctx` does."""
    for s in scalars:
        if s._B and s.ctx.d != ctx.d:
            if ctx.d:
                raise _incompatible(s.ctx.d, ctx.d)
            ctx = s.ctx
    return ctx


class Vec2:
    """A holonomy/displacement vector; x horizontal, y vertical."""

    __slots__ = ("x", "y")

    def __init__(self, x: FieldScalar | _Rat, y: FieldScalar | _Rat):
        if not (x.__class__ is FieldScalar and y.__class__ is FieldScalar
                and x.ctx is y.ctx):
            x, y = _as_scalar(x), _as_scalar(y)
            ctx = join_ctx(QQ, x, y)
            x = x.with_ctx(ctx)
            y = y.with_ctx(ctx)
        _set_x(self, x)
        _set_y(self, y)

    def __setattr__(self, *a):
        raise AttributeError("Vec2 is immutable")

    @property
    def ctx(self) -> FieldCtx:
        return self.x.ctx

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scale(self, s) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    def cross(self, other: "Vec2") -> FieldScalar:
        """A test oracle of tests/test_predicates.py."""
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Vec2") -> FieldScalar:
        """A test oracle of tests/test_predicates.py."""
        return self.x * other.x + self.y * other.y

    def norm_sq(self) -> FieldScalar:
        return self.x * self.x + self.y * self.y

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __iter__(self):
        return iter((self.x, self.y))

    def __repr__(self) -> str:
        return f"Vec2({self.x}, {self.y})"


_set_x = Vec2.x.__set__
_set_y = Vec2.y.__set__


class Mat2:
    """A 2x2 matrix with field entries, acting on Vec2 by left multiplication."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entries = [_as_scalar(v) for v in (a, b, c, d)]
        ctx = join_ctx(QQ, *entries)
        for name, v in zip("abcd", entries):
            object.__setattr__(self, name, v.with_ctx(ctx))

    def __setattr__(self, *a):
        raise AttributeError("Mat2 is immutable")

    @staticmethod
    def shear(t) -> "Mat2":
        """The horizontal shear [[1, t], [0, 1]]."""
        return Mat2(1, t, 0, 1)

    @staticmethod
    def vertical_scale(s) -> "Mat2":
        """The stretch [[1, 0], [0, s]]."""
        return Mat2(1, 0, 0, s)

    @staticmethod
    def direction_normalizer(v: Vec2) -> "Mat2":
        """Rotation-scaling [[vx, vy], [-vy, vx]] sending v to (|v|^2, 0)."""
        if v.is_zero():
            raise ValueError("cannot normalize the zero direction")
        return Mat2(v.x, v.y, -v.y, v.x)

    def det(self) -> FieldScalar:
        return self.a * self.d - self.b * self.c

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        det = self.det()
        if det.is_zero():
            raise ZeroDivisionError("singular matrix")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"
