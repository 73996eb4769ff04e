"""Exact linear algebra over Q(sqrt(d)) and its complexification.

Echelon is the one elimination: a basis grown one row at a time, on
integers.  A row of ints, Fractions, FieldScalars or ComplexScalars is
lifted to integer quadruples over one denominator (Re and Im, each a
Z[sqrt(d)] pair, laid out like `polygon.Lattice` points), and `_clear`
eliminates fraction-free in Z[sqrt(d)][i], each basis row primitive
with a positive integer at its pivot.  The RREF is built, in the widest
kind of scalar given, only when read.  row_reduce adds every row to an
Echelon and reads the nullspace off the RREF, and every span that grows
(the tangent span of cocycles, which are held as such quadruples,
independence checks) keeps an Echelon instead of re-reducing its
generators.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .field import QQ, FieldScalar, _as_scalar, _new, join_ctx

__all__ = [
    "ComplexScalar",
    "Echelon",
    "row_reduce",
    "rational_relation_lattice",
]


class ComplexScalar:
    """re + im*i with exact field-scalar parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        re, im = _as_scalar(re), _as_scalar(im)
        if re.ctx is not im.ctx:
            ctx = join_ctx(QQ, re, im)
            re = re.with_ctx(ctx)
            im = im.with_ctx(ctx)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *a):
        raise AttributeError("ComplexScalar is immutable")

    @staticmethod
    def _lift(other):
        if isinstance(other, ComplexScalar):
            return other
        if isinstance(other, (int, Fraction, FieldScalar)):
            return ComplexScalar(other, 0)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ComplexScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ComplexScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ComplexScalar(-self.re, -self.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ComplexScalar(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n.is_zero():
            raise ZeroDivisionError("division by zero complex scalar")
        return ComplexScalar(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return f"{self.re} + ({self.im})*i"

    def __repr__(self):
        return f"ComplexScalar({self.re}, {self.im})"


# -- rows on integers -------------------------------------------------------
#
# A row over Q(sqrt(d))(i) is held as integer quadruples over one
# denominator D: the entry (ra + rb*sqrt(d) + i*(ia + ib*sqrt(d)))/D is
# (ra, rb, ia, ib), laid out like a `polygon.Lattice` point (Re as x, Im
# as y).  Entries then lie in the ring Z[sqrt(d)][i], and elimination
# needs no division: only products in that ring and integer gcds.

# what a row was given in, and so what its RREF is read back in; the
# widest kind of any row added wins
_RATIONAL, _REAL, _COMPLEX = 0, 1, 2
_ZERO = (0, 0, 0, 0)


def _qmul(p, q, d):
    """The product of two quadruples in Z[sqrt(d)][i]."""
    a, b, c, e = p
    f, g, h, k = q
    return (a * f - c * h + d * (b * g - e * k),
            a * g + b * f - c * k - e * h,
            a * h + c * f + d * (b * k + e * g),
            a * k + b * h + c * g + e * f)


def _quads(row, ctx=QQ):
    """A row of ints, Fractions, FieldScalars or ComplexScalars as
    (quadruples over D, D, field, kind); the field is `ctx` joined with
    the row's (`join_ctx`)."""
    raw, scalars, kind = [], [], _RATIONAL
    for x in row:
        if x.__class__ is ComplexScalar:
            re, im = x.re, x.im
            D = lcm(re._D, im._D)
            s, t = D // re._D, D // im._D
            raw.append(((re._A * s, re._B * s, im._A * t, im._B * t), D))
            scalars += (re, im)
            kind = _COMPLEX
        elif x.__class__ is FieldScalar:
            raw.append(((x._A, x._B, 0, 0), x._D))
            scalars.append(x)
            kind = max(kind, _REAL)
        elif isinstance(x, (int, Fraction)):
            raw.append(((x.numerator, 0, 0, 0), x.denominator))
        else:
            raise TypeError(f"unsupported scalar type {type(x)!r}")
    D = lcm(*(den for _, den in raw))
    quads = [q if den == D else tuple(c * (D // den) for c in q)
             for q, den in raw]
    return quads, D, join_ctx(ctx, *scalars), kind


def _scalar(kind, q, D, ctx):
    """The quadruple q over the integer D (non-zero) as a scalar of `kind`."""
    if kind == _COMPLEX:
        return ComplexScalar(_new(q[0], q[1], D, ctx), _new(q[2], q[3], D, ctx))
    if kind == _REAL:
        return _new(q[0], q[1], D, ctx)
    return Fraction(q[0], D)


def _content(v) -> int:
    """The gcd of all the integers of a row of quadruples."""
    return gcd(*chain.from_iterable(v))


def _primitive(v):
    """v divided by the gcd of all its integers."""
    g = _content(v)
    if g > 1:
        return [(a // g, b // g, c // g, e // g) for a, b, c, e in v]
    return v


def _integral(v, col, d):
    """v times a w that makes its entry at `col` a positive integer: w is
    the conjugate of that entry p, times the sqrt(d)-conjugate of |p|^2
    when |p|^2 is irrational, so p*w is the norm of p down to Z.  Then
    primitive."""
    a, b, c, e = v[col]
    if c or e:
        w = (a, b, -c, -e)
        n0, n1 = a * a + c * c + d * (b * b + e * e), 2 * (a * b + c * e)
    else:
        w = (1, 0, 0, 0)
        n0, n1 = a, b
    if n1:
        w = _qmul(w, (n0, -n1, 0, 0), d)
    if w != (1, 0, 0, 0):
        v = [_qmul(w, x, d) for x in v]
    v = _primitive(v)
    if v[col][0] < 0:
        v = [(-a, -b, -c, -e) for a, b, c, e in v]
    return v


def _clear(v, basis, d):
    """The one elimination loop: v with every pivot column of `basis`
    cleared, and the integer it was scaled by.

    `basis` holds (pivot column, row) pairs in pivot order, each row
    zero before its pivot, where it holds a positive integer n.  Each
    step is v <- n*v - v[col]*row, fraction-free; a row that is zero at
    every later pivot (a reduced basis) leaves the pivots already
    cleared as they are, and an echelon one clears them in order.  So
    the result is scale*(v - its part in the span).
    """
    scale = 1
    for col, row in basis:
        f = v[col]
        if f == _ZERO:
            continue
        n = row[col][0]
        scale *= n
        if f[1] or f[2] or f[3]:
            v = [(x[0] * n - y[0], x[1] * n - y[1], x[2] * n - y[2],
                  x[3] * n - y[3])
                 for x, y in zip(v, (_qmul(f, y, d) for y in row))]
        else:
            m = f[0]
            v = [(x[0] * n - m * y[0], x[1] * n - m * y[1],
                  x[2] * n - m * y[2], x[3] * n - m * y[3])
                 for x, y in zip(v, row)]
    return v, scale


class Echelon:
    """A row echelon basis that grows one row at a time, on integers.

    Rows of ints, Fractions, FieldScalars or ComplexScalars are lifted to
    integer quadruples (`_quads`) and eliminated fraction-free by `_clear`
    in Z[sqrt(d)][i], each basis row primitive with a positive integer
    at its pivot.  Elimination over that ring decides membership as it
    would over its fraction field Q(sqrt(d))(i), since a non-zero
    integer factor changes no span.  `rows`, the reduced row echelon
    form (one at each pivot, zero at every other), is built in the
    widest kind of scalar added only when read; RREF is unique, so it
    depends only on the span of what was added, not on the order.
    """

    __slots__ = ("ncols", "ctx", "_kind", "_basis")

    def __init__(self, ncols: int, complex_over=None):
        self.ncols = ncols
        # an echelon of cocycles is complex over its frame's field from
        # the start, and takes rows through `_add`
        self.ctx = complex_over or QQ
        self._kind = _RATIONAL if complex_over is None else _COMPLEX
        self._basis: list[tuple] = []   # (pivot column, integer row)

    @property
    def rank(self) -> int:
        return len(self._basis)

    @property
    def pivots(self) -> list[int]:
        return [col for col, _ in self._basis]

    @property
    def rows(self) -> list[list]:
        """The RREF rows, sorted by pivot column."""
        return [[_scalar(self._kind, q, row[col][0], self.ctx) for q in row]
                for col, row in self._reduced()]

    def _reduced(self):
        """The basis rows, each cleared at every other pivot: bottom up,
        against the rows below it, which are cleared already."""
        d = self.ctx.d
        out = []
        for col, row in reversed(self._basis):
            out.insert(0, (col, _primitive(_clear(row, out, d)[0])))
        return out

    def _take(self, row):
        """A row given in scalars as quadruples over D, and D."""
        if len(row) != self.ncols:
            raise ValueError("ragged matrix")
        quads, D, self.ctx, kind = _quads(row, self.ctx)
        self._kind = max(self._kind, kind)
        return quads, D

    def reduce(self, row) -> list:
        """The row minus its part in the span: zero in every pivot column,
        and all zero exactly when the row lies in the span.  A test oracle
        of tests/test_linalg.py and test_crossings.py."""
        quads, D = self._take(list(row))
        v, scale = _clear(quads, self._basis, self.ctx.d)
        return [_scalar(self._kind, q, D * scale, self.ctx) for q in v]

    def add(self, row) -> bool:
        """Add a row to the span; False when it already lay in it."""
        return self._add(self._take(list(row))[0])

    def _add(self, v) -> bool:
        """Add a row of integer quadruples in this echelon's field, over
        any denominator."""
        v, _ = _clear(v, self._basis, self.ctx.d)
        for col, x in enumerate(v):
            if x != _ZERO:
                break
        else:
            return False
        v = _integral(v, col, self.ctx.d)
        k = bisect_left(self._basis, col, key=lambda item: item[0])
        self._basis.insert(k, (col, v))
        return True


def row_reduce(rows, ncols=None):
    """Exact reduced row echelon form.

    Returns (rank, rowspace_basis, nullspace_basis) of a list of rows:
    the rowspace basis is the nonzero rows of the RREF, and every
    nullspace vector multiplies the matrix into zero exactly.  Entries
    may be ints, Fractions, FieldScalars or ComplexScalars; both bases
    come back in the widest kind given, ints as Fractions.
    """
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    if ncols == 0:
        return 0, [], []
    if not rows:
        raise ValueError("row_reduce of a zero-row matrix needs at least one row")

    echelon = Echelon(ncols)
    for r in rows:
        echelon.add(r)
        if echelon.rank == ncols:
            break
    rref, pivots = echelon.rows, echelon.pivots
    # each RREF row is 1 at its pivot, so a free column's null vector is
    # 1 there and minus that column's entry at each pivot
    zero, one = (_scalar(echelon._kind, q, 1, echelon.ctx)
                 for q in (_ZERO, (1, 0, 0, 0)))
    null_basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = one
        for col, row in zip(pivots, rref):
            v[col] = -row[free]
        null_basis.append(v)
    return echelon.rank, rref, null_basis


def rational_relation_lattice(values):
    """Rational relations among field scalars.

    For v_1..v_r in Q(sqrt(d)) returns (R_basis, A_basis) where
    R = {q in Q^r : sum q_i v_i = 0} and A = R-perp is the row space of
    the 2 x r rational matrix with rows (a_i) and (b_i).  Both bases are
    exact rational vectors.
    """
    vals = [_as_scalar(v) for v in values]
    r = len(vals)
    if r == 0:
        raise ValueError("need at least one value")
    rows = [
        [v.a for v in vals],
        [v.b for v in vals],
    ]
    rank, rowspace, nullspace = row_reduce(rows, ncols=r)
    return nullspace, rowspace
