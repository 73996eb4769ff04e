"""Exact linear algebra over Q(sqrt(d)) and its complexification.

Echelon is the one Gauss-Jordan elimination: an RREF basis grown one
row at a time.  row_reduce adds every row to an Echelon and reads the
nullspace off its pivots, and every span that grows (the tangent span,
independence checks) keeps an Echelon instead of re-reducing its
generators.  Both work over anything with field
arithmetic and an is_zero test (FieldScalar, ComplexScalar, plain
Fraction via a shim), so real and complex spans share one code path.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .field import QQ, FieldScalar, join_ctx

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
        if not isinstance(re, FieldScalar):
            re = FieldScalar(re)
        if not isinstance(im, FieldScalar):
            im = FieldScalar(im)
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


def _is_zero(x) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    return x.is_zero()


def _zero_one_like(x):
    if isinstance(x, Fraction):
        return Fraction(0), Fraction(1)
    if isinstance(x, ComplexScalar):
        return ComplexScalar(0, 0), ComplexScalar(1, 0)
    if isinstance(x, FieldScalar):
        return FieldScalar(0, 0, x.ctx), FieldScalar(1, 0, x.ctx)
    raise TypeError(f"unsupported scalar type {type(x)!r}")


class Echelon:
    """A reduced row echelon basis that grows one row at a time.

    `rows` holds the nonzero RREF rows sorted by pivot column, each with
    a one at its pivot and zeros at every other pivot; `pivots` holds
    those columns.  RREF is unique, so the rows depend only on the span
    of what was added, not on the order.  Read `rows` and `pivots`;
    change them only through `add`.
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> list:
        """The row minus its part in the span: zero in every pivot column,
        and all zero exactly when the row lies in the span."""
        v = list(row)
        if len(v) != self.ncols:
            raise ValueError("ragged matrix")
        for col, basis_row in zip(self.pivots, self.rows):
            f = v[col]
            if not _is_zero(f):
                v = [x - f * y for x, y in zip(v, basis_row)]
        return v

    def add(self, row) -> bool:
        """Add a row to the span; False when it already lay in it."""
        v = self.reduce(row)
        for col, lead in enumerate(v):
            if not _is_zero(lead):
                break
        else:
            return False
        inv = 1 / lead
        v = [x * inv for x in v]
        for i, basis_row in enumerate(self.rows):
            f = basis_row[col]
            if not _is_zero(f):
                self.rows[i] = [x - f * y for x, y in zip(basis_row, v)]
        k = bisect_left(self.pivots, col)
        self.pivots.insert(k, col)
        self.rows.insert(k, v)
        return True


def row_reduce(rows, ncols=None):
    """Exact reduced row echelon form.

    Returns (rank, rowspace_basis, nullspace_basis) of a list of rows:
    the rowspace basis is the nonzero rows of the RREF, and every
    nullspace vector multiplies the matrix into zero exactly.
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
    zero, one = _zero_one_like(rows[0][0])
    null_basis = []
    pivot_set = set(echelon.pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for row, pc in zip(echelon.rows, echelon.pivots):
            v[pc] = zero - row[free]
        null_basis.append(v)
    return echelon.rank, echelon.rows, null_basis


def rational_relation_lattice(values):
    """Rational relations among field scalars.

    For v_1..v_r in Q(sqrt(d)) returns (R_basis, A_basis) where
    R = {q in Q^r : sum q_i v_i = 0} and A = R-perp is the row space of
    the 2 x r rational matrix with rows (a_i) and (b_i).  Both bases are
    exact rational vectors.
    """
    vals = [v if isinstance(v, FieldScalar) else FieldScalar(v) for v in values]
    r = len(vals)
    if r == 0:
        raise ValueError("need at least one value")
    rows = [
        [v.a for v in vals],
        [v.b for v in vals],
    ]
    rank, rowspace, nullspace = row_reduce(rows, ncols=r)
    return nullspace, rowspace
