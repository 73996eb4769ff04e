"""Exact linear algebra over Q(sqrt(d)) and its complexification.

row_reduce works generically over anything with field arithmetic and an
is_zero test (FieldScalar, ComplexScalar, plain Fraction via a shim), so
real and complex span computations share one code path.
"""

from __future__ import annotations

from fractions import Fraction

from .field import QQ, FieldCtx, FieldScalar, unify_ctx

__all__ = [
    "ComplexScalar",
    "ExactMatrix",
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
            ctx = unify_ctx(re, im)
            re = re.with_ctx(ctx)
            im = im.with_ctx(ctx)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *a):
        raise AttributeError("ComplexScalar is immutable")

    def _lift(self, other):
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

    def conjugate(self):
        return ComplexScalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_real(self) -> bool:
        return self.im.is_zero()

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


def row_reduce(rows, ncols=None):
    """Exact reduced row echelon form.

    Accepts a list of rows (lists of scalars) or an ExactMatrix; returns
    (rank, rowspace_basis, nullspace_basis) where the rowspace basis is
    the nonzero rows of the RREF and every nullspace vector multiplies
    the matrix into zero exactly.
    """
    if isinstance(rows, ExactMatrix):
        ncols = rows.ncols
        rows = rows.rows
    work = [list(r) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    for r in work:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    if ncols == 0:
        return 0, [], []
    if not work:
        raise ValueError("row_reduce of a zero-row matrix needs at least one row")

    zero, one = _zero_one_like(work[0][0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(work)):
            if not _is_zero(work[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and not _is_zero(work[i][col]):
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    rowspace = work[:rank]
    null_basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - rowspace[r][free]
        null_basis.append(v)
    return rank, rowspace, null_basis


class ExactMatrix:
    """A rectangular matrix of FieldScalars sharing one field context."""

    __slots__ = ("rows", "nrows", "ncols", "ctx")

    def __init__(self, rows, ctx: FieldCtx | None = None):
        mat = []
        scalars = []
        for row in rows:
            out = []
            for x in row:
                if not isinstance(x, FieldScalar):
                    x = FieldScalar(x)
                out.append(x)
                scalars.append(x)
            mat.append(out)
        if ctx is None:
            ctx = unify_ctx(*scalars) if scalars else QQ
        mat = [
            [x.with_ctx(ctx) for x in row]
            for row in mat
        ]
        ncols = len(mat[0]) if mat else 0
        for row in mat:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", tuple(tuple(r) for r in mat))
        object.__setattr__(self, "nrows", len(mat))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "ctx", ctx)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    def rank(self) -> int:
        return row_reduce(self)[0]

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


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
