"""The scalar Gauss-Jordan elimination, kept as a reference for the tests.

This is the elimination `linalg.Echelon` ran before it worked on
integer quadruples: every row is eliminated one scalar at a time, in
the scalar type it came in (Fraction, FieldScalar or ComplexScalar),
dividing by each new pivot, so the basis is always the RREF.
tests/test_linalg.py checks the integer elimination's rank, the value
of each `add`, its RREF rows and `row_reduce`'s null space against it.
"""

from bisect import bisect_left
from fractions import Fraction

from flatdef.field import FieldScalar
from flatdef.linalg import ComplexScalar


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


class RefEchelon:
    """A reduced row echelon basis grown one row at a time: `rows` hold
    a one at each pivot and zeros at every other pivot."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> list:
        v = list(row)
        if len(v) != self.ncols:
            raise ValueError("ragged matrix")
        for col, basis_row in zip(self.pivots, self.rows):
            f = v[col]
            if not _is_zero(f):
                v = [x - f * y for x, y in zip(v, basis_row)]
        return v

    def add(self, row) -> bool:
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


def ref_row_reduce(rows, ncols=None):
    """(rank, RREF rows, null space basis), the null space read off the
    pivots."""
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    echelon = RefEchelon(ncols)
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
