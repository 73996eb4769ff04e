import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flatdef.field import FieldCtx, FieldScalar
from flatdef.intmat import det_int, hermite_form, integer_kernel, smith_form
from flatdef.linalg import (
    ComplexScalar,
    Echelon,
    rational_relation_lattice,
    row_reduce,
)
from reference_linalg import RefEchelon, ref_row_reduce

Q5 = FieldCtx.get(5)


def fr(*vals):
    return [Fraction(v) for v in vals]


def minor_rank(rows, ncols):
    """Brute-force rank via minor expansion; oracle for matrices up to 4x4."""
    n = len(rows)
    best = 0
    for k in range(1, min(n, ncols) + 1):
        for ris in itertools.combinations(range(n), k):
            for cis in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if not _det(sub).is_zero():
                    best = k
    return best


def _det(sub):
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = sub[0][0] * 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in sub[1:]]
        term = sub[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


class TestRowReduce:
    def test_proportional_rows(self):
        rank, rows, null = row_reduce([fr(1, 2), fr(2, 4)])
        assert rank == 1
        assert len(null) == 1
        assert null[0] == [Fraction(-2), Fraction(1)]

    def test_identity(self):
        rank, rows, null = row_reduce([fr(1, 0, 0), fr(0, 1, 0), fr(0, 0, 1)])
        assert rank == 3
        assert null == []

    def test_quadratic_field_row(self):
        # single row (1 + sqrt5, 2 + 2 sqrt5, 3): hand reduction gives rank 1
        # and a two-dimensional null space over Q(sqrt5)
        row = [FieldScalar(1, 1, Q5), FieldScalar(2, 2, Q5), FieldScalar(3, 0, Q5)]
        rank, rows, null = row_reduce([row])
        assert rank == 1
        assert len(null) == 2
        for v in null:
            acc = FieldScalar(0, 0, Q5)
            for x, y in zip(row, v):
                acc = acc + x * y
            assert acc.is_zero()

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**4))
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_minor_expansion(self, n, m, seed):
        rng = random.Random(seed)
        rows = [[FieldScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                 for _ in range(m)] for _ in range(n)]
        rank, _, null = row_reduce(rows, ncols=m)
        assert rank == minor_rank(rows, m)
        assert rank + len(null) == m
        for v in null:
            for row in rows:
                acc = FieldScalar(0)
                for x, y in zip(row, v):
                    acc = acc + x * y
                assert acc.is_zero()

    def test_int_entries(self):
        # ints are native to the integer elimination; both bases come
        # back as Fractions
        rank, rows, null = row_reduce([[1, 2], [2, 4]])
        assert rank == 1
        assert rows == [[Fraction(1), Fraction(2)]]
        assert null == [[Fraction(-2), Fraction(1)]]
        assert all(type(x) is Fraction for x in rows[0] + null[0])
        ech = Echelon(3)
        assert ech.add([2, 4, 6]) and ech.add((0, 3, 1))
        assert not ech.add([2, 7, 7])
        assert ech.rows == [fr(1, 0, Fraction(7, 3)), fr(0, 1, Fraction(1, 3))]
        assert ech.reduce([0, 0, 3]) == fr(0, 0, 3)

    def test_complex_scalars(self):
        i = ComplexScalar(0, 1)
        one = ComplexScalar(1, 0)
        rank, _, null = row_reduce([[one, i], [i, ComplexScalar(-1, 0)]])
        assert rank == 1
        assert len(null) == 1

    @pytest.mark.parametrize("rows", [
        [[1, 2, 3], [2, 4, 7]],
        [fr(1, 2), fr(2, 4)],
        [[FieldScalar(1, 1, Q5), FieldScalar(2, 2, Q5), FieldScalar(3, 0, Q5)]],
        [[ComplexScalar(1, 0), ComplexScalar(0, 1)]],
    ])
    def test_reduces_once(self, rows, monkeypatch):
        # the null space is read off the RREF rows row_reduce returns,
        # so each call reduces its basis once
        calls = []
        original = Echelon._reduced

        def counted(echelon):
            calls.append(echelon)
            return original(echelon)

        monkeypatch.setattr(Echelon, "_reduced", counted)
        row_reduce(rows)
        assert len(calls) == 1


def _random_rows(rng, n, m):
    """Small Q(sqrt5) rows, often dependent: zeros, repeats and sums."""
    def entry():
        if rng.random() < 0.3:
            return FieldScalar(0, 0, Q5)
        return FieldScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                           rng.choice((0, 0, 1, -1)), Q5)
    rows = [[entry() for _ in range(m)] for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.3:
            j = rng.randrange(i)
            rows[i] = [x + y * 2 for x, y in zip(rows[i - 1], rows[j])]
    return rows


class TestEchelon:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**4))
    @settings(max_examples=80, deadline=None)
    def test_against_minor_rank(self, n, m, seed):
        rng = random.Random(seed)
        rows = _random_rows(rng, n, m)
        ech = Echelon(m)
        for k, row in enumerate(rows):
            before = ech.rank
            grew = ech.add(row)
            # add grows the rank exactly when the row is new to the span
            assert ech.rank == before + grew
            assert ech.rank == minor_rank(rows[:k + 1], m)
            for seen in rows[:k + 1]:
                assert all(x.is_zero() for x in ech.reduce(seen))
        # RREF: strictly increasing pivots, each a one, zero in every
        # other basis row, nothing left of it
        assert ech.pivots == sorted(set(ech.pivots))
        assert len(ech.pivots) == ech.rank == len(ech.rows)
        for i, (col, row) in enumerate(zip(ech.pivots, ech.rows)):
            assert row[col] == 1
            assert all(x.is_zero() for x in row[:col])
            for j, other in enumerate(ech.rows):
                if j != i:
                    assert other[col].is_zero()
        # row_reduce is the same elimination, read off at the end
        rank, rref, _ = row_reduce(rows, ncols=m)
        assert (rank, rref) == (ech.rank, ech.rows)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**4))
    @settings(max_examples=40, deadline=None)
    def test_order_free(self, n, m, seed):
        # RREF is unique, so the rows depend only on the span
        rng = random.Random(seed)
        rows = _random_rows(rng, n, m)
        forward, backward = Echelon(m), Echelon(m)
        for row in rows:
            forward.add(row)
        for row in reversed(rows):
            backward.add(row)
        assert forward.rows == backward.rows

    def test_reduce_leaves_the_new_part(self):
        ech = Echelon(3)
        assert ech.add(fr(1, 2, 0))
        assert not ech.add(fr(2, 4, 0))
        assert ech.reduce(fr(3, 1, 5)) == fr(0, -5, 5)
        assert ech.rank == 1

    def test_ragged_row(self):
        with pytest.raises(ValueError):
            Echelon(2).add(fr(1, 2, 3))


# -- the integer elimination against the scalar one it replaced -------------

def _entry(draw, ctx, is_complex):
    """A small scalar of Q(sqrt(d)), or of Q(sqrt(d))(i); often zero."""
    def real():
        if draw(st.integers(0, 3)) == 0:
            return FieldScalar(0, 0, ctx)
        a = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        b = (draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
             if ctx.d else 0)
        return FieldScalar(a, b, ctx)
    return ComplexScalar(real(), real()) if is_complex else real()


@st.composite
def matrices(draw):
    """(rows, ncols) over Q, Q(sqrt 2) or Q(sqrt 5), real or complex; some
    rows are combinations of earlier ones with coefficients in the
    field, so the rank often falls short."""
    ctx = FieldCtx.get(draw(st.sampled_from([0, 2, 5])))
    is_complex = draw(st.booleans())
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 2)) == 0:
            p, q = (draw(st.sampled_from(rows)) for _ in range(2))
            s, t = (_entry(draw, ctx, is_complex) for _ in range(2))
            rows.append([s * x + t * y for x, y in zip(p, q)])
        else:
            rows.append([_entry(draw, ctx, is_complex) for _ in range(m)])
    return rows, m


class TestAgainstScalarElimination:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_echelon(self, case):
        rows, m = case
        ech, ref = Echelon(m), RefEchelon(m)
        for row in rows:
            assert ech.add(row) == ref.add(row)
            assert ech.rank == ref.rank
            assert ech.pivots == ref.pivots
        assert ech.rows == ref.rows
        for row in rows:
            assert ech.reduce(row) == ref.reduce(row)
        probe = rows[-1][::-1] if len(rows[-1]) == m else rows[-1]
        assert ech.reduce(probe) == ref.reduce(probe)

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_row_reduce(self, case):
        rows, m = case
        assert row_reduce(rows, ncols=m) == ref_row_reduce(rows, ncols=m)

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_basis_rows_stay_primitive(self, case):
        # each integer basis row is divided by its content and has a
        # positive integer at its pivot, so entries stay small
        rows, m = case
        ech = Echelon(m)
        for row in rows:
            ech.add(row)
            for basis in (ech._basis, ech._reduced()):
                for col, row_ints in basis:
                    assert row_ints[col][1:] == (0, 0, 0)
                    assert row_ints[col][0] > 0
                    assert gcd(*(x for q in row_ints for x in q)) == 1


class TestRelationLattice:
    def test_half_and_one(self):
        R, A = rational_relation_lattice([Fraction(1, 2), Fraction(1)])
        assert len(R) == 1 and len(A) == 1
        q = R[0]
        assert q[0] * Fraction(1, 2) + q[1] * Fraction(1) == 0
        a = A[0]
        assert a[1] == 2 * a[0]  # span{(1, 2)}

    def test_one_and_sqrt5(self):
        R, A = rational_relation_lattice(
            [FieldScalar(1, 0, Q5), FieldScalar(0, 1, Q5)])
        assert R == []
        assert len(A) == 2

    def test_all_equal(self):
        R, A = rational_relation_lattice([1, 1, 1])
        assert len(R) == 2
        assert len(A) == 1

    @given(st.integers(1, 5), st.integers(0, 10**4))
    @settings(max_examples=40, deadline=None)
    def test_properties(self, r, seed):
        rng = random.Random(seed)
        vals = [FieldScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                            Fraction(rng.randint(-2, 2)), Q5) for _ in range(r)]
        R, A = rational_relation_lattice(vals)
        assert len(R) + len(A) == r
        for q in R:
            acc = FieldScalar(0, 0, Q5)
            for qi, vi in zip(q, vals):
                acc = acc + vi * qi
            assert acc.is_zero()
            for a in A:
                dot = sum((qi * ai for qi, ai in zip(q, a)), Fraction(0))
                assert dot == 0


class TestIntegerForms:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**4))
    @settings(max_examples=60, deadline=None)
    def test_hermite(self, n, m, seed):
        rng = random.Random(seed)
        mat = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        # U is the tail of the Hermite form of [mat | I]
        hu = hermite_form([row + [int(i == j) for j in range(n)]
                           for i, row in enumerate(mat)])
        h, u = [r[:m] for r in hu], [r[m:] for r in hu]
        assert abs(det_int(u)) == 1
        for i in range(n):
            got = [sum(u[i][k] * mat[k][j] for k in range(n)) for j in range(m)]
            assert got == h[i]

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**4))
    @settings(max_examples=60, deadline=None)
    def test_smith(self, n, m, seed):
        rng = random.Random(seed)
        mat = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        diag, u, v, vinv = smith_form(mat)
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        prod = [[sum(v[i][k] * vinv[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)]
        assert prod == [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        uav = [[sum(sum(u[i][k] * mat[k][l] for k in range(n)) * v[l][j]
                    for l in range(m)) for j in range(m)] for i in range(n)]
        for i in range(n):
            for j in range(m):
                want = diag[i] if (i == j and i < len(diag)) else 0
                assert uav[i][j] == want

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**4))
    @settings(max_examples=60, deadline=None)
    def test_kernel(self, n, m, seed):
        rng = random.Random(seed)
        mat = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        ker = integer_kernel(mat)
        for x in ker:
            got = [sum(x[i] * mat[i][j] for i in range(n)) for j in range(m)]
            assert got == [0] * m
        rank_rows = row_reduce([[Fraction(x) for x in row] for row in mat],
                               ncols=m)[0]
        assert len(ker) == n - rank_rows
