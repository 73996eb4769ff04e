from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.homology import homology_frame
from flatdef.intmat import det_int
from flatdef.linalg import ComplexScalar, row_reduce
from flatdef.surface import TranslationSurface, l_shape, square_tiled

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


def torus():
    return square_tiled([], [], n=1, label="torus")


def l_origami():
    return square_tiled([(1, 2)], [(1, 3)], n=3, label="l-origami")


def golden_l():
    return l_shape(PHI, 1, 1, PHI - 1, label="golden-l")


def marked_torus(a=Fraction(1, 2)):
    """Unit torus with two marked points on the same horizontal leaf."""
    one = FieldScalar(1)
    polys = [
        [Vec2(a, 0), Vec2(0, 1), Vec2(-a, 0), Vec2(0, -1)],
        [Vec2(1 - a, 0), Vec2(0, 1), Vec2(a - 1, 0), Vec2(0, -1)],
    ]
    gluing = [((0, 1), (1, 3)), ((1, 1), (0, 3)),
              ((0, 2), (0, 0)), ((1, 2), (1, 0))]
    return TranslationSurface(polys, gluing, "marked-torus")


FRAMES = [homology_frame(make()) for make in
          (torus, l_origami, golden_l, marked_torus)]


class TestSparseCoords:
    """`coords_of_chain` sums over the chain's nonzero entries only; it
    must equal the dense product with the coordinate columns."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_dense_product(self, data):
        frame = data.draw(st.sampled_from(FRAMES))
        ne = len(frame.cells)
        chain = data.draw(st.lists(
            st.one_of(st.just(0), st.integers(-5, 5)),
            min_size=ne, max_size=ne))
        dense = [sum(chain[e] * frame._coord_cols[e][k] for e in range(ne))
                 for k in range(frame.m)]
        assert frame.coords_of_chain(chain) == dense


class TestFrame:
    def test_torus(self):
        f = homology_frame(torus())
        assert f.m == 2
        assert len(f.absolute_basis) == 2
        assert [list(r) for r in f.intersection_matrix] == [[0, 1], [-1, 0]]

    def test_l_origami(self):
        f = homology_frame(l_origami())
        assert f.m == 4
        assert len(f.absolute_basis) == 4
        j = [list(r) for r in f.intersection_matrix]
        assert det_int(j) == 1
        for i in range(4):
            for k in range(4):
                assert j[i][k] == -j[k][i]

    def test_marked_torus(self):
        f = homology_frame(marked_torus())
        data = f.surface.singularities()
        assert data.genus == 1
        assert data.num_points == 2
        assert f.m == 3
        assert len(f.absolute_basis) == 2

    def test_golden_l(self):
        f = homology_frame(golden_l())
        assert f.m == 4
        assert det_int([list(r) for r in f.intersection_matrix]) == 1

    def test_j_inverse(self):
        # J^-1 from the Smith form inverts J; a singular form and one
        # with a diagonal entry other than 1 raise
        for surf in (torus(), l_origami(), golden_l()):
            f = homology_frame(surf)
            J, inv = f.intersection_matrix, f.j_inverse()
            n = len(J)
            assert [[sum(J[i][k] * inv[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)] == \
                [[int(i == j) for j in range(n)] for i in range(n)]
        f = homology_frame(torus())
        for J, message in ((((0, 1), (0, 0)), "singular"),
                           (((0, 2), (-2, 0)), "not unimodular")):
            f.intersection_matrix = J
            with pytest.raises(InternalInvariantError, match=message):
                f.j_inverse()

    def test_deterministic(self):
        f1 = homology_frame(torus())
        f2 = homology_frame(square_tiled([], [], n=1, label="torus"))
        assert f1.hash == f2.hash
        assert f1.basis_chains == f2.basis_chains

    def test_face_boundaries_pair_to_zero(self):
        surf = l_origami()
        f = homology_frame(surf)
        ne = len(f.cells)
        for p, poly in enumerate(surf.polygons):
            face = [0] * ne
            for e in range(len(poly)):
                c, s = f.cell_of[(p, e)]
                face[c] += s
            assert all(x == 0 for x in f.coords_of_chain(face))
            for vec in f.absolute_basis:
                chain = f.chain_of_coords(vec)
                assert f.intersection_of_chains(face, chain) == 0


class TestPeriods:
    def test_torus_periods(self):
        f = homology_frame(torus())
        per = f.periods()
        vals = {(p.re, p.im) for p in per}
        assert vals == {(FieldScalar(1), FieldScalar(0)),
                        (FieldScalar(0), FieldScalar(1))}

    def test_sheared_torus_periods(self):
        m = torus().apply_matrix(Mat2.shear(1))
        per = homology_frame(m).periods()
        vals = {(p.re, p.im) for p in per}
        assert vals == {(FieldScalar(1), FieldScalar(0)),
                        (FieldScalar(1), FieldScalar(1))}

    def test_golden_periods_live_in_q_sqrt5(self):
        per = homology_frame(golden_l()).periods()
        assert any(p.re.b != 0 or p.im.b != 0 for p in per)

    def test_period_matrix_action(self):
        g = Mat2(1, 2, -2, 1)
        surf = l_origami()
        f = homology_frame(surf)
        per = f.periods()
        moved = surf.apply_matrix(g)
        f2 = homology_frame(moved)
        # same combinatorics: same cells and basis chains
        assert f2.basis_chains == f.basis_chains
        per2 = f2.periods()
        for p, q in zip(per, per2):
            v = g.apply(Vec2(p.re, p.im))
            assert (q.re, q.im) == (v.x, v.y)


class TestProjection:
    def test_dual_basis_rank_is_2g(self):
        for surf in (torus(), l_origami(), marked_torus(), golden_l()):
            f = homology_frame(surf)
            rows = []
            for k in range(f.m):
                dual = f.cocycle([ComplexScalar(1 if i == k else 0)
                                  for i in range(f.m)])
                rows.append(list(f.project_absolute(dual)))
            rank, _, _ = row_reduce(rows, ncols=2 * f.genus)
            assert rank == 2 * f.genus

    def test_relative_class_projects_to_zero(self):
        f = homology_frame(marked_torus())
        # a cocycle supported on the relative part: kill the absolute basis
        rows = [[ComplexScalar(c) for c in vec] for vec in f.absolute_basis]
        _, _, null = row_reduce(rows, ncols=f.m)
        assert null
        c = f.cocycle(null[0])
        assert all(v.is_zero() for v in f.project_absolute(c))

    def test_torus_dual_of_first_basis_class(self):
        f = homology_frame(torus())
        c = f.cocycle([ComplexScalar(1), ComplexScalar(0)])
        proj = f.project_absolute(c)
        assert [(-(-v.re)).a for v in proj] in ([1, 0], [0, 1])


class TestPaths:
    def test_edge_path_on_torus(self):
        f = homology_frame(torus())
        chords = [(0, ("vertex", 0), ("vertex", 1))]
        chain = f.chain_of_path(chords)
        assert chain == [1, 0]

    def test_diagonal_path_on_torus(self):
        f = homology_frame(torus())
        half = FieldScalar(Fraction(1, 2))
        # cross the square from corner to corner through the right edge
        chords = [
            (0, ("vertex", 0), ("edge", 1, half)),
            (0, ("edge", 3, half), ("vertex", 2)),
        ]
        chain = f.chain_of_path(chords)
        # the slope-1/2 line wraps twice horizontally, once vertically
        assert chain == [2, 1]
        per = f.periods()
        total = ComplexScalar(2) * per[0] + per[1]
        assert (total.re, total.im) == (FieldScalar(2), FieldScalar(1))

    # a path must continue through each gluing it crosses: the unit
    # torus glues its right edge 1 to its left edge 3
    @pytest.mark.parametrize("entry", [
        ("edge", 2, FieldScalar(Fraction(1, 2))),  # not the partner edge
        ("edge", 3, FieldScalar(Fraction(1, 3))),  # partner, t_in != 1 - t_out
        ("vertex", 3),                             # edge exit, vertex start
    ])
    def test_broken_path_raises(self, entry):
        f = homology_frame(torus())
        half = FieldScalar(Fraction(1, 2))
        chords = [(0, ("vertex", 0), ("edge", 1, half)),
                  (0, entry, ("vertex", 2))]
        with pytest.raises(InternalInvariantError):
            f.chain_of_path(chords)

    def test_stale_cocycle_rejected(self):
        from flatdef.errors import StaleCocycle
        f1 = homology_frame(torus())
        f2 = homology_frame(l_origami())
        c = f1.period_cocycle()
        with pytest.raises(StaleCocycle):
            f2.evaluate(c, [0, 0, 0, 0])
