from flatdef.cylinders import decompose
from flatdef.deform import eta
from flatdef.field import FieldCtx, FieldScalar, Vec2, scalar_sign
from flatdef.homology import homology_frame

Q5 = FieldCtx.get(5)
Q2 = FieldCtx.get(2)


class TestScalarSign:
    def test_spec_examples(self):
        assert scalar_sign(FieldScalar(0, 0, Q5)) == 0
        assert scalar_sign(FieldScalar(1, -1, Q5)) == -1
        assert scalar_sign(FieldScalar(-3, 2, Q2)) == -1


class TestProjectedEta:
    def test_l_origami_horizontal_eta_projects_nonzero(self, l_origami):
        f = homology_frame(l_origami)
        d = decompose(l_origami, Vec2(1, 0), frame=f)
        p = f.project_absolute(eta(l_origami, f, d))
        assert any(not v.is_zero() for v in p)

