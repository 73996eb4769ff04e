from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from flatdef.field import FieldCtx, FieldScalar, Mat2, QQ, Vec2, parse_scalar

Q5 = FieldCtx.get(5)
Q2 = FieldCtx.get(2)


def s5(a, b=0):
    return FieldScalar(a, b, Q5)


class TestSign:
    def test_zero(self):
        assert s5(0, 0).sign() == 0

    def test_one_minus_sqrt5(self):
        assert s5(1, -1).sign() == -1

    def test_minus3_plus_2sqrt2(self):
        assert FieldScalar(-3, 2, Q2).sign() == -1

    def test_rational_cases(self):
        assert FieldScalar(Fraction(3, 7)).sign() == 1
        assert FieldScalar(-2).sign() == -1

    def test_golden_ratio_positive(self):
        phi = s5(Fraction(1, 2), Fraction(1, 2))
        assert phi.sign() == 1
        assert (phi * phi - phi - 1).is_zero()


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@st.composite
def field_scalars(draw):
    d = draw(st.sampled_from([0, 2, 3, 5, 7]))
    a = draw(rationals)
    b = draw(rationals) if d else Fraction(0)
    return FieldScalar(a, b, FieldCtx.get(d))


class TestScalarProperties:
    @given(field_scalars())
    def test_sign_antisymmetry(self, s):
        assert s.sign() * (-s).sign() in (0, -1)
        assert (s * s).sign() >= 0

    @given(field_scalars())
    def test_parse_print_roundtrip(self, s):
        assert parse_scalar(str(s)) == s

    @given(field_scalars(), field_scalars())
    def test_ring_ops(self, x, y):
        try:
            assert x + y - y == x
            assert (x * y) - (y * x) == 0
        except ValueError:
            assert x.b != 0 and y.b != 0 and x.ctx.d != y.ctx.d

    @given(field_scalars())
    def test_inverse(self, x):
        if not x.is_zero():
            assert (x * x.inverse() - 1).is_zero()

    @given(field_scalars(), field_scalars())
    def test_order_total(self, x, y):
        if x.ctx.d in (0, y.ctx.d) or y.b == 0 or x.b == 0:
            assert (x < y) or (x == y) or (y < x)


# -- differential tests against a two-Fraction reference model -------------
#
# The reference keeps a scalar as the pair (a, b) of Fractions meaning
# a + b*sqrt(d), the representation FieldScalar had before it moved to
# the integer triple (A + B*sqrt(d))/D.  Every operation of the integer
# core must agree with it exactly, including hash and text.

small_rationals = st.fractions(min_value=-1000, max_value=1000,
                               max_denominator=60)


@st.composite
def same_field_pairs(draw):
    d = draw(st.sampled_from([0, 2, 3, 5, 7]))
    ctx = FieldCtx.get(d)
    out = []
    for _ in range(2):
        a = draw(small_rationals)
        b = draw(small_rationals) if d else Fraction(0)
        out.append(FieldScalar(a, b, ctx))
    return out


def ref(x):
    return x.a, x.b, x.ctx.d


def ref_add(p, q):
    return p[0] + q[0], p[1] + q[1], p[2]


def ref_neg(p):
    return -p[0], -p[1], p[2]


def ref_mul(p, q):
    a1, b1, d = p
    a2, b2, _ = q
    return a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, d


def ref_inverse(p):
    a, b, d = p
    n = a * a - d * b * b
    return a / n, -b / n, d


def ref_sign(p):
    a, b, d = p
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > d * b * b else sb


def ref_hash(p):
    # a rational hashes as the Fraction it equals; any other scalar as
    # the canonical triple, D the lcm of the reduced denominators
    a, b, d = p
    if not b:
        return hash(a)
    D = lcm(a.denominator, b.denominator)
    return hash((int(a * D), int(b * D), D, d))


def ref_str(p):
    a, b, d = p
    if b == 0:
        return str(a)
    return f"{a}{'-' if b < 0 else '+'}{abs(b)}*sqrt({d})"


def check_lowest_terms(x):
    A, B, D = x._A, x._B, x._D
    assert all(type(v) is int for v in (A, B, D))
    assert D > 0
    assert gcd(A, B, D) == 1
    assert x.ctx.d or B == 0


def agrees(x, p):
    check_lowest_terms(x)
    return (x.a, x.b) == (p[0], p[1]) and (x.b == 0 or x.ctx.d == p[2])


class TestDifferential:
    @given(same_field_pairs())
    def test_ring_ops(self, pair):
        x, y = pair
        px, py = ref(x), ref(y)
        assert agrees(x + y, ref_add(px, py))
        assert agrees(x - y, ref_add(px, ref_neg(py)))
        assert agrees(-x, ref_neg(px))
        assert agrees(x * y, ref_mul(px, py))

    @given(same_field_pairs())
    def test_division_and_inverse(self, pair):
        x, y = pair
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                y.inverse()
            with pytest.raises(ZeroDivisionError):
                x / y
            return
        assert agrees(y.inverse(), ref_inverse(ref(y)))
        assert agrees(x / y, ref_mul(ref(x), ref_inverse(ref(y))))

    @given(same_field_pairs(), st.integers(min_value=-4, max_value=4))
    def test_pow(self, pair, n):
        x = pair[0]
        if n < 0 and x.is_zero():
            return
        want = (Fraction(1), Fraction(0), x.ctx.d)
        base = ref(x) if n >= 0 else ref_inverse(ref(x))
        for _ in range(abs(n)):
            want = ref_mul(want, base)
        assert agrees(x ** n, want)

    @given(same_field_pairs())
    def test_sign_order_equality(self, pair):
        x, y = pair
        assert x.sign() == ref_sign(ref(x))
        diff = ref_sign(ref_add(ref(x), ref_neg(ref(y))))
        assert (x < y) == (diff < 0)
        assert (x <= y) == (diff <= 0)
        assert (x > y) == (diff > 0)
        assert (x >= y) == (diff >= 0)
        assert (x == y) == (ref(x)[:2] == ref(y)[:2])
        assert bool(x) == (ref_sign(ref(x)) != 0)

    @given(same_field_pairs())
    def test_hash_and_text(self, pair):
        for x in pair:
            check_lowest_terms(x)
            assert hash(x) == ref_hash(ref(x))
            assert str(x) == ref_str(ref(x))
            back = parse_scalar(str(x))
            check_lowest_terms(back)
            assert back == x and hash(back) == hash(x)

    @pytest.mark.parametrize("q", [20, -3, 0, Fraction(1, 2),
                                   Fraction(-7, 3)])
    def test_rational_hashes_as_the_number_it_equals(self, q):
        # equal values are one set member and one dict key, whatever
        # their type or field
        for x in (FieldScalar(q), FieldScalar(q, 0, Q5)):
            assert x == q and hash(x) == hash(q)
            assert x in {q} and q in {x}
            assert {q: "q"}.get(x) == "q" and {x: "x"}.get(q) == "x"
        assert len({q, FieldScalar(q), FieldScalar(q, 0, Q5)}) == 1

    @given(small_rationals, same_field_pairs())
    def test_plain_rational_operands(self, q, pair):
        x = pair[0]
        pq = (q, Fraction(0), x.ctx.d)
        assert agrees(x + q, ref_add(ref(x), pq))
        assert agrees(q - x, ref_add(pq, ref_neg(ref(x))))
        assert agrees(q * x, ref_mul(pq, ref(x)))
        assert agrees(x * 3, ref_mul(ref(x), (Fraction(3), Fraction(0), x.ctx.d)))
        if not x.is_zero():
            assert agrees(q / x, ref_mul(pq, ref_inverse(ref(x))))
        assert (x == q) == (ref(x)[:2] == (q, 0))

    @given(small_rationals, small_rationals, small_rationals)
    def test_lift_rational_into_quadratic_field(self, q, a, b):
        r = FieldScalar(q)
        x = FieldScalar(a, b or 1, Q5)
        px, pr = ref(x), (q, Fraction(0), 5)
        for got, want in ((r + x, ref_add(pr, px)), (x + r, ref_add(px, pr)),
                          (r * x, ref_mul(pr, px)),
                          (r - x, ref_add(pr, ref_neg(px)))):
            assert agrees(got, want)
        assert (r + x).ctx is Q5 and (x - r).ctx is Q5
        assert (r == x) == (px[:2] == pr[:2])
        assert hash(FieldScalar(q, 0, Q5)) == hash(r)
        assert FieldScalar(q, 0, Q5) == r

    @given(small_rationals, small_rationals)
    def test_incompatible_fields(self, a, b):
        x = FieldScalar(a, 1, Q2) if b == 0 else FieldScalar(a, b, Q2)
        y = FieldScalar(b, 1, Q5)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                   lambda: x / y, lambda: x < y, lambda: y >= x):
            with pytest.raises(ValueError):
                op()
        assert (x == y) is False
        assert (x != y) is True


class TestParse:
    def test_examples(self):
        assert parse_scalar("3/4") == FieldScalar(Fraction(3, 4))
        assert parse_scalar("-2") == FieldScalar(-2)
        x = parse_scalar("1/2+3/2*sqrt(5)")
        assert x == s5(Fraction(1, 2), Fraction(3, 2))
        y = parse_scalar("0-1*sqrt(2)")
        assert y == FieldScalar(0, -1, Q2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scalar("1.5")
        with pytest.raises(ValueError):
            parse_scalar("")
        with pytest.raises(ValueError):
            parse_scalar("sqrt(4)")

    @pytest.mark.parametrize("text", [
        "1/0", "0/0", "-3/0", "1/0+1*sqrt(2)", "1/2+1/0*sqrt(5)",
        "1-2/0*sqrt(3)",
    ])
    def test_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="cannot parse scalar"):
            parse_scalar(text)

    # Arabic-Indic three, fullwidth three over Arabic-Indic four, and a
    # non-ASCII digit inside sqrt(): the grammar is ASCII [0-9] only, as
    # in surface files
    @pytest.mark.parametrize("text", [
        "\u0663", "\uff13/\u0664", "1+1*sqrt(\u0665)", "\u00a03",
    ])
    def test_rejects_non_ascii(self, text):
        with pytest.raises(ValueError, match="cannot parse scalar"):
            parse_scalar(text)

    def test_rejects_non_square_free(self):
        with pytest.raises(ValueError):
            FieldCtx.get(4)
        with pytest.raises(ValueError):
            FieldCtx.get(1)
        with pytest.raises(ValueError):
            FieldCtx.get(12)

    # square-freeness is trial division up to sqrt(d): this d ran for
    # longer than 5 s before d was bounded
    HUGE = "1*sqrt(100000000000000000000000000000000000000000037)"

    def test_rejects_huge_d(self):
        with pytest.raises(ValueError, match=r"^d must be below 2\*\*31, got "):
            parse_scalar(self.HUGE)
        for d in (2 ** 31, 10 ** 44 + 37):
            with pytest.raises(ValueError, match=r"below 2\*\*31"):
                FieldCtx.get(d)
        # 2**31 - 1 is prime, so square-free: the largest field there is
        assert FieldCtx.get(2 ** 31 - 1).d == 2 ** 31 - 1


class TestCtx:
    def test_ctx_identity_cached(self):
        assert FieldCtx.get(5) is Q5

    def test_rational_mixes_with_any_field(self):
        x = FieldScalar(2)
        y = s5(1, 1)
        assert (x + y) == s5(3, 1)

    def test_incompatible_fields_raise(self):
        with pytest.raises(ValueError):
            _ = s5(1, 1) + FieldScalar(1, 1, Q2)

    def test_d_zero_with_irrational_part_raises(self):
        with pytest.raises(ValueError):
            FieldScalar(1, 1, QQ)

    # int(d) read 5.7 and "5" as Q(sqrt 5) and False as Q
    @pytest.mark.parametrize("d", [5.7, 5.0, "5", False, True, None,
                                   Fraction(5), Decimal(5)])
    def test_get_takes_only_an_int(self, d):
        with pytest.raises(TypeError, match="is not an integer"):
            FieldCtx.get(d)


# values Fraction() would take but that are not exact rationals here: a
# float would silently become its binary expansion (0.1 is
# 3602879701896397/36028797018963968), a str or a Decimal would bypass
# parse_scalar
INEXACT = [0.1, 2.0, float("inf"), "1/2", "0.1", Decimal("0.1"), None]


class TestExactInput:
    @pytest.mark.parametrize("x", INEXACT)
    def test_scalar_rejects(self, x):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            FieldScalar(x)
        with pytest.raises(TypeError, match="expected int or Fraction"):
            FieldScalar(1, x, Q5)

    @pytest.mark.parametrize("x", INEXACT)
    def test_vectors_and_matrices_inherit(self, x):
        with pytest.raises(TypeError):
            Vec2(x, 1)
        with pytest.raises(TypeError):
            Vec2(0, x)
        with pytest.raises(TypeError):
            Mat2(1, x, 0, 1)
        with pytest.raises(TypeError):
            Mat2.shear(x)

    def test_exact_values_accepted(self):
        assert FieldScalar(Fraction(1, 10)) == parse_scalar("1/10")
        assert FieldScalar(True) == FieldScalar(1)
        assert FieldScalar(3, Fraction(1, 2), Q5) == s5(3, Fraction(1, 2))


def ref_float(x):
    """float(x) by way of a Decimal.  The value is at least
    1/(D*(|A| + |B|*sqrt(d))) (its norm is a non-zero integer), so twice
    the digits of its text plus 40 leave 40 correct digits however far
    its parts cancel, and float(Decimal) rounds correctly."""
    a, b, d = ref(x)
    with localcontext() as c:
        c.prec = 2 * len(str(x)) + 40
        v = (Decimal(a.numerator) / a.denominator
             + Decimal(b.numerator) / b.denominator * Decimal(d).sqrt())
        return float(v)


@st.composite
def powers_of_units(draw):
    # (1 +- sqrt d)**n: parts that grow with n and cancel for the sign -
    d = draw(st.sampled_from([2, 3, 5, 7, 31, 1009]))
    unit = FieldScalar(1, draw(st.sampled_from([1, -1])), FieldCtx.get(d))
    return unit ** draw(st.integers(0, 150)) * draw(small_rationals)


class TestFloat:
    def test_cancelling_power(self):
        # 0.125 too small, with the wrong sign, when a and b*sqrt(2) were
        # rounded apart
        x = FieldScalar(1, -1, Q2) ** 40
        assert float(x) == ref_float(x) == pytest.approx(4.886215156265627e-16)

    def test_huge_cancelling_parts(self):
        # a - b*sqrt(2) for a + b*sqrt(2) = (1 + sqrt 2)**1100: a has 422
        # digits, so a / D alone overflowed
        p = FieldScalar(1, 1, Q2) ** 1100
        x = FieldScalar(p.a, -p.b, Q2)
        assert float(x) == 0.0
        assert float(x * 10 ** 421) == ref_float(x * 10 ** 421)

    @given(st.one_of(field_scalars(), powers_of_units()))
    def test_correctly_rounded(self, x):
        assert float(x) == ref_float(x)


class TestVecMat:
    def test_cross_and_dot(self):
        u = Vec2(1, 2)
        v = Vec2(3, 4)
        assert u.cross(v) == FieldScalar(-2)
        assert u.dot(v) == FieldScalar(11)

    def test_direction_normalizer(self):
        v = Vec2(1, 2)
        g = Mat2.direction_normalizer(v)
        assert g.apply(v) == Vec2(5, 0)
        assert g.det() == FieldScalar(5)

    def test_matrix_inverse(self):
        g = Mat2(1, 2, -2, 1)
        gi = g.inverse()
        assert (g @ gi) == Mat2(1, 0, 0, 1)

    def test_shear(self):
        u = Mat2.shear(Fraction(1, 3))
        assert u.apply(Vec2(0, 1)) == Vec2(Fraction(1, 3), 1)
