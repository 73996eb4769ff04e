"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.  All ten criteria are expected to pass.  Criterion 4 checks
the true rank-1 certificate of the torus and the 3-square origami, both
lattice surfaces; README, "Criterion 4: the rank certificate of a
square-tiled surface is rank 1" says why that is the most any sound
certificate can give.
"""

import itertools
import random
import time
from fractions import Fraction

from flatdef.analysis import (HAS_UNCERTIFIED, accumulate_tangent,
                              field_bound, complete_periodicity_scan,
                              rank_lower_bound)
from flatdef.cylinders import PERIODIC, decompose
from flatdef.deform import torus_closure, twist_space, verify_linearity
from flatdef.equivalence import translation_equivalent
from flatdef.field import FieldCtx, FieldScalar, Vec2, parse_scalar
from flatdef.homology import homology_frame
from flatdef.linalg import ComplexScalar, Echelon, row_reduce
from flatdef.search import enumerate_directions
from flatdef.serialize import (decomposition_to_json, dumps, span_to_json,
                               surface_to_json)
from flatdef.deform import shear
from flatdef.surface import l_shape, square_tiled

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)

DIRECTIONS = [Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)]
TS = [Fraction(1, 3), Fraction(7, 5)]


def fixtures():
    return [
        ("torus", square_tiled([], [], n=1, label="torus")),
        ("l-origami", square_tiled([(1, 2)], [(1, 3)], n=3,
                                   label="l-origami")),
        ("golden-l", l_shape(PHI, 1, 1, PHI - 1, label="golden-l")),
    ]


def report(num, ok, text, elapsed=None):
    mark = "PASS" if ok else "FAIL"
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:2d} {mark}{stamp}: {text}")


def test_criterion_01_shear_linearity():
    t0 = time.time()
    ok = True
    for name, surf in fixtures():
        frame = homology_frame(surf)
        for v in DIRECTIONS:
            dec = decompose(surf, v, frame=frame)
            if dec.status != PERIODIC:
                continue
            for t in TS:
                if not verify_linearity(surf, frame, dec, t):
                    ok = False
    elapsed = time.time() - t0
    report(1, ok and elapsed < 5,
           "Phi(shear(M,C,t)) = Phi(M) + t*eta exactly, "
           f"t in {{1/3, 7/5}}, three fixtures x three directions", elapsed)
    assert ok
    assert elapsed < 5


def test_criterion_02_dehn_twist_return():
    t0 = time.time()
    torus = square_tiled([], [], n=1, label="torus")
    lori = square_tiled([(1, 2)], [(1, 3)], n=3, label="l-origami")
    d1 = decompose(torus, Vec2(1, 0))
    d2 = decompose(lori, Vec2(1, 0))
    ok = translation_equivalent(shear(torus, d1, 1), torus)
    ok = ok and translation_equivalent(shear(lori, d2, 2), lori)
    elapsed = time.time() - t0
    report(2, ok and elapsed < 10,
           "full Dehn twists return the original surfaces exactly", elapsed)
    assert ok
    assert elapsed < 10


def _scan_corpus():
    out = []
    for name, surf in fixtures():
        radius = 10 if name == "golden-l" else 5
        factor = 50
        frame = homology_frame(surf)
        for d in enumerate_directions(surf, radius):
            dec = decompose(surf, d, trace_factor=factor, frame=frame)
            out.append((name, surf, frame, dec))
    return out


def test_criterion_03_isotropy():
    t0 = time.time()
    checked = 0
    ok = True
    for name, surf, frame, dec in _scan_corpus():
        if dec.status != PERIODIC:
            continue
        gens, _ = twist_space(surf, frame, dec)
        projected = [frame.project_absolute(g) for g in gens]
        for pa in projected:
            for pb in projected:
                checked += 1
                if not frame.symplectic_pairing(pa, pb).is_zero():
                    ok = False
    elapsed = time.time() - t0
    report(3, ok, f"projected twist spaces isotropic: {checked} pairings "
                  f"all exactly zero over the scan corpus", elapsed)
    assert checked > 0
    assert ok


def _gl2_span_rank(span):
    """Complex rank of the span's generators together with Re(omega) and
    Im(omega); it equals 2 exactly when every generator lies in the
    tangent space of the GL(2,R) orbit."""
    frame = span.frame
    omega = frame.period_cocycle()
    rows = [list(gen.values) for gen, _ in span.generators]
    rows.append([ComplexScalar(v.re) for v in omega.values])
    rows.append([ComplexScalar(v.im) for v in omega.values])
    rank, _, _ = row_reduce(rows, ncols=frame.m)
    return rank


def _rank_certificate(surf):
    """(dim_C, p-dim, k_lb, GL(2,R)-span rank, every direction certified)
    of the span accumulated over all directions up to radius 10."""
    dirs = [d.vector for d in enumerate_directions(surf, 10)]
    span = accumulate_tangent(surf, dirs)
    certified = sum(1 for _, prov in span.generators
                    if prov["rule"] == "CertifiedPeriodic")
    complete = not span.skipped and certified == len(dirs)
    return (span.dim(), span.p_dim(), rank_lower_bound(span),
            _gl2_span_rank(span), complete)


def test_criterion_04_rank_certificate():
    # Square-tiled surfaces are lattice surfaces: the orbit closure is
    # the closed GL(2,R) orbit, whose tangent space span_C(Re w, Im w)
    # has dim_C = p-dim = 2 and cylinder rank 1, and every saddle
    # connection direction is completely periodic.  Full-set shears are
    # horocycle derivatives, so the certified span must equal that
    # tangent space.  See README, "Criterion 4: the rank certificate of a
    # square-tiled surface is rank 1".
    expected = (2, 2, 1, 2, True)  # the fields of _rank_certificate
    t0 = time.time()
    torus = square_tiled([], [], n=1, label="torus")
    cert_t = _rank_certificate(torus)
    lori = square_tiled([(1, 2)], [(1, 3)], n=3, label="l-origami")
    cert_l = _rank_certificate(lori)
    elapsed = time.time() - t0
    report(4, cert_t == expected and cert_l == expected and elapsed < 30,
           f"rank certificate (dim_C, p-dim, k_lb, GL(2,R)-span rank, all "
           f"directions certified): torus {cert_t}, 3-square origami "
           f"{cert_l}, both rank-1 lattice surfaces expect {expected}",
           elapsed)
    assert elapsed < 30
    assert cert_t == expected
    assert cert_l == expected


def test_criterion_05_dimension_bookkeeping():
    t0 = time.time()
    ok = True
    for name, surf in fixtures():
        data = surf.singularities()
        frame = homology_frame(surf)
        g, s = data.genus, data.num_points
        if frame.m != 2 * g + s - 1:
            ok = False
        if sum(data.cone_orders) != 2 * g - 2:
            ok = False
        rows = []
        for k in range(frame.m):
            dual = frame.cocycle([ComplexScalar(1 if i == k else 0)
                                  for i in range(frame.m)])
            rows.append(list(frame.project_absolute(dual)))
        rank, _, _ = row_reduce(rows, ncols=2 * g)
        if rank != 2 * g:
            ok = False
        for v in DIRECTIONS:
            dec = decompose(surf, v, frame=frame)
            if dec.status != PERIODIC:
                continue
            acc = FieldScalar(0, 0, surf.ctx)
            for cyl in dec.cylinders:
                acc = acc + cyl.height * cyl.circumference
            if not (acc - dec.normalized.area()).is_zero():
                ok = False
    elapsed = time.time() - t0
    report(5, ok, "m = 2g+s-1, projection rank 2g, angle count 2g-2, "
                  "and exact area sums on every fixture", elapsed)
    assert ok


def test_criterion_06_golden_complete_periodicity():
    t0 = time.time()
    golden = l_shape(PHI, 1, 1, PHI - 1, label="golden-l")
    scan = complete_periodicity_scan(golden, 10, trace_factor=50)
    zero_bad = scan["counts"][HAS_UNCERTIFIED] == 0
    dec = decompose(golden, Vec2(1, 0))
    moduli = [c.modulus for c in dec.cylinders]
    phi_minus_1 = PHI - 1
    horiz_ok = (len(moduli) == 2
                and all((m - phi_minus_1).is_zero() for m in moduli)
                and (moduli[0] / moduli[1]).is_rational()
                and (moduli[0] / moduli[1]) == 1)
    elapsed = time.time() - t0
    ok = zero_bad and horiz_ok and elapsed < 60
    report(6, ok, f"golden L scan over {scan['directions']} directions: "
                  f"no uncertified cylinder direction; horizontal moduli "
                  f"both phi-1 with ratio 1", elapsed)
    assert zero_bad
    assert horiz_ok
    assert elapsed < 60


def test_criterion_07_field_bounds():
    t0 = time.time()
    ok = True
    singles = 0
    for name, surf, frame, dec in _scan_corpus():
        if not dec.cylinders:
            continue
        rep = field_bound(dec)
        if rep.single_cylinder:
            singles += 1
            if rep.field_name != "Q":
                ok = False
        if name in ("torus", "l-origami") and rep.field_name != "Q":
            ok = False
    golden = l_shape(PHI, 1, 1, PHI - 1)
    rep = field_bound(decompose(golden, Vec2(1, 0)))
    if rep.field_name != "Q(sqrt(5))":
        ok = False
    elapsed = time.time() - t0
    report(7, ok, f"field bounds: {singles} single-cylinder directions all "
                  f"report Q; golden horizontal reports Q(sqrt(5)); "
                  f"square-tiled directions all report Q", elapsed)
    assert singles > 0
    assert ok


def _brute_force_relation_dim(values, bound=20):
    """Dimension of the relations found by enumerating every integer
    vector with entries in [-bound, bound] (meet-in-the-middle over the
    integer-scaled rational and irrational parts; keys packed into one
    integer for speed).  Stops early at the maximal possible rank."""
    r = len(values)
    denom = 1
    for v in values:
        denom = denom * v.a.denominator * v.b.denominator
    pairs = [(int(v.a * denom), int(v.b * denom)) for v in values]
    span = range(-bound, bound + 1)
    max_abs = sum(max(abs(a), abs(b)) for a, b in pairs) * bound + 1
    pack = 4 * max_abs

    n_left = r // 2
    left = pairs[:n_left]
    right = pairs[n_left:]
    table = {}
    for combo in itertools.product(span, repeat=n_left):
        sa = sb = 0
        for q, (a, b) in zip(combo, left):
            sa += q * a
            sb += q * b
        table.setdefault(sa * pack + sb, []).append(combo)
    tracker = Echelon(r)
    max_rank = r - 1  # positive values admit no single-slot relation
    for combo in itertools.product(span, repeat=len(right)):
        sa = sb = 0
        for q, (a, b) in zip(combo, right):
            sa += q * a
            sb += q * b
        hits = table.get(-(sa * pack + sb))
        if not hits:
            continue
        for lcombo in hits:
            q = lcombo + combo
            if any(q):
                tracker.add([Fraction(x) for x in q])
        if tracker.rank >= max_rank:
            return tracker.rank
    return tracker.rank


def _random_moduli_instance(rng):
    """Random positive moduli whose relation lattice has a basis of
    height at most 20 (so the bounded brute force is complete).

    Rational instances are p/q with p, q <= 4: pairwise relations have
    entries p_j q_i <= 16.  Mixed instances take a_i + b_i sqrt(5) with
    integers 0 <= a, b <= 3 and consecutive columns independent:
    consecutive-triple Cramer relations have entries |a_i b_j - a_j b_i|
    <= 9 and form a staircase basis of the full lattice.
    """
    r = rng.randint(1, 5)
    if rng.random() < 0.5:
        vals = [FieldScalar(Fraction(rng.randint(1, 4), rng.randint(1, 4)),
                            0, Q5) for _ in range(r)]
        expected_dim_a = 1
    else:
        cols = []
        while len(cols) < r:
            cand = (rng.randint(0, 3), rng.randint(0, 3))
            if cand == (0, 0):
                continue
            if cols:
                a, b = cols[-1]
                if a * cand[1] - b * cand[0] == 0:
                    continue  # keep consecutive columns independent
            cols.append(cand)
        vals = [FieldScalar(a, b, Q5) for a, b in cols]
        expected_dim_a = min(2, r)
    return vals, expected_dim_a


def test_criterion_08_torus_closure_oracle():
    t0 = time.time()
    rng = random.Random(20260808)
    ok = True
    for case in range(50):
        vals, expected_dim_a = _random_moduli_instance(rng)
        r = len(vals)
        tc = torus_closure(vals)
        bf_relation_dim = _brute_force_relation_dim(vals)
        if bf_relation_dim != r - tc.dimension:
            ok = False
        if tc.dimension != expected_dim_a:
            ok = False
    elapsed = time.time() - t0
    report(8, ok and elapsed < 30,
           "torus-closure dimensions agree with the brute-force relation "
           "search on 50 random instances (r <= 5)", elapsed)
    assert ok
    assert elapsed < 30


def test_criterion_09_order_invariance():
    t0 = time.time()
    ok = True
    for name, surf in fixtures():
        dirs = [Vec2(1, 0), Vec2(0, 1), Vec2(1, 1), Vec2(2, 1)]
        seen = set()
        for perm in itertools.permutations(dirs):
            span = accumulate_tangent(surf, list(perm))
            seen.add((span.dim(), span.p_dim()))
        if len(seen) != 1:
            ok = False
    elapsed = time.time() - t0
    report(9, ok, "accumulated span dimensions independent of direction "
                  "order on all fixtures", elapsed)
    assert ok


def test_criterion_10_round_trip_determinism():
    t0 = time.time()
    ok = True
    for name, surf in fixtures():
        a = dumps(surface_to_json(surf))
        fresh = dict(fixtures())[name]
        b = dumps(surface_to_json(fresh))
        if a != b:
            ok = False
        dec_a = dumps(decomposition_to_json(decompose(surf, Vec2(1, 1))))
        dec_b = dumps(decomposition_to_json(decompose(fresh, Vec2(1, 1))))
        if dec_a != dec_b:
            ok = False
        span1 = accumulate_tangent(surf, [Vec2(1, 0), Vec2(0, 1)])
        cert1 = dumps(span_to_json(span1, rank_lower_bound(span1)))
        span2 = accumulate_tangent(fresh, [Vec2(1, 0), Vec2(0, 1)])
        cert2 = dumps(span_to_json(span2, rank_lower_bound(span2)))
        if cert1 != cert2:
            ok = False
    rng = random.Random(424242)
    for _ in range(1000):
        d = rng.choice([0, 2, 3, 5, 7, 11])
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) \
            if d else Fraction(0)
        x = FieldScalar(a, b, FieldCtx.get(d))
        if parse_scalar(str(x)) != x:
            ok = False
    elapsed = time.time() - t0
    report(10, ok, "byte-identical files and certificates across runs; "
                   "1000 random scalars round-trip through text", elapsed)
    assert ok
