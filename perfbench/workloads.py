"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload turns a seed into a list of op inputs (its set-up), runs
one op on one input, and checks the op's JSON output.  Inputs never
repeat within a list, so no cache can stand in for work.  Ops call the
library through module attributes (``cylinders.decompose``, not a name
imported here), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from fractions import Fraction

from flatdef import cli, cylinders, deform, equivalence, homology, serialize
from flatdef import surface as surface_mod
from flatdef.errors import NotConnected
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2, parse_scalar


class OpFailed(Exception):
    """A CLI op that exited with a non-zero code."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"flatdef-bench/{workload}/{seed}")


def _scalar_sum(values):
    total = FieldScalar(0)
    for v in values:
        total = total + parse_scalar(v)
    return total


# -- golden-certify --------------------------------------------------------

GOLDEN_MAX_LEN = "1"
GOLDEN_ENTRY_MAX = 2


def golden_l():
    phi = FieldScalar(Fraction(1, 2), Fraction(1, 2), FieldCtx.get(5))
    return surface_mod.l_shape(phi, 1, 1, phi - 1, label="golden-l")


def golden_matrices():
    """SL(2,Z) matrices with entries in [-2, 2], in a fixed order."""
    r = range(-GOLDEN_ENTRY_MAX, GOLDEN_ENTRY_MAX + 1)
    return [(a, b, c, d) for a in r for b in r for c in r for d in r
            if a * d - b * c == 1]


# Images of the golden L on which `decompose` raises InternalInvariantError
# ("ray ... escaped the boundary") in the direction (1,0) or (0,1), under
# both `scan` and `rank`.  The workload leaves them out, so that no op of
# it fails; tests/test_perfbench.py reproduces the defect on the first.
GOLDEN_KNOWN_DEFECT = ((2, 1, 1, 1), (1, -2, 1, -1), (-1, -1, 2, 1),
                       (-1, 1, 1, -2))


class GoldenCertify:
    """CLI `scan --mode field` / `rank` on SL(2,Z) images of the golden L."""

    name = "golden-certify"
    trace_ops = 20

    def setup(self, seed: int, workdir: str):
        """Write one surface file per matrix; the ops come in two passes.

        The first pass runs every image once, and the second runs each
        image again with the other command, so no (command, image) pair
        repeats.  The command of an image in the first pass is fixed by
        its matrix's place in the fixed list of matrices used, so every
        run's first pass holds the same pairs, in a seeded order.
        `rank` costs more than `scan` on the same image, so a seeded
        choice of command would change the upper quartile of the
        latencies from seed to seed.
        """
        rng = _rng(self.name, seed)
        matrices = [m for m in golden_matrices()
                    if m not in GOLDEN_KNOWN_DEFECT]
        base = golden_l()
        out = os.path.join(workdir, "golden-out.json")
        paths = []
        for k, m in enumerate(matrices):
            s = base.apply_matrix(Mat2(*m), label=f"golden-l {m}")
            s.singularities()
            path = os.path.join(workdir, f"golden-{k}.json")
            serialize.dump_surface(s, path)
            paths.append(path)
        items = []
        for first in (0, 1):
            commands = [(path, "scan" if (k + first) % 2 == 0 else "rank")
                        for k, path in enumerate(paths)]
            rng.shuffle(commands)
            for path, command in commands:
                argv = [command, path] + (["--mode", "field"]
                                          if command == "scan" else [])
                items.append((argv + ["--max-len", GOLDEN_MAX_LEN, "-o", out],
                              out))
        return items

    def key(self, item):
        argv, _out = item
        with open(argv[1], encoding="utf-8") as fh:
            return (argv[0], fh.read())

    def run(self, item) -> str:
        argv, out = item
        # rank writes a one-line summary to stderr; keep the report clean
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise OpFailed(f"flatdef {argv[0]} exited with code {rc}")
        with open(out, encoding="utf-8") as fh:
            return fh.read()

    def check(self, data) -> str | None:
        if data.get("mode") == "field":
            bad = [e["direction"] for e in data["entries"]
                   if e["status"] != cylinders.PERIODIC]
            if bad:
                return f"HasCylinderNotCertifiedPeriodic directions {bad}"
            if len(data["entries"]) != data["directions"]:
                return "a scanned direction has no cylinder"
            return None
        if data["non_certified"]:
            return f"{len(data['non_certified'])} directions not certified"
        if data["rank_lower_bound"] != 1:
            # a Veech surface has cylinder rank 1
            return f"rank lower bound {data['rank_lower_bound']} != 1"
        return None

    def decompositions(self, data) -> int:
        if data.get("mode") == "field":
            return data["directions"]
        return data["directions_scanned"]


# -- lshape-decompose ------------------------------------------------------

LSHAPE_FIELDS = (2, 3, 5)
LSHAPE_BLOCKS = 14


def primitive_directions(bound: int = 3):
    """Primitive integer directions with |p|, |q| <= bound, one per +-pair."""
    out = []
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or (p == 0 and q < 0):
                continue
            if math.gcd(p, q) == 1:
                out.append((p, q))
    return out


LSHAPE_BASE = (4, 3, 2, 2)    # w1, h1, w2, h2 before perturbation


def _perturbed(rng, ctx, base: int) -> FieldScalar:
    """base + a + b*sqrt(d) with |a| <= 1/8 and 0 < |b| <= 1/8."""
    a = Fraction(rng.randint(-2, 2), 16)
    b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2), 16)
    return FieldScalar(base + a, b, ctx)


def random_lshape(rng, d: int, label: str):
    """A generic L-shape over Q(sqrt(d)) near the LSHAPE_BASE shape.

    The trace bound is 20 times the longest edge, so the cost of an op
    grows with how thin the shape is.  Perturbing one fixed shape, by
    less than 0.41 in each length, keeps that cost nearly the same for
    every seed while the irrational parts keep the surface generic.
    """
    ctx = FieldCtx.get(d)
    return surface_mod.l_shape(*(_perturbed(rng, ctx, x) for x in LSHAPE_BASE),
                               label=label)


class LShapeDecompose:
    """`decompose` plus its JSON on generic quadratic L-shapes."""

    name = "lshape-decompose"
    trace_ops = 60

    def setup(self, seed: int, workdir: str):
        """Blocks of 3 fresh surfaces (one per field) x every direction.

        Each block is shuffled on its own, so any prefix of the ops holds
        nearly the same mix of fields and directions.
        """
        rng = _rng(self.name, seed)
        dirs = primitive_directions()
        items = []
        for block in range(LSHAPE_BLOCKS):
            ops = []
            for d in LSHAPE_FIELDS:
                s = random_lshape(rng, d, f"l-{block}-{d}")
                frame = homology.homology_frame(s)
                ops.extend((s, frame, v) for v in dirs)
            rng.shuffle(ops)
            items.extend(ops)
        return items

    def key(self, item):
        s, _frame, v = item
        return (serialize.dumps(serialize.surface_to_json(s)), v)

    def run(self, item) -> str:
        s, frame, (p, q) = item
        dec = cylinders.decompose(s, Vec2(p, q), frame=frame)
        return serialize.dumps(serialize.decomposition_to_json(dec))

    def check(self, data) -> str | None:
        status = data["status"]
        if status not in (cylinders.PERIODIC, cylinders.PARTIAL,
                          cylinders.NO_CYLINDER):
            return f"unknown status {status}"
        if (status == cylinders.NO_CYLINDER) != (not data["cylinders"]):
            return f"status {status} with {len(data['cylinders'])} cylinders"
        if (status == cylinders.PERIODIC) != (not data["unresolved_rays"]):
            return f"status {status} with unresolved rays"
        covered = _scalar_sum(c["area"] for c in data["cylinders"])
        gap = (parse_scalar(data["area_normalized"]) - covered).sign()
        if gap < 0 or (gap != 0 and status == cylinders.PERIODIC):
            return "cylinder areas do not fit the surface area"
        return None

    def decompositions(self, data) -> int:
        return 1


# -- origami-deform --------------------------------------------------------

ORIGAMI_SQUARES = (4, 5, 6, 7, 8)
ORIGAMI_DIRECTIONS = ((1, 0), (0, 1), (1, 1))
ORIGAMI_BLOCKS = 15


def random_origami(rng, n: int, seen: set, label: str):
    """A connected square-tiled surface from a fresh permutation pair."""
    while True:
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        if (tuple(h), tuple(v)) in seen:
            continue
        try:
            s = surface_mod.square_tiled(h, v, n=n, label=label)
        except NotConnected:
            continue
        seen.add((tuple(h), tuple(v)))
        return s


def _non_integer_shear(rng) -> Fraction:
    """A shear t in (0, 4) that is not an integer.

    The decomposition of a square-tiled surface sheared by an integer t
    raises InternalInvariantError ("ray ... escaped the boundary") in
    about two of five cycles.  The workload leaves integer shears
    out, so that no op of it fails; tests/test_perfbench.py reproduces
    the defect.
    """
    while True:
        t = Fraction(rng.randint(1, 7), rng.randint(2, 5))
        if t.denominator != 1:
            return t


def multi_twist(moduli) -> Fraction:
    """Least t > 0 that twists every cylinder a whole number of times.

    The shear by t moves the top of a cylinder of modulus h/c by t*h,
    a whole twist when t*h/c is an integer: t = lcm of the c/h.
    """
    inv = [1 / m for m in moduli]
    return Fraction(math.lcm(*(x.numerator for x in inv)),
                    math.gcd(*(x.denominator for x in inv)))


class OrigamiDeform:
    """A full deformation cycle on square-tiled surfaces, over Q."""

    name = "origami-deform"
    trace_ops = 30

    def setup(self, seed: int, workdir: str):
        """Blocks of one fresh surface per size x the three directions.

        Each block is shuffled on its own, so any prefix of the ops holds
        nearly the same mix of sizes and directions.
        """
        rng = _rng(self.name, seed)
        seen = set()
        items = []
        for block in range(ORIGAMI_BLOCKS):
            ops = []
            for n in ORIGAMI_SQUARES:
                s = random_origami(rng, n, seen, f"origami-{block}-{n}")
                frame = homology.homology_frame(s)
                t = _non_integer_shear(rng)
                u = Fraction(rng.randint(1, 7), rng.randint(2, 6))
                ops.extend((s, frame, v, t, u) for v in ORIGAMI_DIRECTIONS)
            rng.shuffle(ops)
            items.extend(ops)
        return items

    def key(self, item):
        s, _frame, v, t, u = item
        return (serialize.dumps(serialize.surface_to_json(s)), v, t, u)

    def run(self, item) -> str:
        s, frame, v, t, u = item
        dec = cylinders.decompose(s, Vec2(*v), frame=frame)
        _, tw_dim = deform.twist_space(s, frame, dec)
        _, cp_dim = deform.cylinder_preserving_space(s, frame, dec)
        sheared = deform.shear(s, dec, t)
        stretched = deform.stretch(s, dec, u)
        linear = deform.verify_linearity(s, frame, dec, t)
        moduli = [cyl.modulus.as_fraction() for cyl in dec.cylinders]
        twist = multi_twist(moduli)
        twisted = deform.shear(s, dec, twist)
        returns = equivalence.translation_equivalent(s, twisted)
        sheared_dec = cylinders.decompose(sheared, Vec2(*v),
                                          frame=homology.homology_frame(sheared))
        return serialize.dumps({
            "decomposition": serialize.decomposition_to_json(dec),
            "twist_dim": tw_dim,
            "cylinder_preserving_dim": cp_dim,
            "shear_t": str(t),
            "sheared": serialize.surface_to_json(sheared),
            "stretch_s": str(u),
            "stretched": serialize.surface_to_json(stretched),
            "linearity": linear,
            "multi_twist_t": str(twist),
            "multi_twist_returns": returns,
            "sheared_decomposition": serialize.decomposition_to_json(sheared_dec),
        })

    def check(self, data) -> str | None:
        dec = data["decomposition"]
        if dec["status"] != cylinders.PERIODIC:
            return f"square-tiled direction came out {dec['status']}"
        if not data["linearity"]:
            return "verify_linearity returned False"
        if not data["multi_twist_returns"]:
            return "full multi-twist is not translation equivalent to the input"
        after = data["sheared_decomposition"]
        if after["status"] != cylinders.PERIODIC:
            return f"sheared surface came out {after['status']}"
        if (sorted(c["modulus"] for c in dec["cylinders"])
                != sorted(c["modulus"] for c in after["cylinders"])):
            return "shear changed the multiset of moduli"
        if data["twist_dim"] != len(dec["cylinders"]):
            return "twist space dimension != number of cylinders"
        if data["cylinder_preserving_dim"] < data["twist_dim"]:
            return "cylinder-preserving space smaller than the twist space"
        return None

    def decompositions(self, data) -> int:
        return 2


WORKLOADS = {w.name: w for w in (GoldenCertify(), LShapeDecompose(),
                                 OrigamiDeform())}
