"""Certificates and scans built on certified cylinder decompositions.

Only the shear cocycle of a full, certified-Periodic cylinder set of a
direction enters the tangent span; partial directions are recorded but
never contribute.  The resulting span is an exact lower bound for the
orbit-closure tangent space, and half the dimension of its projection
to absolute cohomology (rounded up) bounds the cylinder rank from
below.  A direction's certificate takes only its decomposition, which
carries the surface and frame; a `TangentSpan` takes only decompositions
in its own frame.  The span eliminates its generators and their
absolute projections as integer quadruples (`linalg.Echelon`), so no
ComplexScalar is built until a basis or a value is read.
"""

from __future__ import annotations

from collections import Counter

from .cylinders import Decomposition, NO_CYLINDER, PERIODIC, decompose
from .deform import (_crossing_cocycle, cylinder_preserving_space,
                     deform_from_periods, eta)
from .errors import DeformationTooLarge, InternalInvariantError
from .field import _positive
from .homology import Cocycle, HomologyFrame, homology_frame
from .linalg import ComplexScalar, Echelon
from .search import enumerate_directions
from .surface import TranslationSurface

__all__ = ["TangentSpan", "FieldReport", "accumulate_tangent",
           "rank_lower_bound", "field_bound",
           "complete_periodicity_scan", "complete_parabolicity_check",
           "more_cylinders_search"]


class TangentSpan:
    """An accumulating certified subspace of the orbit-closure tangent.

    Generators start from the period class itself and grow by the shear
    cocycles of fully certified periodic directions; the span is complex,
    so i*eta comes for free.  Each generator goes into one echelon basis
    as a full cocycle and into another as its absolute projection, both
    on integers, so the dimensions and the basis are read off, never
    recomputed.
    """

    def __init__(self, frame: HomologyFrame):
        self.frame = frame
        self.generators = []   # (Cocycle, provenance dict)
        self.skipped = []      # provenance of non-certified directions
        ctx = frame.surface.ctx
        self._span = Echelon(frame.m, complex_over=ctx)
        self._p_span = Echelon(2 * frame.genus, complex_over=ctx)
        omega = frame.period_cocycle()
        self._add(omega, {"rule": "PeriodClass", "direction": None})

    def _add(self, cocycle: Cocycle, provenance):
        # frame.check runs in _absolute_quads
        p = self.frame._absolute_quads(cocycle)
        self.generators.append((cocycle, provenance))
        self._span._add(list(cocycle.quads))
        self._p_span._add(p)

    def add_certified(self, decomposition: Decomposition):
        decomposition.check_own(frame=self.frame)
        if decomposition.status != PERIODIC:
            self.skipped.append(_provenance(decomposition, "NotCertified"))
            return False
        # eta reads the crossing table, which checks that every twist
        # cocycle vanishes on the direction's saddle connections
        cocycle = eta(decomposition)
        self._add(cocycle, _provenance(decomposition, "CertifiedPeriodic"))
        return True

    def dim(self) -> int:
        return self._span.rank

    def p_dim(self) -> int:
        return self._p_span.rank

    def basis(self):
        """The RREF rows of the span; a test oracle of
        tests/test_analysis.py and test_integer_cocycles.py."""
        return self._span.rows

    def _basis_quads(self):
        """The RREF rows as (integer quadruples, denominator) pairs."""
        return [(row, row[col][0]) for col, row in self._span._reduced()]


def _provenance(decomposition: Decomposition, rule: str):
    v = decomposition.direction.vector
    return {
        "rule": rule,
        "direction": [str(v.x), str(v.y)],
        "status": decomposition.status,
        "cylinders": len(decomposition.cylinders),
    }


def accumulate_tangent(surface: TranslationSurface, directions,
                       trace_factor: int = 20,
                       trace_length=None) -> TangentSpan:
    """Span of the period class and all certified direction cocycles."""
    span = TangentSpan(homology_frame(surface))
    for d in directions:
        span.add_certified(decompose(
            surface, d, trace_factor=trace_factor, trace_length=trace_length))
    return span


def rank_lower_bound(span: TangentSpan) -> int:
    """ceil(p-dim / 2): sound because the true projection is symplectic."""
    p = span.p_dim()
    return (p + 1) // 2


class FieldReport:
    """Circumference-ratio field data of one direction."""

    __slots__ = ("direction", "ratios", "rational", "single_cylinder",
                 "field_d")

    def __init__(self, direction, ratios, rational, single_cylinder, field_d):
        self.direction = direction
        self.ratios = ratios
        self.rational = rational
        self.single_cylinder = single_cylinder
        self.field_d = field_d

    @property
    def field_name(self) -> str:
        return "Q" if self.rational else f"Q(sqrt({self.field_d}))"


def field_bound(decomposition: Decomposition) -> FieldReport:
    """Exact circumference ratios and the field they generate.

    With a single cylinder the orbit-closure field of definition is Q
    outright; otherwise the ratios bound it inside Q or Q(sqrt(d)).
    The equality direction holds only if the listed cylinders form one
    parallelism class of the (unknown) closure, which is reported as a
    hypothesis, never asserted.
    """
    cyls = decomposition.cylinders
    if not cyls:
        raise ValueError("field bound needs at least one cylinder")
    c1 = cyls[0].circumference
    ratios = [cyl.circumference / c1 for cyl in cyls]
    rational = all(r.is_rational() for r in ratios)
    return FieldReport(
        direction=decomposition.direction,
        ratios=ratios,
        rational=rational,
        single_cylinder=(len(cyls) == 1),
        field_d=decomposition.surface.ctx.d,
    )


HAS_UNCERTIFIED = "HasCylinderNotCertifiedPeriodic"


def complete_periodicity_scan(surface: TranslationSurface, radius_sq,
                              trace_factor: int = 20, trace_length=None):
    """Classify every enumerated direction of the surface.

    Returns a report dict with per-direction entries Periodic /
    HasCylinderNotCertifiedPeriodic / NoCylinderFound.  A completely
    periodic surface shows no entries of the middle kind once the trace
    bound is large enough.
    """
    directions = enumerate_directions(surface, radius_sq)
    counts = {PERIODIC: 0, HAS_UNCERTIFIED: 0, NO_CYLINDER: 0}
    entries = []
    offenders = []
    decompositions = {}
    for d in directions:
        dec = decompose(surface, d, trace_factor=trace_factor,
                        trace_length=trace_length)
        decompositions[d] = dec
        if dec.status == PERIODIC:
            kind = PERIODIC
        elif dec.cylinders:
            kind = HAS_UNCERTIFIED
        else:
            kind = NO_CYLINDER
        counts[kind] += 1
        entries.append({
            "direction": [str(d.vector.x), str(d.vector.y)],
            "classification": kind,
            "cylinders": len(dec.cylinders),
            "unresolved_rays": len(dec.unresolved_rays),
        })
        if kind == HAS_UNCERTIFIED:
            offenders.append(d)
    return {
        "directions": len(directions),
        "counts": counts,
        "entries": entries,
        "offending_directions": [[str(d.vector.x), str(d.vector.y)]
                                 for d in offenders],
        "decompositions": decompositions,
    }


def complete_parabolicity_check(surface: TranslationSurface, radius_sq,
                                trace_factor: int = 20, trace_length=None):
    """For each certified periodic direction, check pairwise rational
    moduli; reports the first failure or a full pass up to the bound."""
    scan = complete_periodicity_scan(surface, radius_sq,
                                     trace_factor=trace_factor,
                                     trace_length=trace_length)
    failures = []
    checked = 0
    for d, dec in scan["decompositions"].items():
        if dec.status != PERIODIC or not dec.cylinders:
            continue
        checked += 1
        m1 = dec.cylinders[0].modulus
        for cyl in dec.cylinders[1:]:
            ratio = cyl.modulus / m1
            if not ratio.is_rational():
                failures.append({
                    "direction": [str(d.vector.x), str(d.vector.y)],
                    "moduli": [str(c.modulus) for c in dec.cylinders],
                })
                break
    return {
        "directions": scan["directions"],
        "periodic_directions_checked": checked,
        "parabolic": not failures,
        "failures": failures,
        "periodicity_counts": scan["counts"],
    }


def more_cylinders_search(decomposition: Decomposition, eps,
                          candidate_directions, max_halvings: int = 12):
    """Best-effort search for a nearby surface with more cylinders.

    Requires the cylinder-preserving space to strictly contain the twist
    space (else returns None immediately); deforms by i*eps*eta with eta
    in the difference, shrinking eps while the deformation is too large;
    confirms the old cylinders persisted; then scans the candidate
    directions for a certified decomposition with strictly more
    cylinders.  Existence is not guaranteed, only searched for.  An eps
    that is not positive raises NonPositiveLength, and a max_halvings
    below 1 ValueError.
    """
    eps = _positive("eps", eps)
    if max_halvings < 1:
        raise ValueError(f"max_halvings must be at least 1, got "
                         f"{max_halvings}")
    if decomposition.status != PERIODIC:
        raise ValueError("search needs a Periodic decomposition")
    surface, frame = decomposition.surface, decomposition.frame
    cp_gens, cp_dim = cylinder_preserving_space(surface, frame,
                                                decomposition)
    # the twist space has one dimension per cylinder, and a cocycle z lies
    # in it exactly when z = sum_i z(cross_i) I_i (Decomposition.crossings)
    if cp_dim <= len(decomposition.cylinders):
        return None
    chosen = None
    for gen in cp_gens:
        at_cross = [(frame.evaluate(gen, cyl.cross_coords).re, cyl)
                    for cyl in decomposition.cylinders]
        if _crossing_cocycle(decomposition, at_cross) != gen:
            chosen = gen
            break
    if chosen is None:
        raise InternalInvariantError("dimension gap without a witness")
    # i * eta transported to the original direction: the deformation that
    # tilts away the unwanted saddle connections but fixes every core
    factor = ComplexScalar(0, 1) * decomposition.transport_factor()
    imaginary = chosen.scale(factor)

    attempts = []
    deformed = None
    for _ in range(max_halvings):
        try:
            deformed = deform_from_periods(surface, imaginary, eps)
            break
        except DeformationTooLarge as exc:
            attempts.append(str(eps))
            eps = eps / 2
    if deformed is None:
        return {"found": False, "attempted_eps": attempts,
                "reason": "every deformation size failed"}

    # the old cylinders must persist: their core holonomies are exactly
    # unchanged (the deformation vanishes on core classes), so their
    # circumferences reappear among the horizontal cylinders
    n_old = len(decomposition.cylinders)
    post = decompose(deformed, decomposition.direction.vector)
    old_circs = Counter(str(c.circumference) for c in decomposition.cylinders)
    post_circs = Counter(str(c.circumference) for c in post.cylinders)
    if old_circs - post_circs:
        return {"found": False, "attempted_eps": attempts + [str(eps)],
                "reason": "old cylinders not confirmed on the deformation",
                "surface": deformed}
    for d in candidate_directions:
        dec = decompose(deformed, d)
        if dec.status == PERIODIC and len(dec.cylinders) > n_old:
            return {
                "found": True,
                "surface": deformed,
                "decomposition": dec,
                "direction": dec.direction,
                "eps": str(eps),
                "old_cylinders": n_old,
                "new_cylinders": len(dec.cylinders),
            }
    return {"found": False, "attempted_eps": attempts + [str(eps)],
            "reason": "no candidate direction gained cylinders",
            "surface": deformed}
