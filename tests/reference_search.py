"""The both-ends ear-clip saddle-connection search, kept as a reference
for the tests.

This is the search `search.enumerate_saddle_connections` ran before it
moved to the Delaunay triangulation and one half-plane of holonomies:
it develops the family's ear-clip triangulation (`search.triangulated`)
and searches every corner's whole cone, so it finds each connection
from both of its ends.  It shares the window predicate and the bound
with the library.  tests/test_search_reference.py checks that both
searches find the same multiset of connections and the same directions.
"""

from flatdef.errors import InternalInvariantError
from flatdef.field import _sign
from flatdef.polygon import _Bound, _add, _cross, _norm, _sub
from flatdef.search import FoundConnection, _window_within, triangulated

# SL(2,Z) matrices with entries in [-2, 2]: the golden L's images that
# the searches are compared on
GOLDEN_MATRICES = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
                   for c in range(-2, 3) for d in range(-2, 3)
                   if a * d - b * c == 1]
# the images on which `decompose` once failed; the golden-certify
# benchmark workload runs the other 48
GOLDEN_KNOWN_DEFECT = ((2, 1, 1, 1), (1, -2, 1, -1), (-1, -1, 2, 1),
                       (-1, 1, 1, -2))


def ref_enumerate_saddle_connections(surface, bound_sq):
    """All saddle connections with |holonomy|^2 <= bound_sq, each found
    from both of its endpoints (with opposite holonomies)."""
    tri = triangulated(surface)
    lat = surface.lattice()
    bound = _Bound(lat, bound_sq)
    n = len(tri.triangles)
    verts = [[lat.verts[p][i] for i in vs] for p, vs in tri.triangles]
    # spokes[t][k]: from vertex k of triangle t to the vertex before it,
    # the apex when t is developed across its edge k
    spokes = [[_sub(vs[(k + 2) % 3], vs[k]) for k in range(3)]
              for vs in verts]
    class_of = surface.vertex_class_map()
    classes = [[class_of[(p, i)] for i in vs] for p, vs in tri.triangles]
    glue = [[tri.gluing[(t, k)] for k in range(3)] for t in range(n)]
    found = []
    for t_id in range(n):
        for k in range(3):
            _search_from_corner(lat, bound, verts, spokes, classes, glue,
                                t_id, k, found)
    return found


def _search_from_corner(lat, bound, verts, spokes, classes, glue, t_id, k,
                        found):
    d = bound.d
    origin = verts[t_id][k]
    start_class = classes[t_id][k]
    k1 = (k + 1) % 3
    k2 = (k + 2) % 3
    b = _sub(verts[t_id][k1], origin)
    c = _sub(verts[t_id][k2], origin)
    # the outgoing triangle edge is this corner's germ; the other corner
    # ray belongs to the neighboring corner and is recorded there
    if bound.within(_norm(b, d)):
        found.append(FoundConnection(lat.vec2(b), start_class,
                                     classes[t_id][k1]))
    # state: (glued side, cone rays, full edge segment as the pushing
    # triangle traverses it); a state is pushed only when its window is
    # not empty and not wholly beyond the bound
    stack = []
    if _window_within(b, c, b, c, bound):
        stack.append((glue[t_id][k1], b, c, b, c))
    guard = 0
    while stack:
        guard += 1
        if guard > 2_000_000:
            raise InternalInvariantError("saddle-connection search runaway")
        (nt, nk), w1, w2, seg_a, seg_b = stack.pop()
        apex = _add(seg_b, spokes[nt][nk])
        if (_sign(*_cross(w1, apex, d), d) > 0
                and _sign(*_cross(apex, w2, d), d) > 0):
            if bound.within(_norm(apex, d)):
                found.append(FoundConnection(
                    lat.vec2(apex), start_class, classes[nt][(nk + 2) % 3]))
            splits = (
                ((nk + 1) % 3, (seg_a, apex), (w1, apex)),
                ((nk + 2) % 3, (apex, seg_b), (apex, w2)),
            )
        else:
            splits = (
                ((nk + 1) % 3, (seg_a, apex), (w1, w2)),
                ((nk + 2) % 3, (apex, seg_b), (w1, w2)),
            )
        for edge_k, (ea, eb), (nw1, nw2) in splits:
            if _window_within(nw1, nw2, ea, eb, bound):
                stack.append((glue[nt][edge_k], nw1, nw2, ea, eb))


def ref_enumerate_directions(surface, bound_sq):
    """Directions of the reference search's connections, deduplicated
    and canonically sorted as `search.enumerate_directions` sorts them."""
    from flatdef.cylinders import Direction
    dirs = {}
    for conn in ref_enumerate_saddle_connections(surface, bound_sq):
        dirs.setdefault(Direction(conn.holonomy), conn)
    return sorted(dirs, key=lambda d: d.sort_key())
