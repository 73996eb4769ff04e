"""flatdef: exact cylinder decompositions and deformation certificates
for translation surfaces."""

from .field import FieldCtx, FieldScalar, Mat2, QQ, Vec2, parse_scalar
from .linalg import (ComplexScalar, Echelon, rational_relation_lattice,
                     row_reduce)
from .surface import TranslationSurface, l_shape, square_tiled
from .homology import Cocycle, HomologyFrame, homology_frame
from .cylinders import (Cylinder, Decomposition, Direction, SaddleConnection,
                        decompose)
from .search import enumerate_directions, enumerate_saddle_connections
from .deform import (eta, eta_normalized, shear, stretch, twist_space,
                     cylinder_preserving_space, torus_closure,
                     verify_linearity, deform_from_periods)
from .equivalence import translation_equivalent, delaunay_cells
from .analysis import (TangentSpan, sweep, accumulate_tangent,
                       rank_lower_bound, field_bound,
                       complete_periodicity_scan, complete_parabolicity_check,
                       more_cylinders_search)
from .serialize import (surface_to_json, surface_from_json, dump_surface,
                        load_surface, decomposition_to_json)
from .errors import (FlatdefError, NonClosedPolygon, NonSimplePolygon,
                     GluingMismatch, BadConeAngle, NotConnected,
                     NonPositiveLength, SingularMatrix, DeformationTooLarge,
                     DegenerateCylinder, StaleCocycle, InternalInvariantError)

__version__ = "0.1.0"
