"""Exact Cremona dynamics of point configurations in P^3.

Geometry side: canonical rational points, condition (*), the Cremona move on
configurations, and equivalence up to PGL(4) x permutation.  Lattice side:
the induced action on divisor classes of the blown-up space, the Coxeter
element built from the Cremona map and the cyclic shift, and exact
certificates (Jordan structure, orbit distinctness, Coxeter relations).
Orbit drivers tie the two together and cross-validate them.
"""

from ._version import __version__
from .canonical import canonical_form, equivalent
from .errors import (
    DegeneratePointError,
    DimensionError,
    FormatError,
    GenerationError,
    NoFrameError,
    StarViolation,
    StarViolationError,
    UsageError,
)
from .lattice import (
    CurveClass,
    DistinctnessReport,
    DivisorClass,
    JordanCertificate,
    LatticeMap,
    anticanonical_class,
    coxeter_element,
    coxeter_relations,
    coxeter_relations_check,
    cremona_map,
    cremona_pushforward,
    cyclic_shift,
    distinctness_certificate,
    exceptional_class,
    exceptional_curve,
    flopped_curve_classes,
    hyperplane_class,
    intersect,
    is_root_class,
    iterate_class,
    jordan_certificate,
    line_curve,
    permutation_map,
    permute_class,
    plane_through_last_four,
    quartic_curve_class,
)
from .orbit import (
    CremonaMove,
    CremonaWord,
    IterationReport,
    OrbitGraph,
    OrbitNode,
    PermuteMove,
    apply_word,
    consistency_check,
    coplanar_scan,
    coxeter_iterate,
    orbit_bfs,
)
from .projective import (
    CenterSet,
    Configuration,
    ProjectivePoint,
    coplanar,
    cremona_at,
    normalize_point,
    permute_config,
    random_config,
    star_violation,
)
