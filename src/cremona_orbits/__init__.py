"""Exact Cremona dynamics of point configurations in P^3.

Geometry side: canonical rational points, condition (*), the Cremona move on
configurations, and equivalence up to PGL(4) x permutation.  Lattice side:
divisor classes of the blown-up space, the Coxeter element (the Cremona
pushforward at {1,2,3,4}, then the cyclic shift) as a step on classes and as
one unimodular matrix, and exact certificates (Jordan structure, orbit
distinctness, Coxeter relations).
Drivers: the Coxeter iteration, which checks each step's scans against the
class the lattice predicts for that step, and the breadth-first orbit search.
"""

from ._version import __version__
from .canonical import canonical_form, equivalent
from .errors import (
    DegeneratePointError,
    FormatError,
    GenerationError,
    NoFrameError,
    StarViolation,
    StarViolationError,
    UsageError,
)
from .lattice import (
    DistinctnessReport,
    DivisorClass,
    JordanCertificate,
    LatticeMap,
    coxeter_element,
    coxeter_relations,
    cyclic_shift,
    distinctness_certificate,
    iterate_class,
    jordan_certificate,
    plane_through_last_four,
)
from .orbit import (
    IterationReport,
    OrbitGraph,
    OrbitNode,
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
