"""gforge: combinatorial calculus on boundary path spaces of finite graphs."""

from .graph import (
    CompositionError,
    Edge,
    EdgeInstance,
    Graph,
    GraphError,
    INFINITE,
    Path,
    SchemaError,
    breaking_vertices,
    condition_k,
    condition_l,
    condition_pi,
    maximal_tails,
)
from .words import ReducedWord, parse_word
from .boundary import (
    BoundaryError,
    BoundaryPoint,
    CompactOpen,
    Cylinder,
    DomainError,
    PartialWord,
    admissible_words,
    isotropy_words,
    make_cylinder,
    parse_point,
    parse_stem,
    point_str,
    set_str,
    topological_freeness_report,
    verify_partial_action,
)
from .invsgp import (
    SgpElement,
    ZERO,
    check_boundary_invariance,
    sigma,
    verify_partial_hom,
)
from .groupoid import (
    DRElement,
    GroupoidError,
    PTGElement,
    to_dr,
    to_ptg,
)
from .orbit import (
    Cocycle,
    OEData,
    OrbitError,
    PrefixHomeo,
    coe_to_oe,
    oe_to_coe,
)
from .paradox import (
    PiecewiseWord,
    expand_witness,
    find_witness,
    paradox_report,
    verify_witness,
)
from .semigroups import (
    AffineFamily,
    FreeMonoidFamily,
    NkFamily,
    Progression,
    SemigroupError,
    axb_paradox_witness,
    boundary_minimality_probe,
    boundary_paradox_witness,
    rcomplete_hypothesis_check,
)

__version__ = "0.1.0"
