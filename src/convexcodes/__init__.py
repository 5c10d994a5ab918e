"""Convexity analysis and verified convex realizations of neural codes."""

from types import ModuleType as _ModuleType

from .codes import (
    AbstractCover,
    Code,
    CodeParseError,
    CompletenessReport,
    SimplicialComplex,
    abstract_code,
    classify_completeness,
    code_from_text,
    code_to_text,
    covers,
    finite_realization,
    intersection_completion,
    link,
    maximal_codewords,
    restrict,
    simplicial_complex,
    simplicial_violators,
    word_label,
    word_mask,
    word_neurons,
)
from .geometry import (
    AMBIENT_UNION,
    AMBIENT_WHOLE,
    Ball,
    BallConstraintError,
    Cell,
    CellComplex,
    ConvexRegion,
    CoverParseError,
    HalfSpace,
    PolyhedralCover,
    SampleReport,
    arrangement_cells,
    check_nondegeneracy,
    closed_interval,
    code_of_cover,
    cover_from_text,
    cover_to_text,
    enumerate_cells,
    feasible,
    is_face,
    open_interval,
    sample_code,
    verify_closure_interior_invariance,
)
from .realization import (
    ChamberRealization,
    MonotoneExtendError,
    NotApplicable,
    PotentialCoverRealization,
    RealizationCertificate,
    abstract_from_cover,
    max_int_realization,
    monotone_extend,
    potential_cover,
    realize,
    replay_certificate,
)
from .topology import (
    BettiProfile,
    Contractible,
    LocalObstruction,
    NonlocalObstruction,
    NotContractible,
    Unknown,
    contractibility,
    covering_sets,
    local_obstructions,
    nonlocal_obstructions,
    reduced_betti,
    replay_collapse,
)

# the public names imported above, without the submodules they come from
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
