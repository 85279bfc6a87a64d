"""spincycles: exact lattice-polygon invariants and the homological model
of curves in toric surfaces, with spin/symplectic verification suites."""

from .polygon import (
    AffineMap,
    GenusZeroError,
    HirzebruchClassification,
    InteriorData,
    LatticePolygon,
    NotSmoothError,
    PolygonError,
    PolygonTooLargeError,
    RegimeError,
    Segment,
    classify_onedim,
    classify_regime,
    enumerate_segments,
    even_points,
    integer_length,
    interior_data,
    is_even_point,
    is_smooth,
    normalize_at_vertex,
    parse_polygon,
)
from .homology import (
    CycleClassF2,
    CycleClassZ,
    SurfaceModel,
    build_model,
    default_forest,
    hyperelliptic_chain,
    pairing_f2,
    pairing_z,
    validate_forest,
    vertex_forest,
)
from .spin import (
    QuadraticForm,
    canonical_q,
    q_symplectic_basis,
    retype_pair,
    standard_form,
    vanishing_cycle_report,
    verify_q_consistency,
)
from .symplectic import (
    CapExceededError,
    GroupClosure,
    MatF2,
    NotSymplecticError,
    admissible_transvections,
    all_transvections,
    chain_transvections,
    closure,
    full_symplectic_closure,
    membership,
    orbit,
    preserves_q,
    q_orbit_partition,
    q_stabilizer_bruteforce,
    transvection_f2,
    transvection_z,
    verify_arf_classification,
    verify_transvection_generation,
)
from .relations import (
    CurveSystem,
    TwistWord,
    evaluate_word_z,
    rewrite_step,
    verify_chain_relation_homology,
    verify_chrel2_derivation,
    verify_hyperelliptic_word,
)

__version__ = "0.1.0"
