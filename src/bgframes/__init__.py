"""Finite-dimensional frame machinery: vector frames, operator-valued
frames, and paired operator families with their operator calculus, duals,
reconstruction, and seeded generators."""

from .bigframes import (
    BiGFrameSystem,
    DualPair,
    bi_g_frame_operator,
    canonical_pair,
    classify_bi_g_frame,
    coefficient_identity_terms,
    from_vector_biframe,
    lift_to_biframe,
    reconstruct,
    solve_synthesis_coefficients,
    swap,
)
from .errors import (
    ConstraintViolated,
    FrameToolError,
    NotBiGFrame,
    NotHermitian,
    NotInvertibleController,
    NotPositiveDefinite,
    NotSquare,
    SchemaError,
    ShapeMismatch,
)
from .frames import (
    ClassifyReport,
    ControlledSystem,
    FrameBounds,
    VectorFrame,
    canonical_dual,
    check_controlled_duality,
    check_duality,
    classify_biframe,
    classify_controlled,
    classify_frame,
    frame_operator,
    is_riesz_basis,
    synthesis_matrix,
)
from .generators import (
    KINDS,
    GenSpec,
    gen_bi_g_frame,
    gen_g_frame,
    gen_negative,
    random_hermitian_pd,
)
from .gframes import (
    CoefficientSequence,
    GFrameSystem,
    classify_g_frame,
    g_analysis,
    g_frame_operator,
    g_synthesis,
    induced_vectors,
    is_g_riesz_basis,
    stacked_analysis_matrix,
)
from .kernel import (
    DEFAULT_TOL,
    as_matrix,
    as_vector,
    hermitian_deviation,
    inner,
    operator_norm,
    solve_pd,
)

__version__ = "0.1.0"

# Every class and function imported above, plus the two constants.
__all__ = sorted(
    [
        name
        for name, value in list(globals().items())
        if getattr(value, "__module__", "").startswith(__name__ + ".")
    ]
    + ["DEFAULT_TOL", "KINDS"]
)
