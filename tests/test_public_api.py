import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import bgframes
from bgframes import (
    BiGFrameSystem,
    ClassifyReport,
    GFrameSystem,
    NotBiGFrame,
    canonical_pair,
    classify_bi_g_frame,
)

PUBLIC_NAMES = [
    "BiGFrameSystem", "ClassifyReport", "CoefficientSequence", "ConstraintViolated",
    "ControlledSystem", "DEFAULT_TOL", "DualPair", "FrameBounds", "FrameToolError",
    "GFrameSystem", "GenSpec", "KINDS", "NotBiGFrame", "NotHermitian",
    "NotInvertibleController", "NotPositiveDefinite", "NotSquare", "SchemaError",
    "ShapeMismatch", "VectorFrame", "adjoint_identity_check", "as_matrix", "as_vector",
    "bi_g_frame_operator", "canonical_dual", "canonical_pair", "check_controlled_duality",
    "check_duality", "classify_bi_g_frame", "classify_biframe", "classify_controlled",
    "classify_frame", "classify_g_frame", "coefficient_identity_terms",
    "dual_pair_bessel_check", "frame_operator", "from_vector_biframe", "g_analysis",
    "g_frame_operator", "g_synthesis", "gen_bi_g_frame", "gen_g_frame", "gen_negative",
    "hermitian_deviation", "induced_vectors", "inner", "is_g_riesz_basis", "is_riesz_basis",
    "lift_to_biframe", "operator_norm", "pairing_sum", "random_hermitian_pd", "reconstruct",
    "riesz_transfer_check", "solve_pd", "solve_synthesis_coefficients",
    "stacked_analysis_matrix", "swap", "synthesis_matrix",
]


def test_public_names_are_pinned():
    assert bgframes.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(bgframes, name), name


def test_one_report_type():
    reports = set()
    for info in pkgutil.iter_modules(bgframes.__path__):
        module = importlib.import_module(f"bgframes.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and name.endswith("Report"):
                reports.add(obj)
    assert reports == {ClassifyReport}


def test_pair_reports_leave_riesz_unset(instance_a):
    report = classify_bi_g_frame(instance_a)
    assert isinstance(report, ClassifyReport)
    assert report.is_riesz is None and report.inverse_norm is not None
    shift = GFrameSystem(2, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
    with pytest.raises(NotBiGFrame) as exc:
        canonical_pair(BiGFrameSystem(shift, GFrameSystem(2, (np.eye(2),))))
    assert isinstance(exc.value.report, ClassifyReport)
    assert exc.value.report.is_riesz is None and exc.value.report.inverse_norm is None
