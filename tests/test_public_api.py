import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bgframes
from bgframes import (
    BiGFrameSystem,
    ClassifyReport,
    ControlledSystem,
    GFrameSystem,
    NotBiGFrame,
    VectorFrame,
    canonical_pair,
    check_controlled_duality,
    check_duality,
    classify_bi_g_frame,
    is_g_riesz_basis,
    is_riesz_basis,
)

PUBLIC_NAMES = [
    "BiGFrameSystem", "ClassifyReport", "CoefficientSequence", "ConstraintViolated",
    "ControlledSystem", "DEFAULT_TOL", "FrameBounds", "FrameToolError",
    "GFrameSystem", "GenSpec", "KINDS", "NotBiGFrame", "NotHermitian",
    "NotInvertibleController", "NotPositiveDefinite", "NotSquare", "SchemaError",
    "ShapeMismatch", "VectorFrame", "as_matrix", "as_vector", "bi_g_frame_operator",
    "canonical_dual", "canonical_pair", "check_controlled_duality", "check_duality",
    "classify_bi_g_frame", "classify_biframe", "classify_controlled", "classify_frame",
    "classify_g_frame", "coefficient_identity_terms", "frame_operator",
    "from_vector_biframe", "g_analysis", "g_frame_operator", "g_synthesis",
    "gen_bi_g_frame", "gen_g_frame", "gen_negative", "hermitian_deviation",
    "induced_vectors", "inner", "is_g_riesz_basis", "is_riesz_basis", "lift_to_biframe",
    "operator_norm", "random_hermitian_pd", "reconstruct", "solve_pd",
    "solve_synthesis_coefficients", "stacked_analysis_matrix", "swap", "synthesis_matrix",
]


# Each module may import only from modules before it.
MODULE_STACK = [
    "errors", "kernel", "gframes", "bigframes", "frames", "generators", "fileio", "cli",
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


def test_public_predicates_return_bool():
    basis = VectorFrame(2, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    swapped = VectorFrame(2, (np.array([0.0, 1.0]), np.array([1.0, 0.0])))
    redundant = VectorFrame(2, (*basis.vectors, np.array([1.0, 1.0])))
    controlled = ControlledSystem(basis, np.eye(2))
    values = [
        check_duality(basis, basis),
        check_duality(basis, swapped),
        check_controlled_duality(controlled, basis),
        check_controlled_duality(controlled, swapped),
        is_riesz_basis(basis),
        is_riesz_basis(redundant),
        is_riesz_basis(VectorFrame(2, (np.array([1.0, 0.0]), np.array([2.0, 0.0])))),
        is_g_riesz_basis(GFrameSystem(2, (np.eye(2),))),
        is_g_riesz_basis(GFrameSystem(2, (np.ones((2, 2)),))),
        is_g_riesz_basis(GFrameSystem(2, (np.eye(2), np.eye(2)))),
    ]
    assert values == [True, False, True, False, True, False, False, True, False, False]
    assert all(type(v) is bool for v in values)


def test_modules_import_down_the_stack():
    package = Path(bgframes.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(MODULE_STACK)
    for position, name in enumerate(MODULE_STACK):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                assert node.module in MODULE_STACK[:position], (name, node.module)


def test_only_kernel_takes_spectra_and_factors():
    package = Path(bgframes.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for a in node.names}
        if path.stem != "kernel":
            assert not names & {"eigvalsh", "cholesky"}, path.stem
