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
    classify_biframe,
    classify_controlled,
    classify_frame,
    classify_g_frame,
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
    "induced_vectors", "inner", "lift_to_biframe", "random_hermitian_pd", "reconstruct",
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


FRAME = VectorFrame(2, (np.array([1.0, 0.0]), np.array([0.5, 3.0]), np.array([1.0, 1.0j])))
LINE = VectorFrame(2, (np.array([1.0, 0.0]), np.array([2.0, 0.0])))
G_FRAME = GFrameSystem(2, (np.diag([1.0, 3.0]), np.array([[1.0, 1.0j]])))
G_LINE = GFrameSystem(2, (np.ones((2, 2)),))


@pytest.mark.parametrize(
    "classify,frame,non_frame",
    [
        (classify_frame, (FRAME,), (LINE,)),
        (classify_g_frame, (G_FRAME,), (G_LINE,)),
        (
            classify_controlled,
            (ControlledSystem(FRAME, 2.5 * np.eye(2)),),
            (ControlledSystem(LINE, np.eye(2)),),
        ),
        (classify_biframe, (FRAME, FRAME), (LINE, LINE)),
        (
            classify_bi_g_frame,
            (BiGFrameSystem(G_FRAME, G_FRAME),),
            (BiGFrameSystem(G_LINE, G_LINE),),
        ),
    ],
    ids=["frame", "g_frame", "controlled", "biframe", "bi_g_frame"],
)
def test_inverse_norm_is_one_over_the_lower_bound(classify, frame, non_frame):
    report = classify(*frame)
    assert report.is_frame and report.inverse_norm == 1.0 / report.bounds.lower
    assert report.bounds.lower != 1.0
    report = classify(*non_frame)
    assert report.is_bessel and not report.is_frame and report.inverse_norm is None


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
        classify_frame(basis).is_riesz,
        classify_frame(redundant).is_riesz,
        classify_frame(VectorFrame(2, (np.array([1.0, 0.0]), np.array([2.0, 0.0])))).is_riesz,
        classify_g_frame(GFrameSystem(2, (np.eye(2),))).is_riesz,
        classify_g_frame(GFrameSystem(2, (np.ones((2, 2)),))).is_riesz,
        classify_g_frame(GFrameSystem(2, (np.eye(2), np.eye(2)))).is_riesz,
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


def test_verdicts_go_through_one_core():
    # Outside the kernel only the pair core (bigframes._classify) and the target
    # check of gen_bi_g_frame read a spectral report directly.
    package = Path(bgframes.__file__).parent
    readers = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for a in node.names}
        if "_spectral_report" in names and path.stem != "kernel":
            readers.add(path.stem)
    assert readers == {"bigframes", "generators"}


def test_the_hermitian_part_is_formed_in_one_place():
    # _spectral_report forms H and returns it with the report it read, so the
    # factor, the pair core and the target check all take that one matrix;
    # random_hermitian_pd symmetrizes its own output.
    package = Path(bgframes.__file__).parent
    sites = set()
    for path in package.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    text = ast.unparse(node) if isinstance(node, ast.BinOp) else ""
                    if text.startswith("0.5 * (") and "+" in text and ".conj().T" in text:
                        sites.add((path.stem, func.name))
    assert sites == {("kernel", "_spectral_report"), ("generators", "random_hermitian_pd")}


def test_the_pair_functions_are_the_one_layer_over_the_prepared_pair():
    # The CLI calls the public pair functions, and only bigframes reads the
    # kept preparation; no per-call object wraps it.
    package = Path(bgframes.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for a in node.names}
        assert "_PreparedPair" not in names, path.stem
        if path.stem != "bigframes":
            assert "_prepare" not in names, path.stem
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "bigframes"
                for a in node.names}
    assert "classify_bi_g_frame" in imported
    # The private imports are the many-input forms of two public functions.
    private = {name for name in imported if name.startswith("_")}
    assert private == {"_reconstruct", "_coefficient_identity_terms"}
