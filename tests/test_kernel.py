import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgframes import (
    BiGFrameSystem,
    GenSpec,
    GFrameSystem,
    NotPositiveDefinite,
    NotSquare,
    ShapeMismatch,
    as_matrix,
    canonical_pair,
    classify_bi_g_frame,
    classify_biframe,
    classify_g_frame,
    gen_negative,
    hermitian_deviation,
    inner,
    lift_to_biframe,
)
from bgframes.kernel import CholeskyFactor, FrameBounds, _spectral_report, as_vector
from conftest import subnormal_edge_pair
from oracles import adjoint_identity_check

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def complex_matrices(draw, rows=None, cols=None, max_dim=4):
    r = rows if rows is not None else draw(st.integers(1, max_dim))
    c = cols if cols is not None else draw(st.integers(1, max_dim))
    re = draw(st.lists(finite_floats, min_size=r * c, max_size=r * c))
    im = draw(st.lists(finite_floats, min_size=r * c, max_size=r * c))
    return (np.array(re) + 1j * np.array(im)).reshape(r, c)


@st.composite
def conformable_pairs(draw, max_dim=4):
    """``(a, b)`` with ``a`` n x k and ``b`` k x n, so ``a b`` is square."""
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    return draw(complex_matrices(rows=n, cols=k)), draw(complex_matrices(rows=k, cols=n))


# ---------------------------------------------------------------------------
# adjoints, as the Hermitian gate and the pair operator take them


def test_adjoint_identity_is_self():
    # I is self-adjoint; (iI)* = -iI, so ||iI - (iI)*|| / ||iI|| = 2.
    assert hermitian_deviation(np.eye(2)) == 0.0
    assert hermitian_deviation(1j * np.eye(2)) == pytest.approx(2.0, rel=1e-15)


def test_adjoint_conjugate_transposes():
    # Complex symmetric, so a plain transpose would read deviation 0:
    # M - M* = [[0, 2i], [2i, 0]] and ||M||_F = 2.
    m = np.array([[1.0, 1j], [1j, 1.0]])
    assert hermitian_deviation(m) == pytest.approx(math.sqrt(2.0), rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(complex_matrices(rows=3, cols=3))
def test_adjoint_involution(m):
    # The gate reads M and M* alike, which the family-swap invariance needs.
    assert hermitian_deviation(m.conj().T) == pytest.approx(hermitian_deviation(m), rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(conformable_pairs())
def test_adjoint_reverses_products(pair):
    # One-block pair (Lambda, Gamma) = (b, a*), so S(Lambda, Gamma) = a b and
    # S(Gamma, Lambda) = b* a*.
    a, b = pair
    n = b.shape[1]
    sys = BiGFrameSystem(GFrameSystem(n, (b,)), GFrameSystem(n, (a.conj().T,)))
    assert adjoint_identity_check(sys, tol=1e-12 * (1.0 + np.abs(a).max() * np.abs(b).max()))


# ---------------------------------------------------------------------------
# hermitian_deviation


def test_deviation_zero_for_diagonal():
    assert hermitian_deviation(np.diag([2.0, 1.0])) == 0.0


def test_deviation_of_nilpotent():
    # M - M* = [[0, 1], [-1, 0]], Frobenius norm sqrt(2), ||M|| = 1.
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermitian_deviation(m) == pytest.approx(math.sqrt(2.0), rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(complex_matrices(rows=3, cols=3))
def test_deviation_vanishes_after_symmetrization(m):
    assert hermitian_deviation(m + m.conj().T) <= 1e-14 * (1.0 + np.linalg.norm(m))


def test_deviation_is_scale_invariant():
    # Unscaled, the Frobenius norms would square the entries: at 1e-170 both
    # underflow to 0 (deviation 0), at 1e170 both overflow (deviation NaN).
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    for c in (1e-12, 1e-10, 1.0, 1e12, 1e-170, 1e170, 5e-324, 1e308 * (1 + 1j)):
        assert hermitian_deviation(c * m) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert hermitian_deviation(np.real(c) * np.diag([1.0, 0.5])) == 0.0
    assert hermitian_deviation(np.zeros((3, 3))) == 0.0


def test_deviation_requires_square():
    with pytest.raises(NotSquare):
        hermitian_deviation(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# the spectral verdict: eigenvalues of the Hermitian part of an operator


def test_eig_diagonal_sorted_ascending():
    _, report = _spectral_report(np.diag([2.0, 1.0]), 1e-9, hermitian_gates_bessel=True)
    assert (report.bounds.lower, report.bounds.upper) == (1.0, 2.0)
    assert report.is_frame and not report.is_tight


def test_eig_identity():
    _, report = _spectral_report(np.eye(4), 1e-9, hermitian_gates_bessel=False)
    assert (report.bounds.lower, report.bounds.upper) == (1.0, 1.0)
    assert report.is_parseval and report.hermitian_deviation == 0.0


def test_eig_swap_matrix():
    # Characteristic polynomial x^2 - 1: Hermitian, indefinite.
    _, report = _spectral_report(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-9, True)
    assert report.is_bessel and not report.is_frame and report.bounds is None


def test_eig_rejects_rectangular_and_nonhermitian():
    with pytest.raises(NotSquare):
        _spectral_report(np.ones((2, 3)), 1e-9, True)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    h, gated = _spectral_report(nilpotent, 1e-9, hermitian_gates_bessel=True)
    assert h is None and not gated.is_bessel and not gated.is_frame
    assert gated.hermitian_deviation == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert _spectral_report(nilpotent, 1e-9, hermitian_gates_bessel=False)[1].is_bessel


# ---------------------------------------------------------------------------
# CholeskyFactor


def test_cholesky_factor_rejects_indefinite():
    h = np.diag([1.0, -1.0]).astype(np.complex128)
    with pytest.raises(NotPositiveDefinite) as excinfo:
        CholeskyFactor.of(*_spectral_report(h, 1e-12, hermitian_gates_bessel=False))
    assert excinfo.value.smallest_eigenvalue == pytest.approx(-1.0)


def test_cholesky_gate_reads_its_ratio():
    h = np.diag([1.0, 1e-13]).astype(np.complex128)
    factor = CholeskyFactor.of(*_spectral_report(h, 1e-15, hermitian_gates_bessel=False))
    np.testing.assert_allclose(factor.solve(np.array([1.0, 1e-13])), [1.0, 1.0], rtol=1e-14)
    with pytest.raises(NotPositiveDefinite) as excinfo:
        CholeskyFactor.of(*_spectral_report(h, 1e-12, hermitian_gates_bessel=False))
    assert excinfo.value.smallest_eigenvalue == 1e-13


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("cond", [4.0, 1e6, 1e10])
def test_cholesky_solve_agrees_with_dense_solve(n, cond):
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.geomspace(1.0 / cond, 1.0, n)
    h = (q * w) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    factor = CholeskyFactor.of(*_spectral_report(h, 1e-12, hermitian_gates_bessel=False))
    for shape in ((n,), (n, 3), (n, 4 * n)):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = factor.solve(b)
        ref = np.linalg.solve(h, b)
        assert x.shape == b.shape
        # ||h|| = 1: normwise backward error at roundoff, and a forward
        # difference within cond * eps, as close as two backward-stable
        # solvers can agree.
        assert np.linalg.norm(h @ x - b) <= 1e-14 * np.linalg.norm(x)
        assert np.linalg.norm(x - ref) <= max(1e-10, 1e-15 * cond) * np.linalg.norm(ref)
    # The right-side solve a h^-1 of a matrix of rows, under the same bounds.
    for shape in ((1, n), (3, n), (4 * n, n)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = factor.solve_rows(a)
        ref = np.linalg.solve(h.T, a.T).T
        assert y.shape == a.shape
        assert np.linalg.norm(y @ h - a) <= 1e-14 * np.linalg.norm(y)
        assert np.linalg.norm(y - ref) <= max(1e-10, 1e-15 * cond) * np.linalg.norm(ref)


def _componentwise_backward_error(h, x, b, rows: bool) -> float:
    """``max_i |r_i| / (|H| |x| + |b|)_i`` (Oettli & Prager, 1964) of ``H x = b``, or of
    ``x H = b`` for ``rows``, with the residual formed in extended precision."""
    H, X, B = (np.asarray(a, dtype=np.clongdouble) for a in (h, x, b))
    residual = np.abs(B - (X @ H if rows else H @ X)).astype(np.float64)
    scale = (np.abs(x) @ np.abs(h) if rows else np.abs(h) @ np.abs(x)) + np.abs(b)
    return float(np.max(residual / scale))


@pytest.mark.parametrize("rows", [False, True], ids=["solve", "solve_rows"])
@pytest.mark.parametrize("n", [16, 64])
def test_the_refinement_pass_makes_solves_componentwise_backward_stable(n, rows):
    """``H = D H0 D``, H0 of condition 4 and D graded over four decades: one
    product with ``H^-1`` alone leaves a componentwise backward error of 19 eps
    or more here, and the refinement pass brings it under 3 eps (Skeel, 1980)."""
    eps = np.finfo(np.float64).eps
    d = np.geomspace(1.0, 1e4, n)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        h = d[:, None] * ((q * np.geomspace(0.25, 1.0, n)) @ q.conj().T) * d
        h = 0.5 * (h + h.conj().T)
        factor = CholeskyFactor.of(*_spectral_report(h, 0.0, hermitian_gates_bessel=False))
        shape = (3, n) if rows else (n, 3)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = factor.solve_rows(b) if rows else factor.solve(b)
        assert _componentwise_backward_error(h, x, b, rows) <= 8 * eps, seed


# ---------------------------------------------------------------------------
# constructors and the inner-product convention


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatch):
        as_matrix(np.zeros((0, 2)))


@pytest.mark.parametrize(
    "coerce,data,message",
    [
        (as_matrix, np.ones(3), "expected a 2-d matrix, got ndim=1"),
        (as_matrix, np.ones((2, 2, 2)), "expected a 2-d matrix, got ndim=3"),
        (as_vector, [], "vector must be nonempty"),
    ],
    ids=["matrix-1d", "matrix-3d", "vector-empty"],
)
def test_coercion_rejects_wrong_shapes(coerce, data, message):
    with pytest.raises(ShapeMismatch, match=message):
        coerce(data)


def test_frame_bounds_must_be_ordered():
    with pytest.raises(ValueError, match=r"invalid bounds: \(2.0, 1.0\)"):
        FrameBounds(2.0, 1.0)


def test_inner_is_linear_in_first_argument():
    u = np.array([1.0 + 1j, 0.0])
    v = np.array([0.0 + 2j, 1.0])
    # sum_i u[i] conj(v[i]) = (1+i)(-2i) = 2 - 2i
    assert inner(u, v) == pytest.approx(2.0 - 2.0j)
    assert inner(2j * u, v) == pytest.approx(2j * inner(u, v))


RANK_DEFICIENT = gen_negative(GenSpec(4, (2, 2, 2), 5, "rank_deficient"))


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "classify",
    [
        lambda tol: classify_g_frame(RANK_DEFICIENT.lam, tol=tol),
        lambda tol: classify_bi_g_frame(RANK_DEFICIENT, tol=tol),
        lambda tol: classify_biframe(*lift_to_biframe(RANK_DEFICIENT), tol=tol),
        lambda tol: _spectral_report(np.eye(2), tol, hermitian_gates_bessel=True),
    ],
    ids=["g_frame", "bi_g_frame", "biframe", "core"],
)
def test_a_bad_tol_is_refused_by_name(classify, tol):
    # Unchecked, -1 fails the bounds check of a non-frame g-frame, calls the
    # Hermitian pair "not Bessel", and NaN returns a report.
    with pytest.raises(ValueError, match=f"tol must be finite and non-negative, got {tol!r}"):
        classify(tol)


def test_a_refused_tol_keeps_the_prepared_pair():
    pair = BiGFrameSystem(RANK_DEFICIENT.lam, RANK_DEFICIENT.gam)
    assert classify_bi_g_frame(pair).is_bessel
    kept = pair._prepared
    with pytest.raises(ValueError, match="got nan"):
        classify_bi_g_frame(pair, tol=math.nan)
    assert pair._prepared is kept
    assert classify_g_frame(pair.lam, tol=0.0).tolerance == 0.0


def test_an_inverse_beyond_the_double_range_is_a_numerical_failure():
    # The frame gate at tol 0 passes a subnormal lower bound; ||H^-1|| = 1/lo
    # then overflows, and the report refuses it instead of keeping inf and NaN.
    pair = subnormal_edge_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (classify_bi_g_frame, canonical_pair):
            with pytest.raises(np.linalg.LinAlgError, match="smallest eigenvalue 1.000000e-310"):
                call(pair, tol=0.0)
    assert pair._prepared is None
    # A single family is the pair (Lambda, Lambda): its report at the same edge
    # would carry an infinite inverse norm, so it is refused the same way.
    single = GFrameSystem(2, (np.diag([1.0, 1e-155]),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=r"H\^-1 overflows: smallest eigenvalue"):
            classify_g_frame(single, tol=0.0)


def test_the_factor_refuses_an_overflowing_inverse_by_itself():
    # The report now refuses an infinite 1/lo first; the factor's own check stays
    # as the safety net for an operator whose H^-1 overflows all the same.
    _, report = _spectral_report(np.eye(2), 0.0, hermitian_gates_bessel=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=r"H\^-1 overflows"):
            CholeskyFactor.of(np.diag([1.0, 1e-310]), report)
