import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgframes import (
    BiGFrameSystem,
    GFrameSystem,
    NotPositiveDefinite,
    NotSquare,
    ShapeMismatch,
    as_matrix,
    hermitian_deviation,
    inner,
    operator_norm,
    solve_pd,
)
from bgframes.generators import random_hermitian_pd
from bgframes.kernel import CholeskyFactor, _spectral_report
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
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    for c in (1e-12, 1e-10, 1.0, 1e12):
        assert hermitian_deviation(c * m) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert hermitian_deviation(np.zeros((3, 3))) == 0.0


def test_deviation_requires_square():
    with pytest.raises(NotSquare):
        hermitian_deviation(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# the spectral verdict: eigenvalues of the Hermitian part of an operator


def test_eig_diagonal_sorted_ascending():
    report = _spectral_report(np.diag([2.0, 1.0]), 1e-9, hermitian_gates_bessel=True)
    assert (report.bounds.lower, report.bounds.upper) == (1.0, 2.0)
    assert report.is_frame and not report.is_tight


def test_eig_identity():
    report = _spectral_report(np.eye(4), 1e-9, hermitian_gates_bessel=False)
    assert (report.bounds.lower, report.bounds.upper) == (1.0, 1.0)
    assert report.is_parseval and report.hermitian_deviation == 0.0


def test_eig_swap_matrix():
    # Characteristic polynomial x^2 - 1: Hermitian, indefinite.
    report = _spectral_report(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-9, True)
    assert report.is_bessel and not report.is_frame and report.bounds is None


def test_eig_rejects_rectangular_and_nonhermitian():
    with pytest.raises(NotSquare):
        _spectral_report(np.ones((2, 3)), 1e-9, True)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    gated = _spectral_report(nilpotent, 1e-9, hermitian_gates_bessel=True)
    assert not gated.is_bessel and not gated.is_frame
    assert gated.hermitian_deviation == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert _spectral_report(nilpotent, 1e-9, hermitian_gates_bessel=False).is_bessel


# ---------------------------------------------------------------------------
# solve_pd


def test_solve_pd_diagonal():
    x = solve_pd(np.diag([2.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(x, np.diag([0.5, 1.0]), atol=1e-14)


def test_solve_pd_identity_returns_rhs():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_allclose(solve_pd(np.eye(3), b), b, atol=1e-14)


def test_solve_pd_vector_rhs():
    x = solve_pd(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [0.5, 0.0], atol=1e-14)
    assert x.ndim == 1


def test_solve_pd_recovers_solution_at_cond_1e6():
    m = random_hermitian_pd(6, seed=101, eig_low=1e-3, eig_high=1e3)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    b = m @ x0
    x = solve_pd(m, b)
    assert np.linalg.norm(x - x0) <= 1e-8 * np.linalg.norm(x0)
    assert np.linalg.norm(m @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_solve_pd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as excinfo:
        solve_pd(np.diag([1.0, -1.0]), np.eye(2))
    assert excinfo.value.smallest_eigenvalue == pytest.approx(-1.0)


def test_cholesky_gate_reads_its_ratio():
    h = np.diag([1.0, 1e-13]).astype(np.complex128)
    factor = CholeskyFactor.of(h, _spectral_report(h, 1e-15, hermitian_gates_bessel=False))
    np.testing.assert_allclose(factor.solve(np.array([1.0, 1e-13])), [1.0, 1.0], rtol=1e-14)
    with pytest.raises(NotPositiveDefinite) as excinfo:
        CholeskyFactor.of(h, _spectral_report(h, 1e-12, hermitian_gates_bessel=False))
    assert excinfo.value.smallest_eigenvalue == 1e-13
    with pytest.raises(NotPositiveDefinite):
        solve_pd(h, np.ones(2))


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("cond", [4.0, 1e6, 1e10])
def test_cholesky_solve_agrees_with_dense_solve(n, cond):
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.geomspace(1.0 / cond, 1.0, n)
    h = (q * w) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    factor = CholeskyFactor.of(h, _spectral_report(h, 1e-12, hermitian_gates_bessel=False))
    for shape in ((n,), (n, 3)):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = factor.solve(b)
        ref = np.linalg.solve(h, b)
        assert x.shape == b.shape
        # ||h|| = 1: normwise backward error at roundoff, and a forward
        # difference within cond * eps, as close as two backward-stable
        # solvers can agree.
        assert np.linalg.norm(h @ x - b) <= 1e-14 * np.linalg.norm(x)
        assert np.linalg.norm(x - ref) <= max(1e-10, 1e-15 * cond) * np.linalg.norm(ref)


def test_solve_pd_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        solve_pd(np.eye(2), np.ones(3))


# ---------------------------------------------------------------------------
# operator_norm


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-12)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((3, 2))) == 0.0


def test_operator_norm_unitary_is_one():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert operator_norm(q) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_matches_spectrum_for_hermitian():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = a + a.conj().T
    top = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    assert operator_norm(m) == pytest.approx(top, rel=1e-9)


# ---------------------------------------------------------------------------
# constructors and the inner-product convention


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatch):
        as_matrix(np.zeros((0, 2)))


def test_inner_is_linear_in_first_argument():
    u = np.array([1.0 + 1j, 0.0])
    v = np.array([0.0 + 2j, 1.0])
    # sum_i u[i] conj(v[i]) = (1+i)(-2i) = 2 - 2i
    assert inner(u, v) == pytest.approx(2.0 - 2.0j)
    assert inner(2j * u, v) == pytest.approx(2j * inner(u, v))
