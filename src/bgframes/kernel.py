"""Dense complex-matrix primitives: Hermitian deviation, PD solves, and the one
classification core, whose report is the positive-definite gate of every factor.

Everything downstream (frame layers, generators, CLI) goes through this
module for its numerics. All functions are pure; inputs are validated and
coerced to finite ``complex128`` arrays once, here. NumPy is the only
dependency: PD solves use ``np.linalg.cholesky`` and its triangular inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite, NotSquare, ShapeMismatch

#: Package-wide default relative tolerance for verdicts and residual checks.
DEFAULT_TOL = 1e-9

# solve_pd's gate on lambda_min / lambda_max: a solve at condition 1e12 still keeps ~4 digits.
_PD_RATIO = 1e-12


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a nonempty 2-d complex128 array with finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"matrix must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(data) -> np.ndarray:
    """Coerce ``data`` to a nonempty 1-d complex128 array with finite entries."""
    v = np.asarray(data, dtype=np.complex128)
    if v.ndim != 1:
        raise ShapeMismatch(f"expected a 1-d vector, got ndim={v.ndim}")
    if v.shape[0] < 1:
        raise ShapeMismatch("vector must be nonempty")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return v


def inner(u, v) -> complex:
    """Inner product, linear in the first argument and conjugate-linear in
    the second: ``inner(u, v) = sum_i u[i] * conj(v[i])``.

    This is the single place the convention is fixed; every pairing in the
    package is expressed through it.
    """
    return complex(np.vdot(v, u))


def hermitian_deviation(m) -> float:
    """Relative distance of a square matrix from its adjoint.

    Returns ``||M - M*||_F / ||M||_F`` (0 for the zero matrix): 0 exactly
    for Hermitian input, and unchanged when ``M`` is rescaled.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"deviation needs a square matrix, got {a.shape}")
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(a - a.conj().T) / norm)


def operator_norm(m) -> float:
    """Largest singular value."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


@dataclass(frozen=True)
class FrameBounds:
    """Optimal lower/upper frame constants; ``0 < lower <= upper``."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError(f"invalid bounds: ({self.lower}, {self.upper})")


@dataclass(frozen=True)
class ClassifyReport:
    """Verdicts for one classified family or pair.

    ``bounds`` is present exactly when ``is_frame`` holds; verdicts satisfy
    parseval => tight => frame => bessel. ``hermitian_deviation`` refers to
    the operator the verdict was computed from. ``is_riesz`` is ``None`` on
    pair reports, which do not compute it; ``inverse_norm`` (``||H^-1||``, H
    the Hermitian part of S) is set only by ``classify_bi_g_frame``, on frames.
    ``_edges`` holds the spectrum edges of H exactly when ``is_bessel`` holds.
    """

    is_bessel: bool
    is_frame: bool
    is_tight: bool
    is_parseval: bool
    is_riesz: bool | None
    bounds: FrameBounds | None
    hermitian_deviation: float
    tolerance: float
    inverse_norm: float | None = None
    _edges: tuple | None = field(default=None, repr=False, compare=False)


def _spectral_report(
    op: np.ndarray, tol: float, hermitian_gates_bessel: bool, is_riesz: bool | None = None
) -> ClassifyReport:
    """The one classification core: deviation gate, then the spectrum edges
    ``lo, hi`` of the Hermitian part, a frame when ``lo > tol * max(hi, 0)``.

    ``hermitian_gates_bessel`` is false for Gram operators, which are
    Hermitian and Bessel by construction: their deviation is rounding, so
    it is reported but gates nothing.
    """
    dev = hermitian_deviation(op)
    if hermitian_gates_bessel and dev > tol:
        return ClassifyReport(False, False, False, False, is_riesz, None, dev, tol)
    h = 0.5 * (op + op.conj().T)
    w = np.linalg.eigvalsh(h)
    lo, hi = float(w[0]), float(w[-1])
    is_frame = lo > tol * max(hi, 0.0)
    is_tight = is_frame and (hi - lo) <= tol * hi
    is_parseval = is_tight and abs(hi - 1.0) <= tol
    bounds = FrameBounds(lo, hi) if is_frame else None
    return ClassifyReport(
        True, is_frame, is_tight, is_parseval, is_riesz, bounds, dev, tol, _edges=(lo, hi)
    )


def _require_definite(report: ClassifyReport) -> None:
    """Raise ``NotPositiveDefinite`` unless the Bessel ``report`` passed the frame gate."""
    if not report.is_frame:
        lo, hi = report._edges
        raise NotPositiveDefinite(
            f"matrix is not positive definite: smallest eigenvalue {lo:.6e} (largest {hi:.6e})", lo
        )


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """``L^-1`` for the Cholesky factor of an operator's Hermitian PD part ``h = L L*``;
    one factor, built by :meth:`of`, serves any number of solves."""

    h: np.ndarray
    l_inv: np.ndarray

    @classmethod
    def of(cls, op: np.ndarray, report: ClassifyReport) -> "CholeskyFactor":
        """Factor the Hermitian part of ``op``, whose Bessel ``report`` must have
        passed the frame gate (else ``NotPositiveDefinite``); raises
        ``numpy.linalg.LinAlgError`` when the factorization itself fails."""
        _require_definite(report)
        h = 0.5 * (op + op.conj().T)
        return cls(h, np.linalg.inv(np.linalg.cholesky(h)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``h^-1 b = L^-* (L^-1 b)`` for a vector or a matrix of right-hand sides."""
        l_inv, l_inv_h = self.l_inv, self.l_inv.conj().T
        x = l_inv_h @ (l_inv @ b)
        # One refinement pass knocks the residual down to ~eps * ||B||.
        return x + l_inv_h @ (l_inv @ (b - self.h @ x))


def solve_pd(m, b) -> np.ndarray:
    """Solve ``M X = B`` for Hermitian positive definite ``M``.

    ``b`` may be a vector or a matrix of right-hand sides; the result has
    the same number of dimensions. Uses a Cholesky factorization of the
    Hermitian part plus one step of iterative refinement, which keeps
    ``||M X - B||_F`` at roundoff level for the conditioning this package
    works with.

    Raises ``NotPositiveDefinite`` (with the offending smallest eigenvalue)
    when ``lambda_min <= 1e-12 * lambda_max`` (``_PD_RATIO``), whatever the caller's tol.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if a.shape[1] != n:
        raise NotSquare(f"solve needs a square matrix, got {a.shape}")
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ShapeMismatch(f"right-hand side shape {rhs.shape} does not match order {n}")
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side entries must be finite")
    report = _spectral_report(a, _PD_RATIO, hermitian_gates_bessel=False)
    return CholeskyFactor.of(a, report).solve(rhs)
