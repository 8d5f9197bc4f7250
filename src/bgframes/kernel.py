"""Dense complex-matrix primitives: Hermitian deviation, the spectral report every
verdict is read from, the one error for a failed gate, and the PD factor it gates.

Everything downstream (frame layers, generators, CLI) goes through this module
for its numerics. All functions are pure; inputs are validated and coerced to
finite ``complex128`` arrays once, here. NumPy is the only dependency: a PD
factor keeps ``H^-1`` (``cholesky``, ``inv``) and applies it from either side,
refined once, so that each solve is componentwise backward stable. Every PD factor
is ``CholeskyFactor.of(*bigframes._classify(pair, tol))``; a pair keeps its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotBiGFrame, NotHermitian, NotPositiveDefinite, NotSquare, ShapeMismatch

#: Package-wide default relative tolerance for verdicts and residual checks.
DEFAULT_TOL = 1e-9


def _as_array(data, ndim: int, noun: str) -> np.ndarray:
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != ndim:
        raise ShapeMismatch(f"expected a {ndim}-d {noun}, got ndim={a.ndim}")
    if a.size == 0:
        raise ShapeMismatch(f"{noun} must be nonempty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{noun} entries must be finite (no NaN/Inf)")
    return a


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a nonempty 2-d complex128 array with finite entries."""
    return _as_array(data, 2, "matrix")


def as_vector(data) -> np.ndarray:
    """Coerce ``data`` to a nonempty 1-d complex128 array with finite entries."""
    return _as_array(data, 1, "vector")


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
    (a,) = _unit_scaled(a)
    norm = np.linalg.norm(a)
    return float(np.linalg.norm(a - a.conj().T) / norm) if norm else 0.0


def _unit_scaled(a: np.ndarray, *others) -> list:
    """``a`` and ``others`` times the power of two that puts ``a``'s largest real or imaginary
    part in [0.5, 1) (1 for a zero ``a``): an exact scale, under which ``||a||^2`` is in range."""
    e = -np.frexp(np.maximum(np.abs(a.real), np.abs(a.imag)).max())[1]
    return [np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e) for x in (a, *others)]


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
    pair reports, which do not compute it. ``inverse_norm`` is ``||H^-1||``, H
    the Hermitian part of the operator: ``1 / bounds.lower`` on frames, where H
    is positive definite, and ``None`` otherwise.
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


def _spectral_report(op: np.ndarray, tol: float, hermitian_gates_bessel: bool) -> tuple:
    """``(H, report)``, the one classification core: deviation gate, then the edges
    ``lo, hi`` of the spectrum of H, the Hermitian part of ``op`` (``None`` when that
    gate decided); a frame when ``lo > tol * max(hi, 0)``.

    ``hermitian_gates_bessel`` is false for Gram operators, Hermitian and Bessel
    by construction: their deviation is rounding, reported but gating nothing.
    Raises ``ValueError`` unless ``tol`` is finite and non-negative, and
    ``numpy.linalg.LinAlgError`` on a frame whose ``1/lo`` overflows.
    """
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    dev = hermitian_deviation(op)
    if hermitian_gates_bessel and dev > tol:
        return None, ClassifyReport(False, False, False, False, None, None, dev, tol)
    h = 0.5 * (op + op.conj().T)
    w = np.linalg.eigvalsh(h)
    lo, hi = float(w[0]), float(w[-1])
    is_frame = lo > tol * max(hi, 0.0)
    is_tight = is_frame and (hi - lo) <= tol * hi
    is_parseval = is_tight and abs(hi - 1.0) <= tol
    bounds = FrameBounds(lo, hi) if is_frame else None
    inverse_norm = 1.0 / lo if is_frame else None
    if inverse_norm == np.inf:
        raise np.linalg.LinAlgError(f"H^-1 overflows: smallest eigenvalue {lo:.6e}")
    return h, ClassifyReport(
        True, is_frame, is_tight, is_parseval, None, bounds, dev, tol, inverse_norm, (lo, hi)
    )


def _refusal(report: ClassifyReport) -> NotBiGFrame:
    """The error for a ``report`` that failed the frame gate, naming the gate that decided:
    ``NotHermitian`` when it is not Bessel, else ``NotPositiveDefinite``."""
    tol = report.tolerance
    if not report.is_bessel:
        dev = report.hermitian_deviation
        return NotHermitian(f"hermitian deviation {dev:.3e}, tol {tol:.3e}", report)
    lo, hi = report._edges
    return NotPositiveDefinite(
        f"not positive definite: smallest eigenvalue {lo:.3e} (largest {hi:.3e}), tol {tol:.3e}",
        report,
    )


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """``H^-1`` for an operator's Hermitian PD part ``h = L L*``, formed once by
    :meth:`of` as ``L^-* L^-1``; it serves any number of solves."""

    h: np.ndarray
    h_inv: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray, report: ClassifyReport) -> "CholeskyFactor":
        """Factor the H that :func:`_spectral_report` returned with ``report``: raises
        :func:`_refusal` unless it passed the frame gate, ``LinAlgError`` on failure."""
        if not report.is_frame:
            raise _refusal(report)
        with np.errstate(over="ignore", invalid="ignore"):
            l_inv = np.linalg.inv(np.linalg.cholesky(h))
            h_inv = l_inv.conj().T @ l_inv
        if np.isfinite(h_inv).all():
            return cls(h, h_inv)
        raise np.linalg.LinAlgError(f"H^-1 overflows: smallest eigenvalue {report._edges[0]:.6e}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``h^-1 b`` for a vector or a matrix of right-hand sides: one product with
        the kept inverse, and one refinement pass, which makes the solve componentwise
        backward stable (Skeel, Math. Comp. 35, 1980; Higham, 2nd ed., 2002, §12.2)."""
        x = self.h_inv @ b
        return x + self.h_inv @ (b - self.h @ x)

    def solve_rows(self, a: np.ndarray) -> np.ndarray:
        """``a h^-1`` for a matrix of rows, refined like :meth:`solve`; three arrays its size."""
        x = a @ self.h_inv
        r = x @ self.h
        y = np.subtract(a, r, out=r) @ self.h_inv
        y += x
        return y
