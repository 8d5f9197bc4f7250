"""Vector frames in finite dimensions: classification, duals, controlled
and paired variants, and the Riesz-basis criterion.

A family ``{f_j}`` in C^n is a frame when its frame operator
``S = sum_j f_j f_j*`` is positive definite; the optimal bounds are the
extreme eigenvalues of ``S``. Pair and controlled variants replace ``S``
with a mixed operator that must additionally be Hermitian (within
tolerance) for the two-sided inequality to make sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleController, ShapeMismatch
from .kernel import (
    DEFAULT_TOL,
    as_matrix,
    as_vector,
    hermitian_deviation,
    positive_definite,
    solve_pd,
)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal lower/upper frame constants; ``0 < lower <= upper``."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError(f"invalid bounds: ({self.lower}, {self.upper})")


@dataclass(frozen=True, eq=False)
class VectorFrame:
    """An ordered, nonempty family of vectors in C^dim."""

    dim: int
    vectors: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch(f"dimension must be positive, got {self.dim}")
        vecs = tuple(np.array(as_vector(v), copy=True) for v in self.vectors)
        if not vecs:
            raise ShapeMismatch("a frame needs at least one vector")
        for k, v in enumerate(vecs):
            if v.shape[0] != self.dim:
                raise ShapeMismatch(
                    f"vector {k} has length {v.shape[0]}, expected {self.dim}"
                )
            v.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self):
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class ControlledSystem:
    """A vector frame weighted through an invertible operator."""

    frame: VectorFrame
    controller: np.ndarray

    def __post_init__(self):
        c = np.array(as_matrix(self.controller), copy=True)
        n = self.frame.dim
        if c.shape != (n, n):
            raise ShapeMismatch(f"controller shape {c.shape} does not match dimension {n}")
        s = np.linalg.svd(c, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise NotInvertibleController(
                f"controller is numerically singular: smallest singular value {s[-1]:.3e}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "controller", c)


@dataclass(frozen=True)
class ClassifyReport:
    """Verdicts for one classified family or pair.

    ``bounds`` is present exactly when ``is_frame`` holds; verdicts satisfy
    parseval => tight => frame => bessel. ``hermitian_deviation`` refers to
    the operator the verdict was computed from. ``is_riesz`` is ``None`` on
    pair reports, which do not compute it; ``inverse_norm`` (the operator
    norm of S^-1) is set only by ``classify_bi_g_frame``, on frames.
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


def synthesis_matrix(frame: VectorFrame) -> np.ndarray:
    """The n x |J| matrix whose j-th column is f_j."""
    return np.column_stack(frame.vectors)


def frame_operator(frame: VectorFrame) -> np.ndarray:
    """``S = T T*`` where T is the synthesis matrix; Hermitian PSD."""
    t = synthesis_matrix(frame)
    return t @ t.conj().T


def _spectral_report(
    op: np.ndarray, tol: float, hermitian_gates_bessel: bool, is_riesz: bool | None = None
) -> ClassifyReport:
    """The one classification core: deviation gate, then spectrum edges.

    ``hermitian_gates_bessel`` is false for Gram operators, which are
    Bessel by construction at every ``tol``.
    """
    dev = hermitian_deviation(op)
    hermitian_ok = dev <= tol
    is_bessel = hermitian_ok if hermitian_gates_bessel else True
    if not hermitian_ok:
        return ClassifyReport(is_bessel, False, False, False, is_riesz, None, dev, tol)
    h = 0.5 * (op + op.conj().T)
    w = np.linalg.eigvalsh(h)
    lo, hi = float(w[0]), float(w[-1])
    is_frame = positive_definite(lo, hi, tol)
    is_tight = is_frame and (hi - lo) <= tol * hi
    is_parseval = is_tight and abs(hi - 1.0) <= tol
    bounds = FrameBounds(lo, hi) if is_frame else None
    return ClassifyReport(is_bessel, is_frame, is_tight, is_parseval, is_riesz, bounds, dev, tol)


def classify_frame(frame: VectorFrame, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a vector family; bounds are the frame operator's spectrum edges.

    Any finite family is Bessel. The frame verdict requires
    ``lambda_min > tol * lambda_max``; tight means the spectrum collapses to
    a point relative to ``tol``, Parseval additionally pins it at 1.
    """
    return _spectral_report(frame_operator(frame), tol, False, is_riesz_basis(frame, tol))


def canonical_dual(frame: VectorFrame) -> VectorFrame:
    """The family ``{S^-1 f_j}``; raises ``NotPositiveDefinite`` on non-frames."""
    duals = solve_pd(frame_operator(frame), synthesis_matrix(frame))
    return VectorFrame(frame.dim, tuple(duals[:, j] for j in range(duals.shape[1])))


def _check_same_shape(f: VectorFrame, g: VectorFrame) -> None:
    """Two families must share their dimension and their size."""
    if f.dim != g.dim or len(f) != len(g):
        raise ShapeMismatch(
            f"families do not match: dims {f.dim}/{g.dim}, sizes {len(f)}/{len(g)}"
        )


def check_duality(f: VectorFrame, g: VectorFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when ``sum_j g_j f_j* = I = sum_j f_j g_j*`` within ``tol`` (Frobenius)."""
    _check_same_shape(f, g)
    fm = synthesis_matrix(f)
    gm = synthesis_matrix(g)
    eye = np.eye(f.dim)
    return (
        np.linalg.norm(gm @ fm.conj().T - eye) <= tol
        and np.linalg.norm(fm @ gm.conj().T - eye) <= tol
    )


def check_controlled_duality(
    sys: ControlledSystem, duals: VectorFrame, tol: float = DEFAULT_TOL
) -> bool:
    """One-sided controlled duality: ``f = sum_j <f, g_j> C f_j`` for all f,
    i.e. ``C T_f T_g* = I`` within ``tol``. Only this orientation is checked.
    """
    _check_same_shape(sys.frame, duals)
    prod = sys.controller @ synthesis_matrix(sys.frame) @ synthesis_matrix(duals).conj().T
    return bool(np.linalg.norm(prod - np.eye(sys.frame.dim)) <= tol)


def classify_controlled(sys: ControlledSystem, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a controlled system via ``S_c = C S``.

    The weighted pairing sum equals ``<S_c f, f>``, so a controlled-frame
    verdict requires ``S_c`` to be Hermitian within ``tol``; bounds are then
    its spectrum edges. ``is_riesz`` refers to the underlying frame.
    """
    op = sys.controller @ frame_operator(sys.frame)
    return _spectral_report(op, tol, True, is_riesz_basis(sys.frame, tol))


def classify_biframe(f: VectorFrame, g: VectorFrame, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a pair of families via the mixed operator ``sum_j g_j f_j*``.

    The mixed sum ``sum_j <h, f_j><g_j, h>`` equals the quadratic form of
    that operator; verdict rules are the same as for controlled systems.
    ``is_riesz`` holds when both families are Riesz bases.
    """
    _check_same_shape(f, g)
    op = synthesis_matrix(g) @ synthesis_matrix(f).conj().T
    return _spectral_report(op, tol, True, is_riesz_basis(f, tol) and is_riesz_basis(g, tol))


def is_riesz_basis(frame: VectorFrame, tol: float = DEFAULT_TOL) -> bool:
    """Finite-dimensional Riesz criterion: |J| = dim and invertible synthesis."""
    if len(frame) != frame.dim:
        return False
    s = np.linalg.svd(synthesis_matrix(frame), compute_uv=False)
    return bool(s[-1] > tol * s[0])
