"""Vector frames in finite dimensions: classification, duals, and
controlled and paired variants.

A family ``{f_j}`` in C^n is the g-frame of its functionals ``Lambda_j = f_j*``,
and a pair of families is the bi-g-frame of theirs, so every verdict here is a
pair verdict, read from ``sum_j g_j f_j*``: a family is the pair ``(f, f)``, and a
controlled system ``(f, C f)``, with operator ``C S``. Unless the two families are
equal, that operator must also be Hermitian (within tolerance). A family is a
Riesz basis (``is_riesz``) when it is a frame of exactly n vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bigframes import _classify, bi_g_frame_operator, classify_g_frame, from_vector_biframe
from .errors import NotInvertibleController, ShapeMismatch
from .gframes import VectorFrame, _functionals, g_frame_operator
from .kernel import _PD_RATIO, DEFAULT_TOL, ClassifyReport, CholeskyFactor, as_matrix


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
        if s[-1] <= _PD_RATIO * s[0]:
            raise NotInvertibleController(
                f"controller is numerically singular: smallest singular value {s[-1]:.3e}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "controller", c)


def synthesis_matrix(frame: VectorFrame) -> np.ndarray:
    """The read-only n x |J| matrix whose j-th column is f_j."""
    return frame._rows.T


def frame_operator(frame: VectorFrame) -> np.ndarray:
    """``S = sum_j f_j f_j*``, the g-frame operator of the functionals; Hermitian PSD."""
    return g_frame_operator(_functionals(frame))


def classify_frame(frame: VectorFrame, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a vector family; bounds are the frame operator's spectrum edges.
    Any finite family is Bessel. The frame verdict requires ``lambda_min > tol *
    lambda_max``; tight means the spectrum collapses to a point relative to ``tol``,
    Parseval additionally pins it at 1."""
    return classify_g_frame(_functionals(frame), tol)


def canonical_dual(frame: VectorFrame) -> VectorFrame:
    """The family ``{S^-1 f_j}``; raises ``NotPositiveDefinite`` on non-frames at ``_PD_RATIO``."""
    factor = CholeskyFactor.of(*_classify(from_vector_biframe(frame, frame), _PD_RATIO))
    duals = factor.solve(synthesis_matrix(frame))
    return VectorFrame(frame.dim, tuple(duals[:, j] for j in range(duals.shape[1])))


def check_duality(f: VectorFrame, g: VectorFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when ``||sum_j g_j f_j* - I||_F <= tol ||F||_F ||G||_F``, a normwise backward
    error of the product; then so is its adjoint ``sum_j f_j g_j*``, at the same distance."""
    pair = from_vector_biframe(f, g)
    residual = np.linalg.norm(bi_g_frame_operator(pair) - np.eye(f.dim))
    return bool(residual <= tol * pair.lam._frobenius * pair.gam._frobenius)


def check_controlled_duality(
    sys: ControlledSystem, duals: VectorFrame, tol: float = DEFAULT_TOL
) -> bool:
    """One-sided controlled duality: ``f = sum_j <f, g_j> C f_j`` for all f,
    i.e. ``{C f_j}`` is dual to ``{g_j}`` within ``tol``. Only this
    orientation is checked.
    """
    weighted = sys.controller @ synthesis_matrix(sys.frame)
    return check_duality(duals, VectorFrame(sys.frame.dim, tuple(weighted.T)), tol)


def classify_controlled(sys: ControlledSystem, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a controlled system as the pair ``(F, C F)``, whose operator is ``C S``.

    The weighted pairing sum equals ``<C S f, f>``, so a controlled-frame
    verdict requires ``C S`` to be Hermitian within ``tol``; bounds are then
    its spectrum edges. ``is_riesz`` refers to the underlying frame.
    """
    f, weighted = sys.frame, sys.controller @ synthesis_matrix(sys.frame)
    report = _classify(from_vector_biframe(f, VectorFrame(f.dim, tuple(weighted.T))), tol)[1]
    return replace(report, is_riesz=len(f) == f.dim and classify_frame(f, tol).is_frame)


def classify_biframe(f: VectorFrame, g: VectorFrame, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a pair of families via the mixed operator ``sum_j g_j f_j*``.

    The mixed sum ``sum_j <h, f_j><g_j, h>`` equals the quadratic form of
    that operator; verdict rules are the same as for controlled systems.
    ``is_riesz`` holds when both families are Riesz bases.
    """
    report = _classify(from_vector_biframe(f, g), tol)[1]
    is_riesz = all(len(h) == h.dim and classify_frame(h, tol).is_frame for h in (f, g))
    return replace(report, is_riesz=is_riesz)
