"""Vector frames in finite dimensions: classification, duals, controlled
and paired variants, and the Riesz-basis criterion.

A family ``{f_j}`` in C^n is the g-frame of its functionals
``Lambda_j = f_j*``, and a pair of families is the bi-g-frame of theirs, so
every verdict here is read from the frame operator ``sum_j f_j f_j*`` or
the pair operator ``sum_j g_j f_j*``. Pair and controlled (``C S``)
operators must additionally be Hermitian (within tolerance) for the
two-sided inequality to make sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigframes import bi_g_frame_operator, from_vector_biframe
from .errors import NotInvertibleController, ShapeMismatch
from .gframes import VectorFrame, _functionals, classify_g_frame, g_frame_operator, is_g_riesz_basis
from .kernel import DEFAULT_TOL, ClassifyReport, _spectral_report, as_matrix, solve_pd

# Controllers need s_min > this times s_max: _PD_RATIO's cutoff, where C^-1 keeps ~4 digits.
_CONTROLLER_RATIO = 1e-12


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
        if s[-1] <= _CONTROLLER_RATIO * s[0]:
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

    Any finite family is Bessel. The frame verdict requires
    ``lambda_min > tol * lambda_max``; tight means the spectrum collapses to
    a point relative to ``tol``, Parseval additionally pins it at 1.
    """
    return classify_g_frame(_functionals(frame), tol)


def canonical_dual(frame: VectorFrame) -> VectorFrame:
    """The family ``{S^-1 f_j}``; raises ``NotPositiveDefinite`` on non-frames."""
    duals = solve_pd(frame_operator(frame), synthesis_matrix(frame))
    return VectorFrame(frame.dim, tuple(duals[:, j] for j in range(duals.shape[1])))


def check_duality(f: VectorFrame, g: VectorFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when ``sum_j g_j f_j* = I`` within ``tol`` relative to ``||I||_F = sqrt(n)``
    (Frobenius); then so is its adjoint ``sum_j f_j g_j*``, at the same distance from I."""
    op = bi_g_frame_operator(from_vector_biframe(f, g))
    return bool(np.linalg.norm(op - np.eye(f.dim)) <= tol * np.sqrt(f.dim))


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
    op = bi_g_frame_operator(from_vector_biframe(f, g))
    return _spectral_report(op, tol, True, is_riesz_basis(f, tol) and is_riesz_basis(g, tol))


def is_riesz_basis(frame: VectorFrame, tol: float = DEFAULT_TOL) -> bool:
    """Finite-dimensional Riesz criterion: |J| = dim and a frame at ``tol``."""
    return is_g_riesz_basis(_functionals(frame), tol)
