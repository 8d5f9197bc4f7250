"""Paired operator families (bi-g-frames): their operator, duals,
reconstruction, coefficient identities, and the lift to plain vector
biframes.

A shape-matched pair ``(Lambda, Gamma)`` of block families is a bi-g-frame
when the mixed sums ``sum_j <Lambda_j f, Gamma_j f>`` are pinched between
``C ||f||^2`` and ``D ||f||^2`` with ``C > 0``. That sum is the quadratic
form of ``S = sum_j Gamma_j* Lambda_j``, so over the complex field the pair
is a bi-g-frame exactly when ``S`` is Hermitian (within tolerance) and
positive definite; the optimal constants are the spectrum edges of ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstraintViolated, NotBiGFrame, ShapeMismatch
from .frames import ClassifyReport, VectorFrame, _check_same_shape, _spectral_report
from .gframes import (
    CoefficientSequence,
    GFrameSystem,
    _check_vector,
    g_synthesis,
    induced_vectors,
    stacked_analysis_matrix,
)
from .kernel import DEFAULT_TOL, CholeskyFactor, inner, operator_norm


@dataclass(frozen=True, eq=False)
class BiGFrameSystem:
    """A shape-matched pair of block families over one ambient space."""

    lam: GFrameSystem
    gam: GFrameSystem

    def __post_init__(self):
        if self.lam.dim != self.gam.dim:
            raise ShapeMismatch(
                f"families live on different spaces: {self.lam.dim} vs {self.gam.dim}"
            )
        if self.lam.block_dims != self.gam.block_dims:
            raise ShapeMismatch(
                f"block shapes differ: {self.lam.block_dims} vs {self.gam.block_dims}"
            )

    @property
    def dim(self) -> int:
        return self.lam.dim

    @property
    def block_dims(self) -> tuple:
        return self.lam.block_dims

    def __len__(self):
        return len(self.lam)


@dataclass(frozen=True, eq=False)
class DualPair:
    """The canonical dual pair: ``lam`` holds Lambda_j S^-1, ``gam`` holds
    Gamma_j (S*)^-1, with S the pair operator of the source system."""

    lam: GFrameSystem
    gam: GFrameSystem


def bi_g_frame_operator(sys: BiGFrameSystem) -> np.ndarray:
    """``S = sum_j Gamma_j* Lambda_j``; not Hermitian for arbitrary pairs."""
    return stacked_analysis_matrix(sys.gam).conj().T @ stacked_analysis_matrix(sys.lam)


@dataclass(frozen=True, eq=False)
class _PreparedPair:
    """A pair's verdicts and, for a frame, the Cholesky factor of the
    Hermitian part H of its operator S, which S* shares. Built once per
    public call; only :func:`classify_bi_g_frame` sets ``inverse_norm``."""

    sys: BiGFrameSystem
    report: ClassifyReport
    factor: CholeskyFactor | None


def _prepare(sys: BiGFrameSystem, tol: float) -> _PreparedPair:
    """Operator, Hermitian gate, one spectrum and (for frames) one factor:
    the spectrum edges are both the frame verdict and the factor's gate."""
    op = bi_g_frame_operator(sys)
    report = _spectral_report(op, tol, hermitian_gates_bessel=True)
    if not report.is_frame:
        return _PreparedPair(sys, report, None)
    h = 0.5 * (op + op.conj().T)
    bounds = report.bounds
    return _PreparedPair(sys, report, CholeskyFactor.gated(h, bounds.lower, bounds.upper, tol))


def classify_bi_g_frame(sys: BiGFrameSystem, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a pair from its operator.

    A Hermitian deviation above ``tol`` rules out even the Bessel verdict,
    since a two-sided real inequality forces real pairing sums. Otherwise
    the verdicts and bounds come from the spectrum edges, and
    ``inverse_norm`` reports the operator norm of S^-1 (computed through an
    explicit solve, so the classical ``<= 1/C`` estimate stays a genuine
    cross-check). ``is_riesz`` is ``None``: pair reports do not compute it.
    """
    prepared = _prepare(sys, tol)
    if not prepared.report.is_frame:
        return prepared.report
    inverse_norm = operator_norm(prepared.factor.solve(np.eye(sys.dim, dtype=np.complex128)))
    return replace(prepared.report, inverse_norm=inverse_norm)


def _require_frame(sys: BiGFrameSystem, tol: float) -> _PreparedPair:
    prepared = _prepare(sys, tol)
    if not prepared.report.is_frame:
        raise NotBiGFrame(
            "pair is not a bi-g-frame: "
            f"hermitian deviation {prepared.report.hermitian_deviation:.3e}, tol {tol:.3e}",
            report=prepared.report,
        )
    return prepared


def swap(sys: BiGFrameSystem) -> BiGFrameSystem:
    """Exchange the two families; verdicts and bounds are invariant."""
    return BiGFrameSystem(sys.gam, sys.lam)


def _dual(prepared: _PreparedPair) -> DualPair:
    """Both dual families from one solve against ``[Lambda^H | Gamma^H]``."""
    sys = prepared.sys
    stacked = np.vstack((stacked_analysis_matrix(sys.lam), stacked_analysis_matrix(sys.gam)))
    solved = prepared.factor.solve(stacked.conj().T)
    lam, gam = np.split(solved.conj().T, 2)
    return DualPair(
        lam=GFrameSystem._of_stacked(sys.dim, lam, sys.block_dims),
        gam=GFrameSystem._of_stacked(sys.dim, gam, sys.block_dims),
    )


def canonical_pair(sys: BiGFrameSystem, tol: float = DEFAULT_TOL) -> DualPair:
    """Blocks ``Lambda_j S^-1`` and ``Gamma_j (S*)^-1``.

    Both reconstruction identities hold against the source pair. S and S*
    share their Hermitian part H, so every block of both families comes
    from one Cholesky factor of H and one multi-right-hand-side solve.
    Raises ``NotBiGFrame`` when the pair operator is not Hermitian positive
    definite within ``tol``.
    """
    return _dual(_require_frame(sys, tol))


def reconstruct(sys: BiGFrameSystem, f, variant: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover ``f`` through one of the two dual expansions.

    Variant 1 evaluates ``sum_j Gamma_j* Lambda_j S^-1 f``; variant 2
    evaluates ``sum_j (Gamma_j (S*)^-1)* Lambda_j f``. Both go through the
    analysis coefficients, not collapsed to ``S S^-1 f``. The inverse is
    applied through one Cholesky factor of the Hermitian part of S: to
    ``f`` in variant 1, and to all of ``Gamma^H`` in one solve in variant 2.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    v = _check_vector(sys, f)
    prepared = _require_frame(sys, tol)
    a_lam, a_gam = stacked_analysis_matrix(sys.lam), stacked_analysis_matrix(sys.gam)
    if variant == 1:
        return a_gam.conj().T @ (a_lam @ prepared.factor.solve(v))
    # (Gamma_j (S*)^-1)* = (S*)^-1-solve applied to Gamma_j*.
    return prepared.factor.solve(a_gam.conj().T) @ (a_lam @ v)


def solve_synthesis_coefficients(
    sys: BiGFrameSystem, f, side: str, tol: float = DEFAULT_TOL
) -> tuple:
    """A particular coefficient solution plus a kernel basis.

    For ``side='gamma'`` the constraint is ``f = sum_j Gamma_j* g_j`` and
    the particular solution is ``g_j = Lt_j f`` (dual-analysis
    coefficients); ``side='lambda'`` swaps the roles. Since
    ``Lt_j f = Lambda_j y`` and ``Gt_j f = Gamma_j y`` with ``y = H^-1 f``,
    H the Hermitian part of S, one solve against ``f`` gives the particular
    solution; no dual family is formed. The second return
    value is an orthonormal basis of the stacked synthesis map's null
    space, in the order the singular value decomposition yields it, so the
    full solution set is ``particular + span(nullbasis)``.
    """
    if side not in ("gamma", "lambda"):
        raise ValueError(f"side must be 'gamma' or 'lambda', got {side!r}")
    v = _check_vector(sys, f)
    y = _require_frame(sys, tol).factor.solve(v)
    if side == "gamma":
        analysis_family, synthesis_family = sys.lam, sys.gam
    else:
        analysis_family, synthesis_family = sys.gam, sys.lam
    dims = sys.block_dims
    particular = CoefficientSequence._of_flat(stacked_analysis_matrix(analysis_family) @ y, dims)

    stacked = stacked_analysis_matrix(synthesis_family).conj().T
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.sum(s > tol * s[0])) if s.size else 0
    nullbasis = [CoefficientSequence._of_flat(row, dims) for row in np.conj(vh[rank:])]
    return particular, nullbasis


def coefficient_identity_terms(
    sys: BiGFrameSystem, f, g: CoefficientSequence, side: str, tol: float = DEFAULT_TOL
) -> tuple:
    """Evaluate both sides of the minimal-norm coefficient identity.

    With duals ``Lt_j = Lambda_j S^-1`` and ``Gt_j = Gamma_j (S*)^-1``, any
    ``g`` synthesizing ``f`` through the chosen side satisfies

        sum_j ||g_j||^2 = sum_j <g_j, g_j - Gt_j f> + sum_j <Lt_j f, Gt_j f>

    on the gamma side, and the mirrored first term ``<g_j - Lt_j f, g_j>``
    on the lambda side. Both dual terms need only ``Lt_j f = Lambda_j y``
    and ``Gt_j f = Gamma_j y`` with ``y = H^-1 f``, so one solve serves
    them. Returns ``(lhs, rhs)`` as (float, complex); raises
    ``ConstraintViolated`` when ``g`` does not synthesize ``f``.
    """
    if side not in ("gamma", "lambda"):
        raise ValueError(f"side must be 'gamma' or 'lambda', got {side!r}")
    v = _check_vector(sys, f)
    synthesized = g_synthesis(sys.gam if side == "gamma" else sys.lam, g)
    residual = float(np.linalg.norm(synthesized - v))
    if residual > tol * (1.0 + float(np.linalg.norm(v))):
        raise ConstraintViolated(
            f"coefficients do not synthesize the vector: residual {residual:.3e}"
        )

    y = _require_frame(sys, tol).factor.solve(v)
    lam_y = stacked_analysis_matrix(sys.lam) @ y
    gam_y = stacked_analysis_matrix(sys.gam) @ y
    c = g.to_flat()
    first = inner(c, c - gam_y) if side == "gamma" else inner(c - lam_y, c)
    return g.norm_sq(), first + inner(lam_y, gam_y)


def lift_to_biframe(sys: BiGFrameSystem) -> tuple:
    """Induced vector families of both sides, in matching flattening order.

    Classifying the lifted pair as a vector biframe reproduces the pair's
    verdicts and bounds exactly, because both classifications read the same
    operator.
    """
    return induced_vectors(sys.lam), induced_vectors(sys.gam)


def from_vector_biframe(f_list: VectorFrame, g_list: VectorFrame) -> BiGFrameSystem:
    """Promote two vector families to a pair of rank-one block families.

    Vector ``f_j`` becomes the 1 x n functional row ``conj(f_j)``, so the
    pair's mixed sums coincide with the vector biframe sums and
    ``lift_to_biframe`` returns the original families.
    """
    _check_same_shape(f_list, g_list)
    lam = GFrameSystem(f_list.dim, tuple(np.conj(v)[None, :] for v in f_list.vectors))
    gam = GFrameSystem(g_list.dim, tuple(np.conj(v)[None, :] for v in g_list.vectors))
    return BiGFrameSystem(lam, gam)

