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
from .gframes import (
    CoefficientSequence,
    GFrameSystem,
    VectorFrame,
    _check_vector,
    _functionals,
    g_analysis,
    g_synthesis,
    induced_vectors,
    stacked_analysis_matrix,
)
from .kernel import (
    DEFAULT_TOL,
    CholeskyFactor,
    ClassifyReport,
    _spectral_report,
    inner,
    operator_norm,
)


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


def bi_g_frame_operator(sys: BiGFrameSystem) -> np.ndarray:
    """``S = sum_j Gamma_j* Lambda_j``; not Hermitian for arbitrary pairs."""
    return stacked_analysis_matrix(sys.gam).conj().T @ stacked_analysis_matrix(sys.lam)


@dataclass(frozen=True, eq=False)
class _PreparedPair:
    """A pair's verdicts and, for a frame, the Cholesky factor of the Hermitian
    part H of its operator S, which S* shares. The pair operations are methods
    that read ``report.tolerance`` and check their arguments before the frame gate."""

    sys: BiGFrameSystem
    report: ClassifyReport
    factor: CholeskyFactor | None

    def _gated(self) -> CholeskyFactor:
        """The factor; raises ``NotBiGFrame`` unless the pair is a bi-g-frame,
        naming the gate that decided: the Hermitian deviation or the spectrum edges."""
        if self.factor is None:
            report = self.report
            if report.is_bessel:
                lo, hi = report._edges
                reason = f"smallest eigenvalue {lo:.3e} (largest {hi:.3e})"
            else:
                reason = f"hermitian deviation {report.hermitian_deviation:.3e}"
            raise NotBiGFrame(
                f"pair is not a bi-g-frame: {reason}, tol {report.tolerance:.3e}", report=report
            )
        return self.factor

    def _families(self, side: str) -> tuple:
        """``(analysis, synthesis)``: ``(Lambda, Gamma)`` on the gamma side, else swapped."""
        if side not in ("gamma", "lambda"):
            raise ValueError(f"side must be 'gamma' or 'lambda', got {side!r}")
        sys = self.sys
        return (sys.lam, sys.gam) if side == "gamma" else (sys.gam, sys.lam)

    def classified(self) -> ClassifyReport:
        """The report, with ``inverse_norm = ||H^-1||`` from an explicit solve on frames."""
        if self.factor is None:
            return self.report
        inverse = self.factor.solve(np.eye(self.sys.dim, dtype=np.complex128))
        return replace(self.report, inverse_norm=operator_norm(inverse))

    def dual(self) -> BiGFrameSystem:
        """Both dual families from one solve against ``[Lambda^H | Gamma^H]``."""
        sys = self.sys
        stacked = np.vstack((stacked_analysis_matrix(sys.lam), stacked_analysis_matrix(sys.gam)))
        lam, gam = np.split(self._gated().solve(stacked.conj().T).conj().T, 2)
        return BiGFrameSystem(
            GFrameSystem._of_stacked(sys.dim, lam, sys.block_dims),
            GFrameSystem._of_stacked(sys.dim, gam, sys.block_dims),
        )

    def reconstruct(self, vectors, variant: int) -> list:
        """Each of ``vectors`` rebuilt; variant 2 solves against ``Gamma^H`` once."""
        if variant not in (1, 2):
            raise ValueError(f"variant must be 1 or 2, got {variant!r}")
        vs = [_check_vector(self.sys, f) for f in vectors]
        a_lam, a_gam = stacked_analysis_matrix(self.sys.lam), stacked_analysis_matrix(self.sys.gam)
        if variant == 1:
            return [a_gam.conj().T @ (a_lam @ self._gated().solve(v)) for v in vs]
        # (Gamma_j (S*)^-1)* = (S*)^-1-solve applied to Gamma_j*.
        dual_synthesis = self._gated().solve(a_gam.conj().T)
        return [dual_synthesis @ (a_lam @ v) for v in vs]

    def particular(self, f, side: str) -> CoefficientSequence:
        """The dual-analysis coefficients of ``f`` on ``side``."""
        analysis, _ = self._families(side)
        v = _check_vector(self.sys, f)
        return g_analysis(analysis, self._gated().solve(v))

    def null_basis(self, side: str) -> list:
        """An orthonormal basis of the null space of ``side``'s synthesis map: the last
        ``sum m_j - n`` columns of a complete QR of the stacked family, of rank n as S is."""
        _, synthesis = self._families(side)
        self._gated()
        q, _ = np.linalg.qr(stacked_analysis_matrix(synthesis), mode="complete")
        return CoefficientSequence._of_rows(q[:, self.sys.dim:].T, self.sys.block_dims)

    def identity_terms(self, f, g: CoefficientSequence, side: str) -> tuple:
        _, synthesis = self._families(side)
        v = _check_vector(self.sys, f)
        residual = float(np.linalg.norm(g_synthesis(synthesis, g) - v))
        if residual > self.report.tolerance * (1.0 + float(np.linalg.norm(v))):
            raise ConstraintViolated(
                f"coefficients do not synthesize the vector: residual {residual:.3e}"
            )
        y = self._gated().solve(v)
        lam_y = stacked_analysis_matrix(self.sys.lam) @ y
        gam_y = stacked_analysis_matrix(self.sys.gam) @ y
        c = g.to_flat()
        first = inner(c, c - gam_y) if side == "gamma" else inner(c - lam_y, c)
        return g.norm_sq(), first + inner(lam_y, gam_y)


def _prepare(sys: BiGFrameSystem, tol: float) -> _PreparedPair:
    """Operator, Hermitian gate, one spectrum and (for frames) one factor:
    the spectrum edges are both the frame verdict and the factor's gate."""
    op = bi_g_frame_operator(sys)
    report = _spectral_report(op, tol, hermitian_gates_bessel=True)
    return _PreparedPair(sys, report, CholeskyFactor.of(op, report) if report.is_frame else None)


def classify_bi_g_frame(sys: BiGFrameSystem, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a pair from its operator.

    A Hermitian deviation above ``tol`` rules out even the Bessel verdict,
    since a two-sided real inequality forces real pairing sums. Otherwise
    the verdicts and bounds come from the spectrum edges, and
    ``inverse_norm`` reports the operator norm of H^-1, H the Hermitian part
    of S (computed through an explicit solve, so the classical ``<= 1/C``
    estimate stays a genuine cross-check). ``is_riesz`` is ``None``: pair
    reports do not compute it.
    """
    return _prepare(sys, tol).classified()


def swap(sys: BiGFrameSystem) -> BiGFrameSystem:
    """Exchange the two families; verdicts and bounds are invariant."""
    return BiGFrameSystem(sys.gam, sys.lam)


def canonical_pair(sys: BiGFrameSystem, tol: float = DEFAULT_TOL) -> BiGFrameSystem:
    """The pair of blocks ``Lambda_j S^-1`` and ``Gamma_j (S*)^-1``.

    Both reconstruction identities hold against the source pair. S and S*
    share their Hermitian part H, so every block of both families comes
    from one Cholesky factor of H and one multi-right-hand-side solve, and
    the dual pair's own operator is ``H^-1 S H^-1``: ``S^-1`` for a Hermitian
    S. Raises ``NotBiGFrame`` when the pair operator is not Hermitian positive
    definite within ``tol``.
    """
    return _prepare(sys, tol).dual()


def reconstruct(sys: BiGFrameSystem, f, variant: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover ``f`` through one of the two dual expansions.

    Variant 1 evaluates ``sum_j Gamma_j* Lambda_j S^-1 f``; variant 2
    evaluates ``sum_j (Gamma_j (S*)^-1)* Lambda_j f``. Both go through the
    analysis coefficients, not collapsed to ``S S^-1 f``. The inverse is
    applied through one Cholesky factor of the Hermitian part of S: to
    ``f`` in variant 1, and to all of ``Gamma^H`` in one solve in variant 2.
    """
    return _prepare(sys, tol).reconstruct([f], variant)[0]


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
    space, from one complete QR of the stacked family (rank n on a
    bi-g-frame), so the full solution set is ``particular + span(nullbasis)``.
    """
    prepared = _prepare(sys, tol)
    return prepared.particular(f, side), prepared.null_basis(side)


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
    return _prepare(sys, tol).identity_terms(f, g, side)


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
    if f_list.dim != g_list.dim or len(f_list) != len(g_list):
        raise ShapeMismatch(
            f"families do not match: dims {f_list.dim}/{g_list.dim}, "
            f"sizes {len(f_list)}/{len(g_list)}"
        )
    return BiGFrameSystem(_functionals(f_list), _functionals(g_list))

