"""Paired operator families (bi-g-frames): the one verdict core, duals,
reconstruction, coefficient identities, and the lift to vector biframes.

A shape-matched pair ``(Lambda, Gamma)`` of block families is a bi-g-frame
when the mixed sums ``sum_j <Lambda_j f, Gamma_j f>`` are pinched between
``C ||f||^2`` and ``D ||f||^2`` with ``C > 0``. That sum is the quadratic
form of ``S = sum_j Gamma_j* Lambda_j``, so over the complex field the pair
is a bi-g-frame exactly when ``S`` is Hermitian (within tolerance) and
positive definite; the optimal constants are the spectrum edges of ``S``.
Every verdict in the package is read by :func:`_classify`: a g-frame is the
pair ``(Lambda, Lambda)``, and a controlled system ``(F, C F)``, of operator ``C S``.
A pair keeps what :func:`_prepare` returns, its report, factor and null bases, for
one ``tol``; each public pair function reads that directly, with no per-call object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConstraintViolated, ShapeMismatch
from .gframes import (
    CoefficientSequence,
    GFrameSystem,
    VectorFrame,
    _check_vector,
    _functionals,
    _match_block_dims,
    g_analysis,
    g_synthesis,
    induced_vectors,
    stacked_analysis_matrix,
)
from .kernel import (
    DEFAULT_TOL,
    CholeskyFactor,
    ClassifyReport,
    _refusal,
    _spectral_report,
    inner,
)


@dataclass(frozen=True, eq=False)
class BiGFrameSystem:
    """A shape-matched pair of block families over one ambient space.

    ``_prepared`` holds ``(tol, report, factor, bases)`` from the last :func:`_prepare`
    at one tolerance, ``bases`` each side's null basis once a call has built it;
    both families are frozen, so it stays valid."""

    lam: GFrameSystem
    gam: GFrameSystem
    _prepared: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lam.dim != self.gam.dim:
            raise ShapeMismatch(
                f"families live on different spaces: {self.lam.dim} vs {self.gam.dim}"
            )
        _match_block_dims(self.lam.block_dims, self.gam.block_dims, "block shapes")

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


def _classify(sys: BiGFrameSystem, tol: float) -> tuple:
    """``(H, report)`` of S, H its Hermitian part (``None`` when not Bessel); the Hermitian
    gate is off exactly when the families are equal. An S that overflows raises ``LinAlgError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        op = bi_g_frame_operator(sys)
    if not np.isfinite(op).all():
        raise np.linalg.LinAlgError("pair operator overflows")
    gram = np.array_equal(stacked_analysis_matrix(sys.lam), stacked_analysis_matrix(sys.gam))
    return _spectral_report(op, tol, hermitian_gates_bessel=not gram)


def _prepare(sys: BiGFrameSystem, tol: float) -> tuple:
    """``(report, factor, bases)``: :func:`_classify` and, for frames, one Cholesky
    factor of the Hermitian part H of S, which S* shares; the spectrum edges are
    both the frame verdict and the factor's gate. Kept on ``sys`` for the last
    ``tol`` only, and only once the factor is built; ``bases`` starts empty and
    keeps each side's null basis once built."""
    kept = sys._prepared
    if kept is None or kept[0] != tol:
        h, report = _classify(sys, tol)
        kept = (tol, report, CholeskyFactor.of(h, report) if report.is_frame else None, {})
        object.__setattr__(sys, "_prepared", kept)
    return kept[1:]


def _factor(report: ClassifyReport, factor: CholeskyFactor | None) -> CholeskyFactor:
    """``factor``; raises :func:`_refusal` of ``report`` unless the pair is a bi-g-frame."""
    if factor is None:
        raise _refusal(report)
    return factor


def _families(sys: BiGFrameSystem, side: str) -> tuple:
    """``(analysis, synthesis)``: ``(Lambda, Gamma)`` on the gamma side, else swapped."""
    if side not in ("gamma", "lambda"):
        raise ValueError(f"side must be 'gamma' or 'lambda', got {side!r}")
    return (sys.lam, sys.gam) if side == "gamma" else (sys.gam, sys.lam)


def classify_bi_g_frame(sys: BiGFrameSystem, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a pair from its operator. Unless the families are equal, a Hermitian
    deviation above ``tol`` rules out even the Bessel verdict, since a two-sided
    real inequality forces real pairing sums. The rest comes from the spectrum
    edges; ``inverse_norm`` is ``||H^-1|| = 1/C``, H the Hermitian part of S and C
    the lower bound. ``is_riesz`` is ``None``: pair reports do not compute it."""
    return _prepare(sys, tol)[0]


def classify_g_frame(sys: GFrameSystem, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify a block family as the pair ``(Lambda, Lambda)``; a frame
    (analysis matrix of rank n) is a Riesz basis exactly when ``sum_j m_j = n``."""
    report = _classify(BiGFrameSystem(sys, sys), tol)[1]
    return replace(report, is_riesz=report.is_frame and sys.total_block_dim == sys.dim)


def swap(sys: BiGFrameSystem) -> BiGFrameSystem:
    """Exchange the two families; verdicts and bounds are invariant."""
    return BiGFrameSystem(sys.gam, sys.lam)


def canonical_pair(sys: BiGFrameSystem, tol: float = DEFAULT_TOL) -> BiGFrameSystem:
    """The pair of blocks ``Lambda_j S^-1`` and ``Gamma_j (S*)^-1``.

    Both reconstruction identities hold against the source pair. S and S*
    share their Hermitian part H, so both families come from one Cholesky
    factor of H, each as one right solve ``A H^-1`` of its analysis matrix A,
    uncopied, and the dual pair's own operator is ``H^-1 S H^-1``: ``S^-1`` for a
    Hermitian S. Raises ``NotBiGFrame`` when the pair operator is not Hermitian
    positive definite within ``tol``.
    """
    factor = _factor(*_prepare(sys, tol)[:2])
    lam, gam = (factor.solve_rows(stacked_analysis_matrix(s)) for s in (sys.lam, sys.gam))
    return BiGFrameSystem(
        GFrameSystem._of_stacked(sys.dim, lam, sys.block_dims),
        GFrameSystem._of_stacked(sys.dim, gam, sys.block_dims),
    )


def reconstruct(sys: BiGFrameSystem, f, variant: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover ``f`` through one of the two dual expansions.

    Variant 1 evaluates ``sum_j Gamma_j* Lambda_j S^-1 f``; variant 2
    evaluates ``sum_j (Gamma_j (S*)^-1)* Lambda_j f``. Both go through the
    analysis coefficients, not collapsed to ``S S^-1 f``. The pair's kept ``H^-1``,
    H the Hermitian part of S, is applied once: to ``f`` in variant 1, and to
    ``Gamma^H Lambda f`` in variant 2, as ``(Gamma_j (S*)^-1)* = H^-1 Gamma_j*``.
    """
    return _reconstruct(sys, [f], variant, tol)[0]


def _reconstruct(sys: BiGFrameSystem, vectors, variant: int, tol: float) -> list:
    """:func:`reconstruct` of each of ``vectors``, the columns of V, with one solve:
    ``Gamma^H Lambda H^-1 V`` (variant 1) or ``H^-1 Gamma^H Lambda V`` (2), where
    ``Gamma^H Y`` is ``conj(Y^H Gamma)``."""
    report, factor, _ = _prepare(sys, tol)
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    v = np.column_stack([_check_vector(sys, f) for f in vectors])
    solve = _factor(report, factor).solve
    y = stacked_analysis_matrix(sys.lam) @ (solve(v) if variant == 1 else v)
    rows = np.conj(y.conj().T @ stacked_analysis_matrix(sys.gam))
    return list(rows if variant == 1 else solve(rows.T).T)


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
    The basis depends on the pair alone: it is built once per pair, side and
    ``tol``, and every call returns a new list of the same read-only sequences.
    """
    report, factor, bases = _prepare(sys, tol)
    analysis, synthesis = _families(sys, side)
    v = _check_vector(sys, f)
    particular = g_analysis(analysis, _factor(report, factor).solve(v))
    if side not in bases:
        q, _ = np.linalg.qr(stacked_analysis_matrix(synthesis), mode="complete")
        rows = np.ascontiguousarray(q[:, sys.dim:].T)
        bases[side] = CoefficientSequence._of_rows(rows, sys.block_dims)
    return particular, list(bases[side])


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
    them. Returns ``(lhs, rhs)`` as (float, complex); raises ``ConstraintViolated``
    when ``||Gamma^H g - f|| > tol (||Gamma||_F ||g|| + ||f||)`` (``Lambda`` on that side),
    and ``LinAlgError`` when ``||g||^2`` overflows.
    """
    return _coefficient_identity_terms(sys, f, [g], side, tol)[0]


def _coefficient_identity_terms(sys: BiGFrameSystem, f, gs, side: str, tol: float) -> list:
    """:func:`coefficient_identity_terms` of each of ``gs``, with one solve of ``y = H^-1 f``."""
    report, factor, _ = _prepare(sys, tol)
    _, synthesis = _families(sys, side)
    v = _check_vector(sys, f)
    lhs = [g.norm_sq() for g in gs]
    if not np.isfinite(lhs).all():
        raise np.linalg.LinAlgError("coefficient norm overflows")
    for g, norm_sq in zip(gs, lhs):
        residual = float(np.linalg.norm(g_synthesis(synthesis, g) - v))
        if residual > tol * (synthesis._frobenius * norm_sq**0.5 + np.linalg.norm(v)):
            raise ConstraintViolated(
                f"coefficients do not synthesize the vector: residual {residual:.3e}"
            )
    y = _factor(report, factor).solve(v)
    lam_y, gam_y = stacked_analysis_matrix(sys.lam) @ y, stacked_analysis_matrix(sys.gam) @ y
    dual_term = inner(lam_y, gam_y)  # it and y depend on f alone
    terms = []
    for c, norm_sq in zip(map(CoefficientSequence.to_flat, gs), lhs):
        first = inner(c, c - gam_y) if side == "gamma" else inner(c - lam_y, c)
        terms.append((norm_sq, first + dual_term))
    return terms


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
    return BiGFrameSystem(_functionals(f_list), _functionals(g_list))

