"""Reference checks that the tests compare the library against.

Each oracle reaches the package through its public API only, so it checks
the library's own route instead of reusing it: the pairing sum is
evaluated block by block, and the dual probes solve with the pair
operator's adjoint directly, not through the library's Cholesky factor.
"""

import numpy as np

from bgframes import (
    DEFAULT_TOL,
    BiGFrameSystem,
    NotBiGFrame,
    ShapeMismatch,
    as_vector,
    bi_g_frame_operator,
    canonical_pair,
    classify_bi_g_frame,
    inner,
    is_g_riesz_basis,
    swap,
)


def pairing_sum(sys: BiGFrameSystem, f) -> complex:
    """``sum_j <Lambda_j f, Gamma_j f>``, linear in the Lambda slot.

    Equals ``<S f, f>`` for the pair operator S; evaluated block by block
    so the two routes can be cross-checked.
    """
    v = as_vector(f)
    if v.shape[0] != sys.dim:
        raise ShapeMismatch(f"vector length {v.shape[0]} != dimension {sys.dim}")
    total = 0.0 + 0.0j
    for lb, gb in zip(sys.lam.blocks, sys.gam.blocks):
        total += np.vdot(gb @ v, lb @ v)
    return complex(total)


def adjoint_identity_check(sys: BiGFrameSystem, tol: float = 1e-12) -> bool:
    """``S(Lambda, Gamma)* == S(Gamma, Lambda)`` entrywise within ``tol``.

    Holds for every shape-matched pair, frame or not.
    """
    lhs = bi_g_frame_operator(sys).conj().T
    rhs = bi_g_frame_operator(swap(sys))
    return bool(np.max(np.abs(lhs - rhs)) <= tol)


def dual_pair_bessel_check(
    sys: BiGFrameSystem, trials: int, tol: float = DEFAULT_TOL, seed: int = 0
) -> tuple:
    """Probe the dual pair's Bessel bound ``1/C``.

    Forms the canonical dual pair and its own pairing operator (which is
    ``S^-1`` analytically), and returns its largest eigenvalue together
    with a verdict from ``trials`` random probes checking both
    ``sum_j <Lt_j f, Gt_j f> = <f, (S*)^-1 f>`` and the ``(1/C) ||f||^2``
    cap, where C is the pair's lower bound. Raises ``NotBiGFrame`` on
    pairs that are not bi-g-frames.
    """
    dual = canonical_pair(sys, tol)
    lower = classify_bi_g_frame(sys, tol).bounds.lower
    dual_sys = BiGFrameSystem(dual.lam, dual.gam)
    dual_op = bi_g_frame_operator(dual_sys)
    bound = float(np.linalg.eigvalsh(0.5 * (dual_op + dual_op.conj().T))[-1])
    adjoint = bi_g_frame_operator(sys).conj().T

    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        f = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        lhs = pairing_sum(dual_sys, f)
        rhs = inner(f, np.linalg.solve(adjoint, f))
        norm_sq = float(np.vdot(f, f).real)
        ok = ok and abs(lhs - rhs) <= tol * (1.0 + abs(rhs))
        ok = ok and lhs.real <= (1.0 / lower) * norm_sq + tol * norm_sq
    return bound, bool(ok)


def riesz_transfer_check(sys: BiGFrameSystem, tol: float = DEFAULT_TOL) -> bool:
    """For a bi-g-frame, whether ``is_g_riesz_basis`` answers the same for
    both families; always true for genuine bi-g-frames. Raises
    ``NotBiGFrame`` on pairs that are not bi-g-frames.
    """
    report = classify_bi_g_frame(sys, tol)
    if not report.is_frame:
        raise NotBiGFrame("pair is not a bi-g-frame", report=report)
    return is_g_riesz_basis(sys.lam, tol) == is_g_riesz_basis(sys.gam, tol)
