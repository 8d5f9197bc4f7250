"""Reference checks that the tests compare the library against.

Each oracle reaches the package through its public API only, so it checks
the library's own route instead of reusing it: the pairing sum is
evaluated block by block, the dual probes solve with the pair operator's
adjoint directly, not through the library's Cholesky factor, the inverse
norm is read from an explicit inverse by NumPy's own 2-norm, not from the
spectrum, the Riesz verdicts come from each family's own report, the
controlled verdicts from ``C @ F F^H`` with plain NumPy, not from the pair
``(F, C F)``, and frame file floats are formatted one at a time, not per array.
"""

import numpy as np

from bgframes import (
    DEFAULT_TOL,
    BiGFrameSystem,
    ControlledSystem,
    NotBiGFrame,
    ShapeMismatch,
    as_vector,
    bi_g_frame_operator,
    canonical_pair,
    classify_bi_g_frame,
    classify_g_frame,
    inner,
    swap,
    synthesis_matrix,
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


def explicit_inverse_norm(sys: BiGFrameSystem) -> float:
    """``||H^-1||``, H the Hermitian part of the pair operator, by the explicit
    route: solve H against I, then take the largest singular value. The library
    reports it as ``1/C`` from the bottom C of H's spectrum instead."""
    op = bi_g_frame_operator(sys)
    h = 0.5 * (op + op.conj().T)
    return float(np.linalg.norm(np.linalg.solve(h, np.eye(sys.dim)), 2))


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
    """For a bi-g-frame, whether ``classify_g_frame(...).is_riesz`` answers the
    same for both families; always true for genuine bi-g-frames. Raises
    ``NotBiGFrame`` on pairs that are not bi-g-frames.
    """
    report = classify_bi_g_frame(sys, tol)
    if not report.is_frame:
        raise NotBiGFrame("pair is not a bi-g-frame", report=report)
    return classify_g_frame(sys.lam, tol).is_riesz == classify_g_frame(sys.gam, tol).is_riesz


def controlled_verdicts(sys: ControlledSystem, tol: float = DEFAULT_TOL) -> tuple:
    """``(is_bessel, is_frame, lower, upper)`` of a controlled system, read from
    its operator ``C S`` formed as ``C @ (F F^H)``: Bessel when its relative
    Frobenius distance from its adjoint is at most ``tol``, then a frame when the
    bottom of its Hermitian part's spectrum exceeds ``tol`` times the top."""
    f = synthesis_matrix(sys.frame)
    op = sys.controller @ (f @ f.conj().T)
    if np.linalg.norm(op - op.conj().T) > tol * np.linalg.norm(op):
        return False, False, None, None
    w = np.linalg.eigvalsh(0.5 * (op + op.conj().T))
    return True, bool(w[0] > tol * max(w[-1], 0.0)), float(w[0]), float(w[-1])


def format_float(x: float) -> str:
    """One float as frame files write it: 17 significant digits, which
    round-trips every double, and a negative zero as ``-0.0``, since
    ``-0`` would load as the integer 0. Non-finite floats raise."""
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text
