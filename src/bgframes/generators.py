"""Seeded constructors for systems with known properties.

Randomness comes from the Philox counter-based bit generator keyed with
the 64-bit seed, and complex Gaussians are produced by the polar
Box-Muller transform on its uniform stream. Both are fixed, documented
algorithms with platform-independent streams, so the drawn entries are
bit-for-bit reproducible everywhere; matrix products derived from them are
reproducible for a fixed BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bigframes import BiGFrameSystem, bi_g_frame_operator
from .errors import NotHermitian, ShapeMismatch
from .gframes import GFrameSystem, classify_g_frame, g_frame_operator, stacked_analysis_matrix
from .kernel import DEFAULT_TOL, as_matrix, hermitian_deviation, solve_pd
from .kernel import _PD_RATIO, _require_definite, _spectral_report

KIND_RANDOM = "random_g_frame"
KIND_PRESCRIBED = "prescribed_operator"
KIND_RANK_DEFICIENT = "rank_deficient"
KIND_NON_HERMITIAN = "non_hermitian_pair"
KINDS = (KIND_RANDOM, KIND_PRESCRIBED, KIND_RANK_DEFICIENT, KIND_NON_HERMITIAN)

_MAX_REDRAWS = 16
# Floor on drawn singular values over the largest: condition <= 20 keeps targets hit to 1e-10.
_SPECTRAL_FLOOR = 0.05


@dataclass(frozen=True)
class GenSpec:
    """Shape, seed, and flavor of a generated instance."""

    dim: int
    block_dims: tuple
    seed: int
    kind: str = KIND_RANDOM

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch(f"dimension must be positive, got {self.dim}")
        dims = tuple(int(m) for m in self.block_dims)
        if not dims or any(m < 1 for m in dims):
            raise ShapeMismatch(f"block dims must be positive, got {dims}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "seed", int(self.seed))


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian entries (unit expected square modulus)."""
    count = rows * cols
    u1 = rng.random(count)
    u2 = rng.random(count)
    radius = np.sqrt(-np.log1p(-u1))  # 1 - u1 lies in (0, 1], so the log is safe
    angle = 2.0 * np.pi * u2
    z = radius * np.cos(angle) + 1j * radius * np.sin(angle)
    return z.reshape(rows, cols)


def _draw_blocks(rng, block_dims, dim) -> tuple:
    return tuple(_complex_gaussian(rng, m, dim) for m in block_dims)


def gen_g_frame(spec: GenSpec) -> GFrameSystem:
    """Draw a block family with independent standard complex Gaussian entries.

    When the shape admits full rank (``sum m_j >= dim``) a draw that is not a
    frame at ``DEFAULT_TOL`` (spectrum ratio at most 1e-9) is redrawn, at most
    16 times; undersized shapes are returned as drawn and classify as non-frames.
    """
    if spec.kind != KIND_RANDOM:
        raise ValueError(f"gen_g_frame expects kind {KIND_RANDOM!r}, got {spec.kind!r}")
    rng = _stream(spec.seed)
    rank_possible = sum(spec.block_dims) >= spec.dim
    for _ in range(_MAX_REDRAWS):
        sys = GFrameSystem(spec.dim, _draw_blocks(rng, spec.block_dims, spec.dim))
        if not rank_possible or classify_g_frame(sys, DEFAULT_TOL).is_frame:
            return sys
    raise RuntimeError(f"no full-rank draw in {_MAX_REDRAWS} attempts (seed {spec.seed})")


def _floored_family(rng, block_dims, dim: int) -> GFrameSystem:
    """Gaussian analysis matrix with small singular values lifted to a fixed
    floor, split into blocks of ``block_dims`` rows.

    Keeps the prescribed-operator construction well conditioned: without
    the floor, square draws occasionally come out ill-conditioned enough
    that the target operator is no longer reproduced to 1e-10.
    """
    a = _complex_gaussian(rng, sum(block_dims), dim)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    floor = _SPECTRAL_FLOOR * s[0]
    if s[-1] < floor:
        a = (u * np.maximum(s, floor)) @ vh
    return GFrameSystem._of_stacked(dim, a, block_dims)


def _pair_with_target(lam: GFrameSystem, target: np.ndarray) -> BiGFrameSystem:
    """Companion family making the pair operator equal ``target`` exactly.

    Setting ``Gamma_j = Lambda_j M`` gives pair operator ``M* S_lam``, so
    ``M = S_lam^-1 target*`` lands on ``target``.
    """
    s_lam = g_frame_operator(lam)
    m = solve_pd(s_lam, target.conj().T)
    # One product per block: BLAS rounds a product of the stacked matrix
    # differently, which would change the entries that `bgf gen` writes.
    gam = GFrameSystem(lam.dim, tuple(b @ m for b in lam.blocks))
    return BiGFrameSystem(lam, gam)


def gen_bi_g_frame(spec: GenSpec, target) -> BiGFrameSystem:
    """Pair whose operator equals the Hermitian PD ``target`` to roundoff.

    The first family is a complex Gaussian draw whose singular values are
    floored at 5% of the largest; the second is the matching companion.
    Classification bounds therefore equal the spectrum edges of ``target``.
    """
    if spec.kind != KIND_PRESCRIBED:
        raise ValueError(
            f"gen_bi_g_frame expects kind {KIND_PRESCRIBED!r}, got {spec.kind!r}"
        )
    p = as_matrix(target)
    n = spec.dim
    if p.shape != (n, n):
        raise ShapeMismatch(f"target shape {p.shape} does not match dimension {n}")
    if sum(spec.block_dims) < n:
        raise ShapeMismatch(
            f"sum of block dims {sum(spec.block_dims)} < dimension {n}: "
            "no positive definite pair operator is possible"
        )
    report = _spectral_report(p, _PD_RATIO, hermitian_gates_bessel=False)
    dev = report.hermitian_deviation
    if dev > DEFAULT_TOL:
        raise NotHermitian(f"target deviation {dev:.3e} exceeds {DEFAULT_TOL:.3e}")
    _require_definite(report)
    lam = _floored_family(_stream(spec.seed), spec.block_dims, n)
    return _pair_with_target(lam, 0.5 * (p + p.conj().T))


def gen_negative(spec: GenSpec) -> BiGFrameSystem:
    """Falsification instances.

    ``rank_deficient`` embeds a well-posed pair in the leading
    ``min(dim - 1, sum m_j)`` coordinates, leaving exactly zero trailing
    rows and columns in the pair operator, so it is Hermitian PSD but
    singular. ``non_hermitian_pair`` aims the construction at
    ``I + N`` with a skew part of Frobenius norm ``sqrt(dim)``, which pins
    the relative Hermitian deviation at sqrt(2); undersized shapes fall
    back to independent draws redrawn until the deviation clears 0.1.
    """
    rng = _stream(spec.seed)
    n = spec.dim
    total = sum(spec.block_dims)

    if spec.kind == KIND_RANK_DEFICIENT:
        r = min(n - 1, total)
        if r == 0:
            zero = tuple(np.zeros((m, n), dtype=np.complex128) for m in spec.block_dims)
            return BiGFrameSystem(GFrameSystem(n, zero), GFrameSystem(n, zero))
        lam_small = _floored_family(rng, spec.block_dims, r)
        pair_small = _pair_with_target(lam_small, np.eye(r, dtype=np.complex128))
        pad = ((0, 0), (0, n - r))
        lam, gam = (
            GFrameSystem._of_stacked(n, np.pad(stacked_analysis_matrix(f), pad), spec.block_dims)
            for f in (pair_small.lam, pair_small.gam)
        )
        return BiGFrameSystem(lam, gam)

    if spec.kind == KIND_NON_HERMITIAN:
        if total >= n:
            for _ in range(_MAX_REDRAWS):
                k = _complex_gaussian(rng, n, n)
                skew = 0.5 * (k - k.conj().T)
                size = np.linalg.norm(skew)
                if size > 0:
                    break
            else:
                raise RuntimeError("could not draw a nonzero skew part")
            target = np.eye(n, dtype=np.complex128) + skew * (math.sqrt(n) / size)
            lam = _floored_family(rng, spec.block_dims, n)
            return _pair_with_target(lam, target)
        for _ in range(_MAX_REDRAWS):
            lam = GFrameSystem(n, _draw_blocks(rng, spec.block_dims, n))
            gam = GFrameSystem(n, _draw_blocks(rng, spec.block_dims, n))
            sys = BiGFrameSystem(lam, gam)
            if hermitian_deviation(bi_g_frame_operator(sys)) >= 0.1:
                return sys
        raise RuntimeError("could not draw a sufficiently non-Hermitian pair")

    raise ValueError(
        f"gen_negative expects kind {KIND_RANK_DEFICIENT!r} or "
        f"{KIND_NON_HERMITIAN!r}, got {spec.kind!r}"
    )


def random_hermitian_pd(
    dim: int, seed: int, eig_low: float = 0.5, eig_high: float = 2.0
) -> np.ndarray:
    """Hermitian PD matrix with eigenvalues drawn uniformly in a range.

    A Haar-like random unitary (QR of a Gaussian draw) conjugates a random
    diagonal, so the spectrum, and hence conditioning, is controlled
    exactly. Handy as a target for :func:`gen_bi_g_frame`.
    """
    if dim < 1:
        raise ShapeMismatch(f"dimension must be positive, got {dim}")
    if not (0.0 < eig_low <= eig_high):
        raise ValueError(f"invalid eigenvalue range ({eig_low}, {eig_high})")
    rng = _stream(seed)
    q, _ = np.linalg.qr(_complex_gaussian(rng, dim, dim))
    eigs = eig_low + (eig_high - eig_low) * rng.random(dim)
    p = (q * eigs) @ q.conj().T
    return 0.5 * (p + p.conj().T)
