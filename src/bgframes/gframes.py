"""Operator-valued frames: families of blocks Lambda_j mapping C^n into
C^{m_j}, their synthesis/analysis maps, operator, and induced vectors.

Each block is stored as an m_j x n matrix. The block frame operator is
one matrix product of the stacked blocks, reproducible for a fixed BLAS
build and thread count; the remaining loops over blocks reduce in
ascending j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ShapeMismatch
from .frames import ClassifyReport, VectorFrame, _spectral_report, is_riesz_basis
from .kernel import DEFAULT_TOL, as_matrix, as_vector


@dataclass(frozen=True, eq=False)
class GFrameSystem:
    """An ordered, nonempty family of operator blocks over one ambient space."""

    dim: int
    blocks: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch(f"dimension must be positive, got {self.dim}")
        blocks = tuple(np.array(as_matrix(b), copy=True) for b in self.blocks)
        if not blocks:
            raise ShapeMismatch("a system needs at least one block")
        for j, b in enumerate(blocks):
            if b.shape[1] != self.dim:
                raise ShapeMismatch(
                    f"block {j} has {b.shape[1]} columns, expected {self.dim}"
                )
            b.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self):
        return len(self.blocks)

    @property
    def block_dims(self) -> tuple:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def total_block_dim(self) -> int:
        return sum(self.block_dims)


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """A block vector, one part of length m_j per block of a system."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(np.array(as_vector(p), copy=True) for p in self.parts)
        if not parts:
            raise ShapeMismatch("a coefficient sequence needs at least one part")
        for p in parts:
            p.setflags(write=False)
        object.__setattr__(self, "parts", parts)

    @property
    def block_dims(self) -> tuple:
        return tuple(p.shape[0] for p in self.parts)

    def norm_sq(self) -> float:
        """``sum_j ||c_j||^2``."""
        return float(sum(np.vdot(p, p).real for p in self.parts))

    def to_flat(self) -> np.ndarray:
        return np.concatenate(self.parts)

    @classmethod
    def from_flat(cls, values, block_dims) -> "CoefficientSequence":
        """Parts of lengths ``block_dims``: read-only views of one validated
        copy of ``values``."""
        flat = np.array(as_vector(values), copy=True)
        if flat.shape[0] != sum(block_dims):
            raise ShapeMismatch(
                f"flat length {flat.shape[0]} != sum of block dims {sum(block_dims)}"
            )
        if any(m < 1 for m in block_dims):
            raise ShapeMismatch(f"block dims must be positive, got {tuple(block_dims)}")
        flat.setflags(write=False)
        return cls._of_views(tuple(_split_last_axis(flat, block_dims)))

    @classmethod
    def _of_views(cls, parts: tuple) -> "CoefficientSequence":
        """Wrap validated read-only parts, skipping ``__post_init__``'s copies."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "parts", parts)
        return seq


def _split_last_axis(a: np.ndarray, sizes) -> list:
    """Consecutive slices of the last axis of ``a`` with lengths ``sizes``, as views."""
    offsets = list(accumulate(sizes, initial=0))
    return [a[..., x:y] for x, y in zip(offsets, offsets[1:])]


def _check_vector(sys: GFrameSystem, f) -> np.ndarray:
    v = as_vector(f)
    if v.shape[0] != sys.dim:
        raise ShapeMismatch(f"vector length {v.shape[0]} != dimension {sys.dim}")
    return v


def g_synthesis(sys: GFrameSystem, c: CoefficientSequence) -> np.ndarray:
    """``sum_j Lambda_j* c_j`` in C^n."""
    if c.block_dims != sys.block_dims:
        raise ShapeMismatch(
            f"coefficient shape {c.block_dims} does not match system {sys.block_dims}"
        )
    out = np.zeros(sys.dim, dtype=np.complex128)
    for b, part in zip(sys.blocks, c.parts):
        out += b.conj().T @ part
    return out


def g_analysis(sys: GFrameSystem, f) -> CoefficientSequence:
    """``{Lambda_j f}_j``, the adjoint of synthesis."""
    v = _check_vector(sys, f)
    return CoefficientSequence(tuple(b @ v for b in sys.blocks))


def g_frame_operator(sys: GFrameSystem) -> np.ndarray:
    """``S = sum_j Lambda_j* Lambda_j``; Hermitian PSD by construction."""
    a = stacked_analysis_matrix(sys)
    return a.conj().T @ a


def classify_g_frame(sys: GFrameSystem, tol: float = DEFAULT_TOL) -> ClassifyReport:
    """Classify from the spectrum edges of the block frame operator."""
    return _spectral_report(g_frame_operator(sys), tol, False, is_g_riesz_basis(sys, tol))


def induced_vectors(sys: GFrameSystem) -> VectorFrame:
    """Expand each block against the standard basis of its target space.

    The vector for block j and row k is ``Lambda_j* e_k``, i.e. the
    conjugated k-th row of the block. Flattening order is j ascending,
    then k ascending, which fixes the correspondence used everywhere else
    (stacked matrices, coefficient flattening, file output).
    """
    vectors = []
    for b in sys.blocks:
        for k in range(b.shape[0]):
            vectors.append(np.conj(b[k, :]))
    return VectorFrame(sys.dim, tuple(vectors))


def stacked_analysis_matrix(sys: GFrameSystem) -> np.ndarray:
    """All blocks stacked vertically: the (sum_j m_j) x n analysis matrix."""
    return np.vstack(sys.blocks)


def is_g_riesz_basis(sys: GFrameSystem, tol: float = DEFAULT_TOL) -> bool:
    """True when the induced vectors form a Riesz basis.

    Finite-dimensionally that means ``sum_j m_j = n`` with an invertible
    stacked analysis matrix.
    """
    if sys.total_block_dim != sys.dim:
        return False
    return is_riesz_basis(induced_vectors(sys), tol)
