"""Operator-valued frames: families of blocks Lambda_j mapping C^n into
C^{m_j}, their synthesis/analysis maps, operator, and induced vectors.

This module is the only one that knows how blocks are laid out. A system
stores its blocks as one read-only (sum_j m_j) x n analysis matrix, block
j ascending, and ``blocks`` holds row views of it; a coefficient sequence
stores one read-only flat vector in the same order, and ``parts`` holds
views of it. Every map is one matrix product of these arrays, reproducible
for a fixed BLAS build and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ShapeMismatch
from .frames import ClassifyReport, VectorFrame, _invertible_synthesis, _spectral_report
from .kernel import DEFAULT_TOL, as_matrix, as_vector


def _views(stacked: np.ndarray, sizes: tuple) -> tuple:
    """Freeze ``stacked`` and cut it along its first axis into pieces of ``sizes``."""
    stacked.setflags(write=False)
    offsets = list(accumulate(sizes, initial=0))
    return tuple(stacked[x:y] for x, y in zip(offsets, offsets[1:]))


@dataclass(frozen=True, eq=False)
class GFrameSystem:
    """An ordered, nonempty family of operator blocks over one ambient space."""

    dim: int
    blocks: tuple
    block_dims: tuple = field(init=False, repr=False)
    _analysis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch(f"dimension must be positive, got {self.dim}")
        blocks = tuple(as_matrix(b) for b in self.blocks)
        if not blocks:
            raise ShapeMismatch("a system needs at least one block")
        for j, b in enumerate(blocks):
            if b.shape[1] != self.dim:
                raise ShapeMismatch(
                    f"block {j} has {b.shape[1]} columns, expected {self.dim}"
                )
        self._store(np.vstack(blocks), tuple(b.shape[0] for b in blocks))

    def _store(self, analysis: np.ndarray, block_dims: tuple) -> None:
        object.__setattr__(self, "_analysis", analysis)
        object.__setattr__(self, "block_dims", block_dims)
        object.__setattr__(self, "blocks", _views(analysis, block_dims))

    @classmethod
    def _of_stacked(cls, dim: int, analysis: np.ndarray, block_dims) -> "GFrameSystem":
        """Take over a finite ``(sum m_j) x dim`` complex matrix that no one
        else writes, skipping ``__post_init__``'s validation and copy."""
        sys = object.__new__(cls)
        object.__setattr__(sys, "dim", dim)
        sys._store(analysis, tuple(block_dims))
        return sys

    def __len__(self):
        return len(self.block_dims)

    @property
    def total_block_dim(self) -> int:
        return self._analysis.shape[0]


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """A block vector, one part of length m_j per block of a system."""

    parts: tuple
    block_dims: tuple = field(init=False, repr=False)
    _flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        parts = tuple(as_vector(p) for p in self.parts)
        if not parts:
            raise ShapeMismatch("a coefficient sequence needs at least one part")
        self._store(np.concatenate(parts), tuple(p.shape[0] for p in parts))

    def _store(self, flat: np.ndarray, block_dims: tuple) -> None:
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "block_dims", block_dims)
        object.__setattr__(self, "parts", _views(flat, block_dims))

    @classmethod
    def _of_flat(cls, flat: np.ndarray, block_dims) -> "CoefficientSequence":
        """Take over a finite complex vector of length ``sum(block_dims)``
        that no one else writes, skipping ``__post_init__``."""
        seq = object.__new__(cls)
        seq._store(flat, tuple(block_dims))
        return seq

    def norm_sq(self) -> float:
        """``sum_j ||c_j||^2``."""
        return float(np.vdot(self._flat, self._flat).real)

    def to_flat(self) -> np.ndarray:
        """All parts in order, as one read-only vector."""
        return self._flat

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
        return cls._of_flat(flat, block_dims)


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
    return stacked_analysis_matrix(sys).conj().T @ c.to_flat()


def g_analysis(sys: GFrameSystem, f) -> CoefficientSequence:
    """``{Lambda_j f}_j``, the adjoint of synthesis."""
    v = _check_vector(sys, f)
    return CoefficientSequence._of_flat(stacked_analysis_matrix(sys) @ v, sys.block_dims)


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
    return VectorFrame(sys.dim, tuple(np.conj(stacked_analysis_matrix(sys))))


def stacked_analysis_matrix(sys: GFrameSystem) -> np.ndarray:
    """All blocks stacked vertically: the read-only (sum_j m_j) x n analysis matrix."""
    return sys._analysis


def is_g_riesz_basis(sys: GFrameSystem, tol: float = DEFAULT_TOL) -> bool:
    """True when the induced vectors form a Riesz basis.

    Finite-dimensionally that means ``sum_j m_j = n`` with an invertible
    stacked analysis matrix.
    """
    a = stacked_analysis_matrix(sys)
    return a.shape[0] == sys.dim and _invertible_synthesis(a.conj().T, tol)
