"""Operator-valued frames: families of blocks Lambda_j mapping C^n into
C^{m_j}, their synthesis/analysis maps, operator, and induced vectors;
and vector families, which are g-frames of rank-one blocks.

This module is the only one that knows how families are laid out. A system
stores its blocks as one read-only (sum_j m_j) x n analysis matrix, block j
ascending, and ``blocks`` holds row views of it; a coefficient sequence stores
one read-only flat vector in the same order, and ``parts`` holds views of it,
cut on first read; a vector family stores one read-only |J| x n matrix whose
row j is f_j, and ``vectors`` holds row views of it. Every map is one matrix
product of these arrays, reproducible for a fixed BLAS build and thread count.
Nothing is classified here: ``bigframes`` reads a family as ``(Lambda, Lambda)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ShapeMismatch
from .kernel import as_matrix, as_vector


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

    @cached_property
    def _frobenius(self) -> float:
        return float(np.linalg.norm(self._analysis))


@dataclass(frozen=True, eq=False)
class VectorFrame:
    """An ordered, nonempty family of vectors in C^dim."""

    dim: int
    vectors: tuple
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch(f"dimension must be positive, got {self.dim}")
        vecs = tuple(as_vector(v) for v in self.vectors)
        if not vecs:
            raise ShapeMismatch("a frame needs at least one vector")
        for k, v in enumerate(vecs):
            if v.shape[0] != self.dim:
                raise ShapeMismatch(
                    f"vector {k} has length {v.shape[0]}, expected {self.dim}"
                )
        rows = np.vstack(vecs)
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "vectors", tuple(rows))

    def __len__(self):
        return self._rows.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class CoefficientSequence:
    """A block vector, one part of length m_j per block of a system. It stores
    one read-only flat vector; ``parts`` are views of it, cut on first read."""

    block_dims: tuple
    _flat: np.ndarray

    def __init__(self, parts):
        parts = tuple(as_vector(p) for p in parts)
        if not parts:
            raise ShapeMismatch("a coefficient sequence needs at least one part")
        self._of_rows(np.concatenate(parts)[np.newaxis], [p.shape[0] for p in parts], [self])

    @cached_property
    def parts(self) -> tuple:
        """One read-only view of the flat vector per block."""
        return _views(self._flat, self.block_dims)

    @classmethod
    def _of_rows(cls, rows: np.ndarray, block_dims, seqs=None) -> list:
        """Wrap the rows of a finite complex ``k x sum(block_dims)`` matrix no one else
        writes in ``seqs`` (default: new, without ``__init__``), one row each."""
        block_dims = tuple(block_dims)
        rows.setflags(write=False)
        seqs = seqs or [object.__new__(cls) for _ in range(rows.shape[0])]
        for seq, flat in zip(seqs, rows):
            object.__setattr__(seq, "_flat", flat)
            object.__setattr__(seq, "block_dims", block_dims)
        return seqs

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
        return cls._of_rows(flat[np.newaxis], block_dims)[0]


def _match_block_dims(ours: tuple, theirs: tuple, what: str) -> None:
    """Raise ``ShapeMismatch`` unless the shapes agree, naming the block counts or
    the first block whose row counts differ: one line, however many blocks."""
    if len(ours) != len(theirs):
        raise ShapeMismatch(f"{what} differ: {len(ours)} vs {len(theirs)} blocks")
    for j, (m, k) in enumerate(zip(ours, theirs)):
        if m != k:
            raise ShapeMismatch(f"{what} differ: block {j} has {m} vs {k} rows")


def _check_vector(sys: GFrameSystem, f) -> np.ndarray:
    v = as_vector(f)
    if v.shape[0] != sys.dim:
        raise ShapeMismatch(f"vector length {v.shape[0]} != dimension {sys.dim}")
    return v


def g_synthesis(sys: GFrameSystem, c: CoefficientSequence) -> np.ndarray:
    """``sum_j Lambda_j* c_j`` in C^n, as ``conj(conj(c) Lambda)``: no conjugated family."""
    _match_block_dims(c.block_dims, sys.block_dims, "coefficient and system shapes")
    return np.conj(np.conj(c.to_flat()) @ stacked_analysis_matrix(sys))


def g_analysis(sys: GFrameSystem, f) -> CoefficientSequence:
    """``{Lambda_j f}_j``, the adjoint of synthesis."""
    v = _check_vector(sys, f)
    flat = stacked_analysis_matrix(sys) @ v
    return CoefficientSequence._of_rows(flat[np.newaxis], sys.block_dims)[0]


def g_frame_operator(sys: GFrameSystem) -> np.ndarray:
    """``S = sum_j Lambda_j* Lambda_j``; Hermitian PSD by construction."""
    a = stacked_analysis_matrix(sys)
    return a.conj().T @ a


def induced_vectors(sys: GFrameSystem) -> VectorFrame:
    """Expand each block against the standard basis of its target space.

    The vector for block j and row k is ``Lambda_j* e_k``, i.e. the
    conjugated k-th row of the block. Flattening order is j ascending,
    then k ascending, which fixes the correspondence used everywhere else
    (stacked matrices, coefficient flattening, file output).
    """
    return VectorFrame(sys.dim, tuple(np.conj(stacked_analysis_matrix(sys))))


def _functionals(frame: VectorFrame) -> GFrameSystem:
    """The g-frame of the functionals ``Lambda_j = f_j*``: one 1 x n block per
    vector, the conjugated row. :func:`induced_vectors` turns it back into ``frame``."""
    return GFrameSystem._of_stacked(frame.dim, np.conj(frame._rows), (1,) * len(frame))


def stacked_analysis_matrix(sys: GFrameSystem) -> np.ndarray:
    """All blocks stacked vertically: the read-only (sum_j m_j) x n analysis matrix."""
    return sys._analysis
