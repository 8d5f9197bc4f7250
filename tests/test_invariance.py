"""Invariance properties of the verdicts over generated pairs.

A unitary change of basis, a permutation of the blocks and a swap of the
two families leave the pair operator's spectrum unchanged in exact
arithmetic, so every verdict must survive them and every bound may move
only by rounding. Saving a pair and loading it back must give the same
analysis matrices bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bgframes import (
    BiGFrameSystem,
    GenSpec,
    GFrameSystem,
    classify_bi_g_frame,
    classify_g_frame,
    gen_bi_g_frame,
    gen_negative,
    random_hermitian_pd,
    stacked_analysis_matrix,
    swap,
)
from bgframes.fileio import FrameFile, load_frame_file, save_frame_file

PAIR_KINDS = ("prescribed_operator", "rank_deficient", "non_hermitian_pair")
# Bounds may move by this much, relative to the upper bound.
BOUND_RTOL = 1e-12


@st.composite
def generated_pairs(draw):
    kind = draw(st.sampled_from(PAIR_KINDS))
    block_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    max_dim = min(6, sum(block_dims)) if kind == "prescribed_operator" else 6
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32))
    spec = GenSpec(dim, block_dims, seed, kind)
    if kind == "prescribed_operator":
        return gen_bi_g_frame(spec, random_hermitian_pd(dim, seed))
    return gen_negative(spec)


def _family(dim, blocks):
    return GFrameSystem(dim, tuple(blocks))


def _verdicts(report):
    return (report.is_bessel, report.is_frame, report.is_tight, report.is_parseval)


def _assert_same_classification(before, after):
    assert _verdicts(after) == _verdicts(before)
    assert after.is_riesz == before.is_riesz
    if before.is_frame:
        scale = BOUND_RTOL * before.bounds.upper
        assert abs(after.bounds.lower - before.bounds.lower) <= scale
        assert abs(after.bounds.upper - before.bounds.upper) <= scale


def _assert_same_pair_classification(before, after):
    _assert_same_classification(classify_bi_g_frame(before), classify_bi_g_frame(after))
    _assert_same_classification(classify_g_frame(before.lam), classify_g_frame(after.lam))
    _assert_same_classification(classify_g_frame(before.gam), classify_g_frame(after.gam))


@settings(max_examples=100, deadline=None)
@given(pair=generated_pairs(), unitary_seed=st.integers(0, 2**32))
def test_unitary_change_of_basis_keeps_verdicts(pair, unitary_seed):
    # Lambda_j -> Lambda_j U*, Gamma_j -> Gamma_j U* sends S to U S U*.
    rng = np.random.default_rng(unitary_seed)
    n = pair.dim
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u_star = u.conj().T
    rotated = BiGFrameSystem(
        _family(n, (b @ u_star for b in pair.lam.blocks)),
        _family(n, (b @ u_star for b in pair.gam.blocks)),
    )
    _assert_same_pair_classification(pair, rotated)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), pair=generated_pairs())
def test_block_permutation_keeps_verdicts(data, pair):
    order = data.draw(st.permutations(range(len(pair))))
    permuted = BiGFrameSystem(
        _family(pair.dim, (pair.lam.blocks[j] for j in order)),
        _family(pair.dim, (pair.gam.blocks[j] for j in order)),
    )
    _assert_same_pair_classification(pair, permuted)


@settings(max_examples=100, deadline=None)
@given(pair=generated_pairs())
def test_swap_keeps_verdicts(pair):
    _assert_same_classification(classify_bi_g_frame(pair), classify_bi_g_frame(swap(pair)))


@settings(max_examples=50, deadline=None)
@given(pair=generated_pairs())
def test_save_then_load_is_bit_identical(tmp_path_factory, pair):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    save_frame_file(path, FrameFile(dim=pair.dim, systems={"L": pair.lam, "G": pair.gam}))
    loaded = load_frame_file(path)
    for name, family in (("L", pair.lam), ("G", pair.gam)):
        back = loaded.systems[name]
        assert back.block_dims == family.block_dims
        assert (
            stacked_analysis_matrix(back).tobytes() == stacked_analysis_matrix(family).tobytes()
        )
