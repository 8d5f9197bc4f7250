"""Invariance properties of the verdicts over generated pairs.

A unitary change of basis, a permutation of the blocks and a swap of the
two families leave the pair operator's spectrum unchanged in exact
arithmetic, so every verdict must survive them and every bound may move
only by rounding. A gauge map ``(A_j Lambda_j, A_j^-* Gamma_j)`` leaves the
operator itself unchanged, so everything derived from it must survive too.
Saving a pair and loading it back must give the same analysis matrices bit
for bit. Two consequences of the paper's definitions hold on every
bi-g-frame, up to rounding: each family is a g-frame with bounds tied to the
pair's, and the dual of the dual is the pair.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgframes import (
    BiGFrameSystem,
    GenSpec,
    GFrameSystem,
    bi_g_frame_operator,
    canonical_pair,
    classify_bi_g_frame,
    classify_g_frame,
    gen_bi_g_frame,
    gen_negative,
    random_hermitian_pd,
    reconstruct,
    solve_synthesis_coefficients,
    stacked_analysis_matrix,
    swap,
)
from bgframes.fileio import FrameFile, load_frame_file, save_frame_file

PAIR_KINDS = ("prescribed_operator", "rank_deficient", "non_hermitian_pair")
# Bounds may move by this much, relative to the upper bound.
BOUND_RTOL = 1e-12
# Gauge maps of condition number up to 1e6, read at tol 1e-9; bounds, reconstructions
# and duals read from the gauged pair may move by GAUGE_RTOL relative.
GAUGE_COND = 1e6
GAUGE_TOL = 1e-9
GAUGE_RTOL = 1e-8
# The rounding the gauge map itself adds to S, in units of u kappa ||Gamma||_F ||Lambda||_F,
# u = 2^-53 and kappa = cond(A_j). A computed product of inner dimension k is off by at
# most gamma_k ~ k u times the product of its factors' norms (Higham 2002, §3.5), and each
# factor below grows by at most kappa, so to first order: the gauged operator
# Gamma'^H Lambda' (k = sum m_j <= 15), the gauged blocks A_j Lambda_j and A_j^-* Gamma_j,
# and the gauges A_j and A_j^-* from their factors (k = m_j <= 3 each): 15 + 4 * 3 = 27.
# A relative deviation d then moves by at most (2 + d) ||dS||_F / ||S||_F. Over 6,000
# drawn gauges the largest drift was 2.5 of these units.
GAUGE_ROUNDING = 27
# The two consequences hold exactly in real arithmetic, so their slack is rounding, in units
# of u K (D/C): K = sum m_j is the inner dimension of every operator product, and D/C the
# pair's condition number. A complex sum of K products is 2K real ones, off by at most
# gamma_2K ~ 2 K u relative when its terms share a sign, as at the equality case of
# Cauchy-Schwarz (Higham 2002, §3.1); a spectrum edge moves with the largest eigenvalue, so
# the smallest moves by D/C times that. (a) compares two products of two edges each: four
# edges of 2 units, 8 units. (b) runs two duals, each a refined solve (Higham 2002, §12.2)
# after one operator product; the second solve multiplies the first dual's error by
# ||H|| ||H^-1|| = D/C once more: 8 units times D/C. Over 4,000 draws of the strategies
# below (D/C <= 4, K <= 15) the largest gaps were 3.0 units for (a) and 2.8 units times D/C
# for (b).
CONSEQUENCE_ROUNDING = 8


@st.composite
def generated_pairs(draw, kinds=PAIR_KINDS):
    kind = draw(st.sampled_from(kinds))
    block_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    max_dim = min(6, sum(block_dims)) if kind == "prescribed_operator" else 6
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32))
    spec = GenSpec(dim, block_dims, seed, kind)
    if kind == "prescribed_operator":
        return gen_bi_g_frame(spec, random_hermitian_pd(dim, seed))
    return gen_negative(spec)


@st.composite
def parseval_pairs(draw):
    """``(Q, Q)`` for the blocks of an isometry Q: a Parseval pair, S = I."""
    block_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    dim = draw(st.integers(1, sum(block_dims)))
    q = _unitary(np.random.default_rng(draw(st.integers(0, 2**32))), sum(block_dims))[:, :dim]
    family = _family(dim, np.split(q, np.cumsum(block_dims)[:-1]))
    return BiGFrameSystem(family, family)


def _family(dim, blocks):
    return GFrameSystem(dim, tuple(blocks))


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


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
    n = pair.dim
    u_star = _unitary(np.random.default_rng(unitary_seed), n).conj().T
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


def _gauges(rng, block_dims, log_cond):
    """``(A_j, A_j^-*)`` per block, each ``A_j = U diag(s) V*`` with
    ``cond(A_j) = 10**log_cond`` (a rescaling by ``10**(-log_cond/2)`` when
    ``m_j = 1``) and its inverse adjoint ``U diag(1/s) V*`` from the same factors."""
    gauges, half = [], log_cond / 2
    for m in block_dims:
        s = 10.0 ** np.concatenate(([-half, half], rng.uniform(-half, half, m)))[:m]
        u, v_star = _unitary(rng, m), _unitary(rng, m).conj().T
        gauges.append(((u * s) @ v_star, (u / s) @ v_star))
    return gauges


def _rel_error(actual, expected, scale):
    return float(np.linalg.norm(actual - expected)) / scale


@settings(max_examples=100, deadline=None)
@given(
    pair=st.one_of(generated_pairs(), parseval_pairs()),
    gauge_seed=st.integers(0, 2**32),
    log_cond=st.floats(0.0, np.log10(GAUGE_COND)),
)
# Gauged, this Hermitian pair's float deviation is 1.108e-9, above GAUGE_TOL; its exact
# value on those floats is 1.046e-9: the gauge's own rounding moved the operator past tol.
@example(
    pair=gen_bi_g_frame(GenSpec(2, (2,), 184, "prescribed_operator"), random_hermitian_pd(2, 184)),
    gauge_seed=986205,
    log_cond=6.0,
)
def test_gauge_map_keeps_everything_read_from_the_operator(pair, gauge_seed, log_cond):
    # (A_j Lambda_j, A_j^-* Gamma_j) keeps S: Gamma_j* A_j^-1 A_j Lambda_j.
    rng = np.random.default_rng(gauge_seed)
    n, gauges = pair.dim, _gauges(rng, pair.block_dims, log_cond)
    gauged = BiGFrameSystem(
        _family(n, (a @ b for (a, _), b in zip(gauges, pair.lam.blocks))),
        _family(n, (a_inv_star @ b for (_, a_inv_star), b in zip(gauges, pair.gam.blocks))),
    )
    before, after = classify_bi_g_frame(pair, GAUGE_TOL), classify_bi_g_frame(gauged, GAUGE_TOL)
    dev = before.hermitian_deviation
    norms = np.linalg.norm(stacked_analysis_matrix(pair.lam)) * np.linalg.norm(
        stacked_analysis_matrix(pair.gam)
    )
    s_norm = np.linalg.norm(bi_g_frame_operator(pair))
    drift = GAUGE_ROUNDING * 2.0**-53 * 10**log_cond * (2 + dev) * norms / s_norm if norms else 0.0
    assert abs(after.hermitian_deviation - dev) <= drift
    # The verdicts must agree where that rounding cannot carry the deviation across tol.
    if abs(dev - GAUGE_TOL) > drift:
        assert _verdicts(after) == _verdicts(before)
    assert after.is_riesz is before.is_riesz is None
    if not (before.is_frame and after.is_frame):
        return
    upper = before.bounds.upper
    assert abs(after.bounds.lower - before.bounds.lower) <= GAUGE_RTOL * upper
    assert abs(after.bounds.upper - upper) <= GAUGE_RTOL * upper
    assert abs(after.inverse_norm - before.inverse_norm) <= GAUGE_RTOL * before.inverse_norm

    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scale = float(np.linalg.norm(f))
    for variant in (1, 2):
        rebuilt = reconstruct(gauged, f, variant, GAUGE_TOL)
        assert _rel_error(rebuilt, reconstruct(pair, f, variant, GAUGE_TOL), scale) <= GAUGE_RTOL
    for side in ("gamma", "lambda"):
        kernel_dims = {
            len(solve_synthesis_coefficients(p, f, side, GAUGE_TOL)[1]) for p in (pair, gauged)
        }
        assert kernel_dims == {sum(pair.block_dims) - n}

    # The dual blocks Lambda_j H^-1 and Gamma_j H^-1 pick up A_j and A_j^-*.
    dual, gauged_dual = canonical_pair(pair, GAUGE_TOL), canonical_pair(gauged, GAUGE_TOL)
    for (a, a_inv_star), lt, lt_g, gt, gt_g in zip(
        gauges, dual.lam.blocks, gauged_dual.lam.blocks, dual.gam.blocks, gauged_dual.gam.blocks
    ):
        assert _rel_error(lt_g, a @ lt, np.linalg.norm(a, 2) * np.linalg.norm(lt)) <= GAUGE_RTOL
        scale = np.linalg.norm(a_inv_star, 2) * np.linalg.norm(gt)
        assert _rel_error(gt_g, a_inv_star @ gt, scale) <= GAUGE_RTOL


@settings(max_examples=50, deadline=None)
@given(pair=generated_pairs())
@example(pair=gen_negative(GenSpec(4, (1, 2), 3, "rank_deficient")))
def test_save_then_load_is_bit_identical(tmp_path_factory, pair):
    # The conjugated families are what `bgf lift` writes; conjugating zero
    # padding gives negative zeros.
    families = {"L": pair.lam, "G": pair.gam}
    for name, family in list(families.items()):
        families[f"{name}*"] = _family(pair.dim, map(np.conj, family.blocks))
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    save_frame_file(path, FrameFile(dim=pair.dim, systems=families))
    loaded = load_frame_file(path)
    for name, family in families.items():
        back = loaded.systems[name]
        assert back.block_dims == family.block_dims
        assert (
            stacked_analysis_matrix(back).tobytes() == stacked_analysis_matrix(family).tobytes()
        )


def _rounding(pair, report):
    """The slack of both consequences: CONSEQUENCE_ROUNDING units of u K (D/C)."""
    bounds = report.bounds
    return CONSEQUENCE_ROUNDING * 2.0**-53 * sum(pair.block_dims) * bounds.upper / bounds.lower


@settings(max_examples=100, deadline=None)
@given(pair=st.one_of(generated_pairs(("prescribed_operator",)), parseval_pairs()))
def test_each_family_of_a_bi_g_frame_is_a_g_frame(pair):
    # C ||f||^2 <= <S f, f> <= (<S_Lambda f, f> <S_Gamma f, f>)^(1/2) by Cauchy-Schwarz,
    # so A_Lambda B_Gamma >= C^2, A_Gamma B_Lambda >= C^2 and D <= (B_Lambda B_Gamma)^(1/2).
    report = classify_bi_g_frame(pair)
    assert report.is_frame
    lam, gam = classify_g_frame(pair.lam), classify_g_frame(pair.gam)
    assert lam.is_frame and gam.is_frame
    c, d, slack = report.bounds.lower, report.bounds.upper, _rounding(pair, report)
    assert lam.bounds.lower * gam.bounds.upper >= c**2 * (1 - slack)
    assert gam.bounds.lower * lam.bounds.upper >= c**2 * (1 - slack)
    assert d <= (lam.bounds.upper * gam.bounds.upper) ** 0.5 * (1 + slack)


@settings(max_examples=100, deadline=None)
@given(pair=st.one_of(generated_pairs(("prescribed_operator",)), parseval_pairs()))
def test_the_dual_of_the_dual_is_the_pair(pair):
    # The dual's operator is H^-1 S H^-1, whose Hermitian part is H^-1 exactly.
    report = classify_bi_g_frame(pair)
    slack = _rounding(pair, report) * report.bounds.upper / report.bounds.lower
    back = canonical_pair(canonical_pair(pair))
    for family, returned in ((pair.lam, back.lam), (pair.gam, back.gam)):
        a = stacked_analysis_matrix(family)
        assert _rel_error(stacked_analysis_matrix(returned), a, np.linalg.norm(a)) <= slack
