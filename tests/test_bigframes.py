import gc
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgframes import (
    DEFAULT_TOL,
    BiGFrameSystem,
    CoefficientSequence,
    ConstraintViolated,
    GenSpec,
    GFrameSystem,
    NotBiGFrame,
    ShapeMismatch,
    VectorFrame,
    bi_g_frame_operator,
    canonical_pair,
    check_duality,
    classify_bi_g_frame,
    classify_biframe,
    classify_g_frame,
    coefficient_identity_terms,
    from_vector_biframe,
    g_analysis,
    g_frame_operator,
    g_synthesis,
    gen_bi_g_frame,
    gen_g_frame,
    gen_negative,
    inner,
    lift_to_biframe,
    random_hermitian_pd,
    reconstruct,
    solve_synthesis_coefficients,
    stacked_analysis_matrix,
    swap,
)
from bgframes.bigframes import _classify, _coefficient_identity_terms, _prepare, _reconstruct
from bgframes.cli import _perturbed
from bgframes.kernel import CholeskyFactor
from conftest import (
    cholesky_breakdown_pair,
    gauged_identity_pair,
    random_complex_vector,
    rescaled_pair,
)
from oracles import (
    adjoint_identity_check,
    dual_pair_bessel_check,
    explicit_inverse_norm,
    pairing_sum,
    riesz_transfer_check,
)

NONHERM = BiGFrameSystem(
    GFrameSystem(2, (np.array([[1.0, 0.0]]),)),
    GFrameSystem(2, (np.array([[0.0, 1.0]]),)),
)


def _random_pair(rng, dim=3, block_dims=(1, 2)):
    def draw():
        return GFrameSystem(
            dim,
            tuple(
                rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
                for m in block_dims
            ),
        )

    return BiGFrameSystem(draw(), draw())


def _pairing_by_loops(sys, f):
    """Oracle: scalar-level evaluation of the mixed pairing sum."""
    total = 0.0 + 0.0j
    for lb, gb in zip(sys.lam.blocks, sys.gam.blocks):
        m = lb.shape[0]
        for k in range(m):
            left = sum(lb[k, i] * f[i] for i in range(sys.dim))
            right = sum(gb[k, i] * f[i] for i in range(sys.dim))
            total += left * np.conj(right)
    return total


# ---------------------------------------------------------------------------
# pairing sum and operator


def test_pairing_equals_norm_for_identical_identity_split(instance_a):
    split = GFrameSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
    pair = BiGFrameSystem(split, split)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_complex_vector(rng, 2)
        assert pairing_sum(pair, f) == pytest.approx(np.vdot(f, f).real)


def test_pairing_values_instance_a(instance_a):
    assert pairing_sum(instance_a, [1.0, 0.0]) == pytest.approx(2.0)
    assert pairing_sum(instance_a, [0.0, 1.0]) == pytest.approx(1.0)


def test_pairing_matches_loop_oracle_and_quadratic_form():
    rng = np.random.default_rng(71)
    sys = _random_pair(rng)
    s = bi_g_frame_operator(sys)
    for _ in range(25):
        f = random_complex_vector(rng, 3)
        value = pairing_sum(sys, f)
        assert value == pytest.approx(_pairing_by_loops(sys, f), rel=1e-11, abs=1e-11)
        quad = inner(s @ f, f)
        assert abs(value - quad) <= 1e-12 * max(1.0, abs(quad))


def test_operator_collapses_to_g_frame_operator_when_equal():
    rng = np.random.default_rng(73)
    sys = _random_pair(rng)
    same = BiGFrameSystem(sys.lam, sys.lam)
    np.testing.assert_allclose(
        bi_g_frame_operator(same), g_frame_operator(sys.lam), atol=1e-13
    )


def test_operator_instance_a(instance_a):
    np.testing.assert_allclose(
        bi_g_frame_operator(instance_a), np.diag([2.0, 1.0]), atol=1e-15
    )


def test_operator_nilpotent_pair():
    expected = np.array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(bi_g_frame_operator(NONHERM), expected, atol=1e-15)


def test_pairing_shape_mismatch(instance_a):
    with pytest.raises(ShapeMismatch):
        pairing_sum(instance_a, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# classification


def test_classify_instance_a(instance_a):
    report = classify_bi_g_frame(instance_a)
    assert report.is_frame and report.is_bessel
    assert not report.is_tight and not report.is_parseval
    assert report.bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert report.bounds.upper == pytest.approx(2.0, abs=1e-12)
    assert report.inverse_norm == pytest.approx(1.0, abs=1e-9)
    assert report.inverse_norm <= 1.0 / report.bounds.lower + 1e-9


def test_classify_parseval_pair():
    split = GFrameSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
    report = classify_bi_g_frame(BiGFrameSystem(split, split))
    assert report.is_parseval
    assert report.bounds.lower == pytest.approx(1.0)


def test_classify_non_hermitian_pair_fails_fast():
    report = classify_bi_g_frame(NONHERM)
    assert not report.is_bessel and not report.is_frame
    assert report.bounds is None and report.inverse_norm is None
    assert report.hermitian_deviation > 0.1


# ---------------------------------------------------------------------------
# adjoint identity and swap


def test_adjoint_identity_everywhere(instance_a):
    assert adjoint_identity_check(instance_a)
    assert adjoint_identity_check(NONHERM)
    rng = np.random.default_rng(79)
    for _ in range(20):
        assert adjoint_identity_check(_random_pair(rng))


def test_swap_preserves_bounds(instance_a):
    report = classify_bi_g_frame(swap(instance_a))
    assert report.is_frame
    assert report.bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert report.bounds.upper == pytest.approx(2.0, abs=1e-12)


def test_swap_twice_is_identity(instance_a):
    double = swap(swap(instance_a))
    for a, b in zip(double.lam.blocks, instance_a.lam.blocks):
        np.testing.assert_array_equal(a, b)


def test_swap_keeps_negatives_negative():
    assert not classify_bi_g_frame(swap(NONHERM)).is_frame


# ---------------------------------------------------------------------------
# canonical pair and reconstruction


def test_canonical_pair_instance_a(instance_a):
    dual = canonical_pair(instance_a)
    np.testing.assert_allclose(dual.lam.blocks[0], [[0.5, 0.0]], atol=1e-12)
    np.testing.assert_allclose(dual.lam.blocks[1], [[0.0, 1.0], [0.5, 0.0]], atol=1e-12)
    np.testing.assert_allclose(dual.gam.blocks[0], [[1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(dual.gam.blocks[1], [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)


def test_canonical_pair_of_parseval_is_source():
    split = GFrameSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
    pair = BiGFrameSystem(split, split)
    dual = canonical_pair(pair)
    for a, b in zip(dual.lam.blocks, split.blocks):
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_canonical_pair_tight_scales_by_inverse():
    tight = BiGFrameSystem(
        GFrameSystem(2, (np.sqrt(2.0) * np.eye(2),)),
        GFrameSystem(2, (np.sqrt(2.0) * np.eye(2),)),
    )
    dual = canonical_pair(tight)
    np.testing.assert_allclose(dual.lam.blocks[0], np.sqrt(2.0) * np.eye(2) / 2.0, atol=1e-14)


def test_canonical_pair_rejects_non_frame():
    with pytest.raises(NotBiGFrame) as excinfo:
        canonical_pair(NONHERM)
    assert excinfo.value.report is not None
    assert not excinfo.value.report.is_frame


def test_not_bi_g_frame_names_the_gate_that_decided():
    # Passes the Hermitian gate and fails definiteness: the message names the edges.
    rank_deficient = gen_negative(GenSpec(4, (2, 2, 2), 5, "rank_deficient"))
    with pytest.raises(NotBiGFrame, match="smallest eigenvalue") as excinfo:
        canonical_pair(rank_deficient)
    assert "hermitian deviation" not in str(excinfo.value)
    assert excinfo.value.report.is_bessel and "tol 1.000e-09" in str(excinfo.value)
    with pytest.raises(NotBiGFrame, match="hermitian deviation") as excinfo:
        canonical_pair(NONHERM)
    assert "eigenvalue" not in str(excinfo.value)


def test_reconstruct_instance_a(instance_a):
    np.testing.assert_allclose(
        reconstruct(instance_a, [1.0, 0.0], 1), [1.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        reconstruct(instance_a, [0.0, 1.0], 2), [0.0, 1.0], atol=1e-12
    )


def test_reconstruct_random_vectors(instance_a):
    rng = np.random.default_rng(83)
    for variant in (1, 2):
        for _ in range(10):
            f = random_complex_vector(rng, 2)
            rebuilt = reconstruct(instance_a, f, variant)
            assert np.linalg.norm(rebuilt - f) <= 1e-9 * np.linalg.norm(f)


def test_reconstruct_validates_variant(instance_a):
    with pytest.raises(ValueError):
        reconstruct(instance_a, [1.0, 0.0], 3)


def test_reconstruct_parseval_is_trivial():
    split = GFrameSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
    pair = BiGFrameSystem(split, split)
    rng = np.random.default_rng(109)
    f = random_complex_vector(rng, 2)
    for variant in (1, 2):
        np.testing.assert_allclose(reconstruct(pair, f, variant), f, atol=1e-12)


def test_classified_bounds_sandwich_pairing(instance_a):
    report = classify_bi_g_frame(instance_a)
    lower, upper = report.bounds.lower, report.bounds.upper
    rng = np.random.default_rng(113)
    for _ in range(1000):
        f = random_complex_vector(rng, 2)
        value = pairing_sum(instance_a, f)
        norm_sq = float(np.vdot(f, f).real)
        assert lower * norm_sq * (1.0 - 1e-10) <= value.real
        assert value.real <= upper * norm_sq * (1.0 + 1e-10)
        assert abs(value.imag) <= 1e-9 * norm_sq


def test_dual_pair_bessel_instance_a(instance_a):
    bound, ok = dual_pair_bessel_check(instance_a, trials=25)
    assert ok
    assert bound == pytest.approx(1.0, abs=1e-12)  # equals 1/C with C = 1


def test_dual_pair_bessel_tight_quarter():
    tight = BiGFrameSystem(
        GFrameSystem(2, (2.0 * np.eye(2),)),
        GFrameSystem(2, (np.eye(2),)),
    )
    # pairing operator is 2I, so the dual bound must be 1/2... with C = 2.
    report = classify_bi_g_frame(tight)
    assert report.is_tight and report.bounds.lower == pytest.approx(2.0)
    bound, ok = dual_pair_bessel_check(tight, trials=10)
    assert ok and bound == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# synthesis coefficients and the norm identity


def test_particular_solution_instance_a(instance_a):
    particular, nullbasis = solve_synthesis_coefficients(instance_a, [1.0, 0.0], "gamma")
    np.testing.assert_allclose(particular.parts[0], [0.5], atol=1e-12)
    np.testing.assert_allclose(particular.parts[1], [0.0, 0.5], atol=1e-12)
    assert len(nullbasis) == 1
    # kernel vectors synthesize to zero
    for basis_vec in nullbasis:
        residual = g_synthesis(instance_a.gam, basis_vec)
        assert np.linalg.norm(residual) <= 1e-12
    synthesized = g_synthesis(instance_a.gam, particular)
    np.testing.assert_allclose(synthesized, [1.0, 0.0], atol=1e-12)


def test_particular_solution_lambda_side(instance_a):
    particular, _ = solve_synthesis_coefficients(instance_a, [1.0, 0.0], "lambda")
    synthesized = g_synthesis(instance_a.lam, particular)
    np.testing.assert_allclose(synthesized, [1.0, 0.0], atol=1e-12)


def _identity_balances(sys, f, g, side, tol=1e-9) -> bool:
    """Both sides of the coefficient identity agree within ``tol`` (relative)."""
    lhs, rhs = coefficient_identity_terms(sys, f, g, side, tol)
    return abs(lhs - rhs) <= tol * (1.0 + abs(lhs))


def test_identity_values_instance_a(instance_a):
    particular, _ = solve_synthesis_coefficients(instance_a, [1.0, 0.0], "gamma")
    lhs, rhs = coefficient_identity_terms(instance_a, [1.0, 0.0], particular, "gamma")
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs.real == pytest.approx(0.5, abs=1e-12)
    assert abs(rhs.imag) <= 1e-12
    assert _identity_balances(instance_a, [1.0, 0.0], particular, "gamma")


def test_identity_survives_kernel_perturbations(instance_a):
    rng = np.random.default_rng(89)
    f = np.array([1.0, 0.0])
    for side in ("gamma", "lambda"):
        particular, nullbasis = solve_synthesis_coefficients(instance_a, f, side)
        for _ in range(10):
            parts = [np.array(p) for p in particular.parts]
            for basis_vec in nullbasis:
                coeff = complex(rng.standard_normal() + 1j * rng.standard_normal())
                for i, extra in enumerate(basis_vec.parts):
                    parts[i] = parts[i] + coeff * extra
            candidate = CoefficientSequence(tuple(parts))
            assert _identity_balances(instance_a, f, candidate, side)


def test_identity_rejects_non_synthesizing_coefficients(instance_a):
    bogus = CoefficientSequence((np.array([5.0]), np.array([0.0, 0.0])))
    with pytest.raises(ConstraintViolated):
        coefficient_identity_terms(instance_a, [1.0, 0.0], bogus, "gamma")


def test_parseval_identity_reduces_to_energy():
    split = GFrameSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
    pair = BiGFrameSystem(split, split)
    rng = np.random.default_rng(97)
    f = random_complex_vector(rng, 2)
    particular, _ = solve_synthesis_coefficients(pair, f, "gamma")
    lhs, rhs = coefficient_identity_terms(pair, f, particular, "gamma")
    assert lhs == pytest.approx(float(np.vdot(f, f).real), rel=1e-12)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + lhs)


# ---------------------------------------------------------------------------
# lifting and Riesz transfer


def test_lift_instance_a(instance_a):
    u, v = lift_to_biframe(instance_a)
    expected_u = [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    expected_v = [(2.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    for vec, e in zip(u.vectors, expected_u):
        np.testing.assert_allclose(vec, e, atol=1e-15)
    for vec, e in zip(v.vectors, expected_v):
        np.testing.assert_allclose(vec, e, atol=1e-15)
    lifted = classify_biframe(u, v)
    assert lifted.is_frame
    assert lifted.bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert lifted.bounds.upper == pytest.approx(2.0, abs=1e-12)


def test_lift_agrees_on_negatives():
    u, v = lift_to_biframe(NONHERM)
    assert not classify_biframe(u, v).is_frame


def test_lift_agrees_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(10):
        sys = _random_pair(rng)
        pair_report = classify_bi_g_frame(sys)
        u, v = lift_to_biframe(sys)
        lift_report = classify_biframe(u, v)
        fields = ("is_bessel", "is_frame", "is_tight", "is_parseval", "bounds",
                  "hermitian_deviation")
        for name in fields:
            assert getattr(lift_report, name) == getattr(pair_report, name), name


def test_riesz_transfer_instance_a(instance_a):
    # Total block dimension is 3 > 2, so neither side is a Riesz family,
    # and the statuses agree.
    assert riesz_transfer_check(instance_a)


def test_riesz_transfer_single_invertible_blocks():
    pd = np.array([[2.0, 0.5], [0.5, 1.0]])
    pair = BiGFrameSystem(GFrameSystem(2, (np.eye(2),)), GFrameSystem(2, (pd,)))
    assert riesz_transfer_check(pair)


def test_riesz_transfer_requires_frame():
    with pytest.raises(NotBiGFrame):
        riesz_transfer_check(NONHERM)


# ---------------------------------------------------------------------------
# promotion of vector biframes


def test_from_vector_biframe_matches_instance_a(instance_a):
    f_list = VectorFrame(
        2, (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    )
    g_list = VectorFrame(
        2, (np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    )
    promoted = from_vector_biframe(f_list, g_list)
    assert promoted.block_dims == (1, 1, 1)
    np.testing.assert_allclose(
        bi_g_frame_operator(promoted), bi_g_frame_operator(instance_a), atol=1e-14
    )
    rng = np.random.default_rng(103)
    for _ in range(10):
        f = random_complex_vector(rng, 2)
        biframe_sum = sum(
            inner(f, fv) * inner(gv, f) for fv, gv in zip(f_list.vectors, g_list.vectors)
        )
        assert pairing_sum(promoted, f) == pytest.approx(biframe_sum)


def test_from_vector_biframe_round_trip():
    rng = np.random.default_rng(107)
    f_list = VectorFrame(3, tuple(random_complex_vector(rng, 3) for _ in range(4)))
    g_list = VectorFrame(3, tuple(random_complex_vector(rng, 3) for _ in range(4)))
    promoted = from_vector_biframe(f_list, g_list)
    u, v = lift_to_biframe(promoted)
    for a, b in zip(u.vectors, f_list.vectors):
        np.testing.assert_allclose(a, b, atol=1e-14)
    for a, b in zip(v.vectors, g_list.vectors):
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_from_vector_biframe_of_orthonormal_is_parseval():
    basis = VectorFrame(2, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert classify_bi_g_frame(from_vector_biframe(basis, basis)).is_parseval


def test_pair_construction_validates_shapes():
    lam = GFrameSystem(2, (np.array([[1.0, 0.0]]),))
    gam_wrong_rows = GFrameSystem(2, (np.eye(2),))
    with pytest.raises(ShapeMismatch):
        BiGFrameSystem(lam, gam_wrong_rows)
    gam_wrong_dim = GFrameSystem(3, (np.array([[1.0, 0.0, 0.0]]),))
    with pytest.raises(ShapeMismatch):
        BiGFrameSystem(lam, gam_wrong_dim)


def test_vector_pairs_are_shape_checked_by_the_pair():
    one, two = (np.array([1.0, 0.0]),), (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ShapeMismatch, match=r"families live on different spaces: 2 vs 3"):
        from_vector_biframe(VectorFrame(2, one), VectorFrame(3, (np.ones(3),)))
    with pytest.raises(ShapeMismatch, match=r"block shapes differ: 2 vs 1 blocks"):
        from_vector_biframe(VectorFrame(2, two), VectorFrame(2, one))


def test_block_shape_messages_stay_short():
    # One line however many blocks: the block counts, or the first block that differs.
    rng = np.random.default_rng(0)
    long, short = (VectorFrame(4, tuple(rng.standard_normal((n, 4)))) for n in (1000, 999))
    with pytest.raises(ShapeMismatch) as info:
        check_duality(long, short)
    message = str(info.value)
    assert len(message) <= 80 and "1000 vs 999 blocks" in message
    lam = GFrameSystem(4, (np.eye(4)[:2],) * 4)
    gam = GFrameSystem(4, (np.eye(4)[:2],) * 3 + (np.eye(4),))
    with pytest.raises(ShapeMismatch, match=r"^block shapes differ: block 3 has 2 vs 4 rows$"):
        BiGFrameSystem(lam, gam)
    seq = CoefficientSequence.from_flat(np.ones(8), lam.block_dims)
    with pytest.raises(ShapeMismatch, match=r"^coefficient and system shapes differ: block 3 "):
        g_synthesis(gam, seq)


# ---------------------------------------------------------------------------
# one tolerance, read the same way by every gate


# S = diag(1, 1e-13): a frame at tol=1e-15, below the solver's 1e-12 default.
TINY_EDGE = BiGFrameSystem(
    GFrameSystem(2, (np.diag([1.0, 1e-13]),)), GFrameSystem(2, (np.eye(2),))
)


def test_frame_gate_reads_the_callers_tol():
    report = classify_bi_g_frame(TINY_EDGE, tol=1e-15)
    assert report.is_frame and not report.is_tight
    assert report.bounds.lower == pytest.approx(1e-13, rel=1e-12)
    assert report.bounds.upper == pytest.approx(1.0, rel=1e-12)
    assert report.inverse_norm == pytest.approx(1e13, rel=1e-9)
    assert not classify_bi_g_frame(TINY_EDGE, tol=1e-12).is_frame


@pytest.mark.parametrize("tol", [1e-16, DEFAULT_TOL])
def test_a_gram_pair_classifies_as_its_single_family(tol):
    # At 1e-16 the Hermitian gate read the rounding of S = Lambda^H Lambda and
    # refused the Bessel verdict of 35 of these 200 pairs, all frames alone.
    for seed in range(200):
        lam = gen_g_frame(GenSpec(7, (3, 5, 2), seed))
        single = classify_g_frame(lam, tol)
        for gam in (lam, GFrameSystem(lam.dim, lam.blocks)):
            report = classify_bi_g_frame(BiGFrameSystem(lam, gam), tol)
            assert report == replace(single, is_riesz=None), seed
            assert report._edges == single._edges


def _prescribed_7(seed: int) -> BiGFrameSystem:
    return gen_bi_g_frame(
        GenSpec(7, (3, 5, 2), seed, "prescribed_operator"), random_hermitian_pd(7, 9)
    )


def _own_coefficients(pair, f, side, tol):
    """The particular solution and two null-space draws, as ``bgf identity --perturb 2``
    makes them."""
    particular, nullbasis = solve_synthesis_coefficients(pair, f, side, tol)
    rng = np.random.default_rng(0)
    return [particular, *(_perturbed(particular, nullbasis, rng) for _ in range(2))]


def test_identity_accepts_its_own_coefficients_at_a_tight_tol():
    # At tol 1e-15 an absolute gate tol (1 + ||f||) refused 14 of these draws,
    # whose synthesis residual is rounding of order eps ||Gamma||_F ||g||.
    e1 = np.eye(7)[0]
    checked = 0
    for seed in range(60):
        pair = _prescribed_7(seed)
        if not classify_bi_g_frame(pair, 1e-15).is_frame:
            continue
        for side in ("gamma", "lambda"):
            for g in _own_coefficients(pair, e1, side, 1e-15):
                coefficient_identity_terms(pair, e1, g, side, 1e-15)
                checked += 1
    assert checked >= 60


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    k=st.integers(-400, 400),
    side=st.sampled_from(["gamma", "lambda"]),
    tol=st.sampled_from([1e-15, DEFAULT_TOL]),
)
def test_identity_gate_is_invariant_under_rescaling(seed, k, side, tol):
    # A Gram pair is a frame at any tol; scaling g and f by 2^k is exact, and so
    # is the gate's verdict: own coefficients pass, a miss of 1e-6 is refused.
    lam = gen_g_frame(GenSpec(7, (3, 5, 2), seed))
    pair = BiGFrameSystem(lam, lam)
    f = random_complex_vector(np.random.default_rng(seed), 7)
    own = _own_coefficients(pair, f, side, tol)[-1].to_flat()
    miss = own + 1e-6 * np.eye(own.shape[0])[0]
    for flat, accepted in ((own, True), (miss, False)):
        for scale in (1.0, 2.0**k):
            g = CoefficientSequence.from_flat(scale * flat, lam.block_dims)
            try:
                coefficient_identity_terms(pair, scale * f, g, side, tol)
            except ConstraintViolated:
                assert not accepted
            else:
                assert accepted


def test_reconstruct_of_a_gram_pair_is_within_the_rounding_bound():
    # At 1e-16 the relative residual of e1 exceeds tol in both variants, but not
    # tol ||Lambda||_F ||Gamma||_F ||H^-1||, the gate bgf reconstruct applies.
    e1 = np.eye(7)[0]
    for seed in range(60):
        lam = gen_g_frame(GenSpec(7, (3, 5, 2), seed))
        pair = BiGFrameSystem(lam, lam)
        report = classify_bi_g_frame(pair, 1e-16)
        scale = np.linalg.norm(stacked_analysis_matrix(lam)) ** 2 * report.inverse_norm
        for variant in (1, 2):
            assert np.linalg.norm(reconstruct(pair, e1, variant, 1e-16) - e1) <= 1e-16 * scale


PAIR_KINDS = ("prescribed_operator", "rank_deficient", "non_hermitian_pair")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(PAIR_KINDS),
    seed=st.integers(0, 2**16),
    exponent=st.floats(-12.0, 12.0),
)
@example(kind="non_hermitian_pair", seed=5, exponent=-10.0)
def test_rescaling_lambda_keeps_verdicts_and_scales_bounds(kind, seed, exponent):
    spec = GenSpec(4, (2, 2, 2), seed, kind)
    if kind == "prescribed_operator":
        pair = gen_bi_g_frame(spec, random_hermitian_pd(4, seed))
    else:
        pair = gen_negative(spec)
    c = 10.0**exponent
    scaled = BiGFrameSystem(GFrameSystem(4, tuple(c * b for b in pair.lam.blocks)), pair.gam)
    before, after = classify_bi_g_frame(pair), classify_bi_g_frame(scaled)
    # Parseval pins the bounds at 1, so it is the one verdict rescaling may change.
    assert (after.is_bessel, after.is_frame, after.is_tight) == (
        before.is_bessel,
        before.is_frame,
        before.is_tight,
    )
    assert after.hermitian_deviation == pytest.approx(before.hermitian_deviation, abs=1e-12)
    if before.is_frame:
        assert after.bounds.lower == pytest.approx(c * before.bounds.lower, rel=1e-9)
        assert after.bounds.upper == pytest.approx(c * before.bounds.upper, rel=1e-9)


# ---------------------------------------------------------------------------
# the shared factor against the per-block solves it replaced


def _reference_duals(pair):
    """One dense solve per block, against S for Lambda and S* for Gamma."""
    op = bi_g_frame_operator(pair)
    lam = [np.linalg.solve(op, b.conj().T).conj().T for b in pair.lam.blocks]
    gam = [np.linalg.solve(op.conj().T, b.conj().T).conj().T for b in pair.gam.blocks]
    return lam, gam


def _reference_reconstruct(pair, f, variant):
    op = bi_g_frame_operator(pair)
    out = np.zeros(pair.dim, dtype=np.complex128)
    if variant == 1:
        y = np.linalg.solve(op, f)
        for lb, gb in zip(pair.lam.blocks, pair.gam.blocks):
            out += gb.conj().T @ (lb @ y)
    else:
        for lb, gb in zip(pair.lam.blocks, pair.gam.blocks):
            out += np.linalg.solve(op.conj().T, gb.conj().T) @ (lb @ f)
    return out


def _reference_identity_terms(lam_t, gam_t, f, g, side):
    cross = sum(np.vdot(gt @ f, lt @ f) for lt, gt in zip(lam_t, gam_t))
    if side == "gamma":
        first = sum(np.vdot(gj - gt @ f, gj) for gj, gt in zip(g.parts, gam_t))
    else:
        first = sum(np.vdot(gj, gj - lt @ f) for gj, lt in zip(g.parts, lam_t))
    return float(sum(np.vdot(p, p).real for p in g.parts)), complex(first + cross)


PRESCRIBED_SHAPES = [(4, (1,) * 4), (16, (4,) * 8), (64, (4,) * 32)]


def _prescribed_pair(dim, block_dims):
    return gen_bi_g_frame(
        GenSpec(dim, block_dims, dim, "prescribed_operator"), random_hermitian_pd(dim, dim)
    )


def _assert_rel(actual, expected, rel=1e-10):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.linalg.norm(actual - expected) <= rel * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "make,tol,expected",
    [
        (lambda: _prescribed_pair(7, (3, 5, 2)), DEFAULT_TOL, None),
        (lambda: _prescribed_pair(64, (4,) * 32), DEFAULT_TOL, None),
        (lambda: TINY_EDGE, 1e-15, 1e13),
    ],
    ids=["7;3,5,2", "64;32x4", "diag(1,1e-13)"],
)
def test_inverse_norm_matches_the_explicit_inverse(make, tol, expected):
    """``inverse_norm`` is read as 1/C from the spectrum; the oracle inverts H."""
    pair = make()
    explicit = explicit_inverse_norm(pair)
    assert classify_bi_g_frame(pair, tol).inverse_norm == pytest.approx(explicit, rel=1e-12)
    if expected is not None:
        assert explicit == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim,block_dims", [*PRESCRIBED_SHAPES[1:], (7, (3, 5, 2))])
def test_canonical_pair_is_a_pair_with_inverse_bounds(dim, block_dims):
    """The canonical dual is itself a bi-g-frame, with operator S^-1: its
    bounds are (1/D, 1/C)."""
    pair = _prescribed_pair(dim, block_dims)
    bounds = classify_bi_g_frame(pair).bounds
    dual = canonical_pair(pair)
    assert isinstance(dual, BiGFrameSystem)
    report = classify_bi_g_frame(dual)
    assert report.is_frame
    assert report.bounds.lower == pytest.approx(1.0 / bounds.upper, rel=1e-9)
    assert report.bounds.upper == pytest.approx(1.0 / bounds.lower, rel=1e-9)


@pytest.mark.parametrize("dim,block_dims", PRESCRIBED_SHAPES)
def test_shared_factor_matches_per_block_solves(dim, block_dims):
    pair = _prescribed_pair(dim, block_dims)
    lam_t, gam_t = _reference_duals(pair)
    dual = canonical_pair(pair)
    for actual, expected in zip(dual.lam.blocks + dual.gam.blocks, lam_t + gam_t):
        _assert_rel(actual, expected)

    rng = np.random.default_rng(dim)
    f = random_complex_vector(rng, dim)
    for variant in (1, 2):
        _assert_rel(reconstruct(pair, f, variant), _reference_reconstruct(pair, f, variant))
    for side, analysis in (("gamma", lam_t), ("lambda", gam_t)):
        particular, nullbasis = solve_synthesis_coefficients(pair, f, side)
        _assert_rel(particular.to_flat(), np.concatenate([b @ f for b in analysis]))
        g = particular
        if nullbasis:
            g = CoefficientSequence.from_flat(
                particular.to_flat() + (0.5 - 0.25j) * nullbasis[0].to_flat(), block_dims
            )
        lhs, rhs = coefficient_identity_terms(pair, f, g, side)
        ref_lhs, ref_rhs = _reference_identity_terms(lam_t, gam_t, f, g, side)
        _assert_rel(lhs, ref_lhs)
        _assert_rel(rhs, ref_rhs)


@pytest.mark.parametrize("side", ["gamma", "lambda"])
def test_identity_terms_of_several_sequences_match_one_at_a_time(side):
    pair = _prescribed_pair(16, (4,) * 8)
    rng = np.random.default_rng(7)
    f = random_complex_vector(rng, 16)
    particular, nullbasis = solve_synthesis_coefficients(pair, f, side)
    draws = [
        CoefficientSequence.from_flat(
            particular.to_flat() + random_complex_vector(rng, 1)[0] * g.to_flat(), (4,) * 8
        )
        for g in nullbasis[:3]
    ]
    sequences = [particular, *draws]
    terms = _coefficient_identity_terms(pair, f, sequences, side, DEFAULT_TOL)
    assert terms == [coefficient_identity_terms(pair, f, g, side) for g in sequences]


@pytest.mark.parametrize("variant", [1, 2])
def test_reconstruct_of_several_vectors_matches_the_reference(variant):
    pair = _prescribed_pair(16, (4,) * 8)
    rng = np.random.default_rng(variant)
    vectors = [random_complex_vector(rng, 16) for _ in range(3)]
    rebuilt = _reconstruct(pair, vectors, variant, DEFAULT_TOL)
    assert len(rebuilt) == len(vectors)
    for actual, f in zip(rebuilt, vectors):
        _assert_rel(actual, _reference_reconstruct(pair, f, variant))
        _assert_rel(actual, f)


@pytest.fixture
def solve_shapes(monkeypatch) -> list:
    """The shape of every right-hand side handed to ``CholeskyFactor.solve``."""
    shapes = []
    solve = CholeskyFactor.solve

    def recording(self, b):
        shapes.append(np.shape(b))
        return solve(self, b)

    monkeypatch.setattr(CholeskyFactor, "solve", recording)
    return shapes


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("variant", [1, 2])
def test_reconstruct_solves_once_on_the_vectors(solve_shapes, variant, count):
    """One solve with one column per vector, never one against a whole family
    (``sum m_j = 32`` columns), whichever variant."""
    pair = _prescribed_pair(16, (4,) * 8)
    rng = np.random.default_rng(count)
    vectors = [random_complex_vector(rng, 16) for _ in range(count)]
    solve_shapes.clear()
    _reconstruct(pair, vectors, variant, DEFAULT_TOL)
    one_column = [(16, count)] + ([(16,)] if count == 1 else [])
    assert len(solve_shapes) == 1 and solve_shapes[0] in one_column
    assert all(sum(pair.block_dims) not in shape[1:] for shape in solve_shapes)
    solve_shapes.clear()
    reconstruct(pair, vectors[0], variant)
    assert len(solve_shapes) == 1 and solve_shapes[0] in [(16, 1), (16,)]


def test_a_factor_keeps_two_square_arrays():
    pair = _prescribed_pair(16, (4,) * 8)
    _, factor, _ = _prepare(pair, DEFAULT_TOL)
    kept = [v for v in vars(factor).values() if isinstance(v, np.ndarray)]
    assert len(vars(factor)) == len(kept) == 2
    assert all(a.shape == (16, 16) for a in kept)


def _stacked_dual(pair, tol=DEFAULT_TOL) -> list:
    """Both dual analysis matrices as ``(H^-1 [Lambda^H | Gamma^H])^H``: the two
    families stacked, conjugated and transposed, in one left solve against the
    pair's factor, whose result is conjugated and transposed back."""
    stacked = np.vstack([stacked_analysis_matrix(f) for f in (pair.lam, pair.gam)])
    _, factor, _ = _prepare(pair, tol)
    return np.split(factor.solve(stacked.conj().T).conj().T, 2)


# (64, 32 x 4) as the benchmark runs it, (7; 3,5,2) and a small (5; 2,2,3) pair.
ROW_SOLVE_PAIRS = {
    "64": (GenSpec(64, (4,) * 32, 3, "prescribed_operator"), 9),
    "7": (GenSpec(7, (3, 5, 2), 4, "prescribed_operator"), 9),
    "5": (GenSpec(5, (2, 2, 3), 2, "prescribed_operator"), 3),
}


@pytest.mark.parametrize("name", ROW_SOLVE_PAIRS)
def test_the_dual_is_each_family_solved_from_the_right(name):
    """``Lambda H^-1`` and ``Gamma H^-1`` agree with the stacked left solve:
    bit for bit at (64, 32 x 4), within a rounding elsewhere. Nothing is kept."""
    spec, target_seed = ROW_SOLVE_PAIRS[name]
    pair = gen_bi_g_frame(spec, random_hermitian_pd(spec.dim, target_seed))
    expected = _stacked_dual(pair)
    kept = pair._prepared
    dual = canonical_pair(pair)
    assert pair._prepared is kept and kept[3] == {}
    for family, reference in zip((dual.lam, dual.gam), expected):
        actual = stacked_analysis_matrix(family)
        assert actual.flags.c_contiguous and not actual.flags.writeable
        if name == "64":
            np.testing.assert_array_equal(actual, reference)
        else:
            _assert_rel(actual, reference, rel=1e-15)


def _peak_bytes(call) -> int:
    """Peak of the memory ``call`` allocates under tracemalloc, after one warm call."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_the_dual_takes_two_family_sized_temporaries():
    """At (64, 32 x 4) a family is 128 x 64 complex, 128 KiB. One right solve per
    family needs the output and two more families, for ``a H^-1`` and its
    refinement; stacking, conjugating or transposing a family costs more."""
    pair = _prescribed_pair(64, (4,) * 32)
    family = stacked_analysis_matrix(pair.lam).nbytes
    dual = canonical_pair(pair)
    output = sum(stacked_analysis_matrix(f).nbytes for f in (dual.lam, dual.gam))
    assert family == 128 * 64 * 16 and output == 2 * family
    assert _peak_bytes(lambda: canonical_pair(pair)) <= output + 2 * family + 16 * 1024


def test_synthesis_copies_no_family():
    """``Gamma^H y`` as ``conj(y^H Gamma)``: conjugating the 128 x 64 family
    instead would take 128 KiB per call."""
    pair = _prescribed_pair(64, (4,) * 32)
    f = random_complex_vector(np.random.default_rng(64), 64)
    g, _ = solve_synthesis_coefficients(pair, f, "gamma")
    calls = {
        "reconstruct 1": lambda: reconstruct(pair, f, 1),
        "reconstruct 2": lambda: reconstruct(pair, f, 2),
        "g_synthesis": lambda: g_synthesis(pair.gam, g),
        "coefficient_identity_terms": lambda: coefficient_identity_terms(pair, f, g, "gamma"),
    }
    peaks = {name: _peak_bytes(call) for name, call in calls.items()}
    assert all(peak < 16 * 1024 for peak in peaks.values()), peaks


@pytest.mark.parametrize("scale", [2.0**-300, 2.0**300], ids=["2^-300", "2^300"])
def test_non_hermitian_pair_stays_non_hermitian_at_extreme_scales(scale):
    """Scaled by 2^-300 the operator's squared entries underflow to 0, and by
    2^300 they overflow; the deviation must still read sqrt(2), not 0 or NaN."""
    pair = gen_negative(GenSpec(7, (3, 5, 2), 4, kind="non_hermitian_pair"))
    scaled = rescaled_pair(pair, scale)
    before, after = classify_bi_g_frame(pair), classify_bi_g_frame(scaled)
    assert not after.is_bessel and not after.is_frame and after.bounds is None
    assert before.hermitian_deviation == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert after.hermitian_deviation == pytest.approx(before.hermitian_deviation, rel=1e-12)


def test_an_overflowing_operator_is_a_numerical_failure():
    """Scaled by 2^520, the (7; 3,5,2) pair's operator overflows, and so does its
    first family's own: a numerical failure, not the input validator's ValueError."""
    pair = gen_bi_g_frame(
        GenSpec(7, (3, 5, 2), 4, "prescribed_operator"), random_hermitian_pd(7, seed=9)
    )
    scaled = rescaled_pair(pair, 2.0**520)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: classify_bi_g_frame(scaled), lambda: classify_g_frame(scaled.lam)):
            with pytest.raises(np.linalg.LinAlgError, match="pair operator overflows"):
                call()
    assert scaled._prepared is None


def test_one_hermitian_part_gates_the_pair_and_is_factored():
    pair = gen_bi_g_frame(
        GenSpec(7, (3, 5, 2), 4, "prescribed_operator"), random_hermitian_pd(7, seed=9)
    )
    s = bi_g_frame_operator(pair)
    h, report = _classify(pair, DEFAULT_TOL)
    np.testing.assert_array_equal(h, 0.5 * (s + s.conj().T))
    w = np.linalg.eigvalsh(h)
    assert report._edges == (w[0], w[-1])
    np.testing.assert_array_equal(_prepare(pair, DEFAULT_TOL)[1].h, h)
    # The Hermitian gate stops the report before any H is formed.
    assert _classify(NONHERM, DEFAULT_TOL)[0] is None


@pytest.mark.parametrize("dim,block_dims", PRESCRIBED_SHAPES)
def test_stacked_operators_match_block_loops(dim, block_dims):
    pair = _prescribed_pair(dim, block_dims)
    loop = sum(gb.conj().T @ lb for lb, gb in zip(pair.lam.blocks, pair.gam.blocks))
    _assert_rel(bi_g_frame_operator(pair), loop, rel=1e-13)
    loop = sum(b.conj().T @ b for b in pair.lam.blocks)
    _assert_rel(g_frame_operator(pair.lam), loop, rel=1e-13)


@pytest.mark.parametrize("dim,block_dims", PRESCRIBED_SHAPES)
def test_null_basis_matches_per_row_from_flat(dim, block_dims):
    # Any orthonormal basis of the kernel will do, so compare the orthogonal
    # projectors B^T conj(B) onto the spans, not the rows themselves.
    pair = _prescribed_pair(dim, block_dims)
    f = random_complex_vector(np.random.default_rng(dim), dim)
    for side, family in (("gamma", pair.gam), ("lambda", pair.lam)):
        _, nullbasis = solve_synthesis_coefficients(pair, f, side)
        a = stacked_analysis_matrix(family)
        _, _, vh = np.linalg.svd(a.conj().T)
        expected = [CoefficientSequence.from_flat(np.conj(row), block_dims) for row in vh[dim:]]
        assert len(nullbasis) == len(expected) == sum(block_dims) - dim
        for actual in nullbasis:
            assert actual.block_dims == block_dims
            assert not actual.to_flat().flags.writeable
            assert all(not p.flags.writeable for p in actual.parts)
            np.testing.assert_array_equal(np.concatenate(actual.parts), actual.to_flat())
        b = np.array([g.to_flat() for g in nullbasis]).reshape(-1, sum(block_dims))
        ref = np.array([g.to_flat() for g in expected]).reshape(-1, sum(block_dims))
        np.testing.assert_allclose(b.conj() @ b.T, np.eye(len(b)), atol=1e-12)
        assert np.linalg.norm(a.conj().T @ b.T) <= 1e-12 * np.linalg.norm(a)
        np.testing.assert_allclose(b.T @ b.conj(), ref.T @ ref.conj(), atol=1e-12)


PART_SOURCES = {
    "constructor": lambda pair, f: [
        CoefficientSequence(tuple(np.arange(m) + 1j for m in pair.block_dims))
    ],
    "from_flat": lambda pair, f: [
        CoefficientSequence.from_flat(np.arange(sum(pair.block_dims)), pair.block_dims)
    ],
    "g_analysis": lambda pair, f: [g_analysis(pair.lam, f)],
    "null_basis": lambda pair, f: solve_synthesis_coefficients(pair, f, "gamma")[1],
}


@pytest.mark.parametrize("source", PART_SOURCES)
def test_parts_are_cut_on_first_read(source):
    pair = _prescribed_pair(7, (3, 5, 2))
    f = random_complex_vector(np.random.default_rng(7), 7)
    sequences = PART_SOURCES[source](pair, f)
    assert sequences
    for seq in sequences:
        assert "parts" not in vars(seq)
        parts, flat = seq.parts, seq.to_flat()
        assert vars(seq)["parts"] is parts and seq.parts is parts
        assert tuple(p.shape[0] for p in parts) == seq.block_dims == (3, 5, 2)
        assert all(not p.flags.writeable and np.shares_memory(p, flat) for p in parts)
        np.testing.assert_array_equal(np.concatenate(parts), flat)


def test_a_kept_null_basis_holds_its_rows_alone():
    # With a view per block and row built up front, a basis took about 3x its rows.
    pair = _prescribed_pair(64, (4,) * 32)
    f = random_complex_vector(np.random.default_rng(64), 64)
    classify_bi_g_frame(pair)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, basis = solve_synthesis_coefficients(pair, f, "gamma")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = sum(g.to_flat().nbytes for g in basis)
    assert len(basis) == 64 and rows == 64 * 128 * 16
    assert kept < 1.5 * rows
    assert not any("parts" in vars(g) for g in basis)


def test_null_basis_of_a_gauged_identity_pair():
    # S = I, and each stacked family has rank 2 although the lambda side has
    # a singular value of 1e-10: each kernel is 2-dimensional, and every
    # basis vector synthesizes 0.
    pair = gauged_identity_pair()
    np.testing.assert_array_equal(bi_g_frame_operator(pair), np.eye(2))
    f = random_complex_vector(np.random.default_rng(5), 2)
    for side, family in (("gamma", pair.gam), ("lambda", pair.lam)):
        particular, nullbasis = solve_synthesis_coefficients(pair, f, side)
        assert len(nullbasis) == 2
        for g in nullbasis:
            assert np.linalg.norm(g_synthesis(family, g)) <= 1e-15
            perturbed = CoefficientSequence.from_flat(
                particular.to_flat() + (1.0 - 2.0j) * g.to_flat(), pair.block_dims
            )
            lhs, rhs = coefficient_identity_terms(pair, f, perturbed, side)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + lhs)


@pytest.mark.parametrize("side", ["gamma", "lambda"])
def test_null_basis_needs_a_bi_g_frame(lapack_calls, side):
    rank_deficient = gen_negative(GenSpec(4, (2, 2, 2), 5, "rank_deficient"))
    lapack_calls.clear()
    for pair in (NONHERM, rank_deficient):
        messages = set()
        for _ in range(3):
            with pytest.raises(NotBiGFrame) as exc:
                solve_synthesis_coefficients(pair, np.ones(pair.dim), side, 1e-9)
            messages.add(str(exc.value))
            with pytest.raises(ValueError, match="side must be"):
                solve_synthesis_coefficients(pair, np.ones(pair.dim), "both", 1e-9)
        assert len(messages) == 1
        assert _prepare(pair, 1e-9)[2] == {}
    assert lapack_calls["qr"] == 0


def test_one_factorization_per_pair_call(lapack_calls):
    pair = gen_bi_g_frame(
        GenSpec(16, (4,) * 8, 3, "prescribed_operator"), random_hermitian_pd(16, 3)
    )
    f = random_complex_vector(np.random.default_rng(3), 16)
    particular, _ = solve_synthesis_coefficients(BiGFrameSystem(pair.lam, pair.gam), f, "gamma")
    lapack_calls.clear()
    classify_bi_g_frame(pair)
    canonical_pair(pair)
    reconstruct(pair, f, 1)
    reconstruct(pair, f, 2)
    for side in ("gamma", "lambda", "gamma", "lambda"):
        solve_synthesis_coefficients(pair, f, side)
    coefficient_identity_terms(pair, f, particular, "gamma")
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"], lapack_calls["qr"]) == (1, 1, 2)
    assert lapack_calls["svd"] == 0
    lapack_calls.clear()
    classify_bi_g_frame(pair)
    assert sum(lapack_calls.values()) == 0


def test_no_factorization_for_non_frames(lapack_calls):
    rank_deficient = gen_negative(GenSpec(4, (2, 2, 2), 5, "rank_deficient"))
    lapack_calls.clear()
    assert not classify_bi_g_frame(rank_deficient).is_frame
    assert lapack_calls["cholesky"] == 0
    for pair in (NONHERM, rank_deficient):
        messages = set()
        for _ in range(3):
            for call in (canonical_pair, lambda p: reconstruct(p, np.ones(p.dim), 2)):
                with pytest.raises(NotBiGFrame) as exc:
                    call(pair)
                messages.add(str(exc.value))
        assert len(messages) == 1
    # The Hermitian gate rules out NONHERM before any spectrum; the rank-deficient
    # pair keeps the one spectrum its classification computed.
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (0, 1)


def _pair_calls(make, f, g) -> list:
    """Every public pair function, each on the pair ``make()`` returns, as arrays and a report."""
    dual = canonical_pair(make())
    out = [classify_bi_g_frame(make())]
    out += [stacked_analysis_matrix(dual.lam), stacked_analysis_matrix(dual.gam)]
    out += [reconstruct(make(), f, variant) for variant in (1, 2)]
    for side in ("gamma", "lambda"):
        particular, nullbasis = solve_synthesis_coefficients(make(), f, side)
        out += [particular.to_flat()] + [b.to_flat() for b in nullbasis]
    out.append(np.array(coefficient_identity_terms(make(), f, g, "gamma")))
    return out


def test_a_warm_pair_returns_what_a_fresh_pair_computes():
    pair = gen_bi_g_frame(
        GenSpec(8, (2, 3, 4, 1), 7, "prescribed_operator"), random_hermitian_pd(8, 7)
    )
    f = random_complex_vector(np.random.default_rng(7), 8)
    g, _ = solve_synthesis_coefficients(BiGFrameSystem(pair.lam, pair.gam), f, "gamma")
    classify_bi_g_frame(pair)
    warm = _pair_calls(lambda: pair, f, g)
    fresh = _pair_calls(lambda: BiGFrameSystem(pair.lam, pair.gam), f, g)
    assert warm[0] == fresh[0] and warm[0].inverse_norm == fresh[0].inverse_norm
    assert len(warm) == len(fresh)
    assert all(np.array_equal(a, b) for a, b in zip(warm[1:], fresh[1:]))


def test_a_new_tol_prepares_the_pair_again(lapack_calls):
    # Spectrum edges 1e-3 and 1: a frame at 1e-9, not at 1e-2.
    pair = gen_bi_g_frame(
        GenSpec(8, (4, 4, 4), 11, "prescribed_operator"), np.diag(np.r_[1e-3, np.ones(7)])
    )
    lapack_calls.clear()
    assert classify_bi_g_frame(pair, 1e-9).is_frame
    canonical_pair(pair, 1e-9)
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (1, 1)
    assert not classify_bi_g_frame(pair, 1e-2).is_frame
    with pytest.raises(NotBiGFrame, match="tol 1.000e-02"):
        canonical_pair(pair, 1e-2)
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (1, 2)
    assert classify_bi_g_frame(pair, 1e-9).is_frame
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (2, 3)


def test_a_failed_factorization_keeps_nothing(monkeypatch):
    pair = gen_bi_g_frame(
        GenSpec(6, (2, 2, 3), 13, "prescribed_operator"), random_hermitian_pd(6, 13)
    )
    cholesky = np.linalg.cholesky
    failures = [np.linalg.LinAlgError("breakdown")]

    def fail_once(h):
        if failures:
            raise failures.pop()
        return cholesky(h)

    monkeypatch.setattr(np.linalg, "cholesky", fail_once)
    with pytest.raises(np.linalg.LinAlgError, match="breakdown"):
        classify_bi_g_frame(pair)
    assert pair._prepared is None
    assert classify_bi_g_frame(pair) == classify_bi_g_frame(BiGFrameSystem(pair.lam, pair.gam))


def test_a_dropped_pair_is_freed_by_refcount():
    pair = gen_bi_g_frame(
        GenSpec(6, (3, 3), 17, "prescribed_operator"), random_hermitian_pd(6, 17)
    )
    classify_bi_g_frame(pair)
    canonical_pair(pair)
    ref = weakref.ref(pair)
    gc.disable()
    try:
        del pair
        assert ref() is None
    finally:
        gc.enable()


def test_swap_and_dual_do_not_share_the_slot():
    pair = gen_bi_g_frame(
        GenSpec(6, (3, 3), 19, "prescribed_operator"), random_hermitian_pd(6, 19)
    )
    classify_bi_g_frame(pair)
    kept = pair._prepared
    swapped, dual = swap(pair), canonical_pair(pair)
    assert swapped._prepared is None and dual._prepared is None
    classify_bi_g_frame(swapped, 1e-6)
    classify_bi_g_frame(dual, 1e-6)
    assert pair._prepared is kept
    assert swapped._prepared[0] == dual._prepared[0] == 1e-6


def _flats(basis) -> list:
    return [g.to_flat() for g in basis]


def test_a_kept_null_basis_is_what_a_fresh_pair_computes(lapack_calls):
    pair = gen_bi_g_frame(
        GenSpec(8, (2, 3, 4, 1), 23, "prescribed_operator"), random_hermitian_pd(8, 23)
    )
    f = random_complex_vector(np.random.default_rng(23), 8)
    lapack_calls.clear()
    for side in ("gamma", "lambda"):
        _, first = solve_synthesis_coefficients(pair, f, side)
        _, second = solve_synthesis_coefficients(pair, f, side)
        assert second is not first and all(a is b for a, b in zip(first, second))
        first.clear()
        assert len(_prepare(pair, 1e-9)[2][side]) == len(second) == 10 - 8
        _, fresh = solve_synthesis_coefficients(BiGFrameSystem(pair.lam, pair.gam), f, side)
        assert len(fresh) == len(second)
        assert all(np.array_equal(a, b) for a, b in zip(_flats(second), _flats(fresh)))
        # Each side keeps its own rows, not a view of the complete Q.
        assert second[0].to_flat().base.shape == (2, 10)
    assert lapack_calls["qr"] == 4


def test_a_new_tol_builds_the_null_basis_again(lapack_calls):
    pair = gen_bi_g_frame(
        GenSpec(6, (2, 3, 4), 29, "prescribed_operator"), random_hermitian_pd(6, 29)
    )

    def null_basis(tol):
        return solve_synthesis_coefficients(pair, np.ones(6), "gamma", tol)[1]

    lapack_calls.clear()
    kept = null_basis(1e-9)
    null_basis(1e-9)
    assert lapack_calls["qr"] == 1
    other = null_basis(1e-8)
    null_basis(1e-8)
    assert lapack_calls["qr"] == 2
    again = null_basis(1e-9)
    assert lapack_calls["qr"] == 3
    assert not any(a is b for a, b in zip(kept, other))
    assert all(np.array_equal(a, b) for a, b in zip(_flats(kept), _flats(again)))


def test_swap_and_dual_do_not_share_the_null_bases():
    pair = gen_bi_g_frame(
        GenSpec(6, (3, 3, 2), 31, "prescribed_operator"), random_hermitian_pd(6, 31)
    )

    def null_basis(pair, side):
        return solve_synthesis_coefficients(pair, np.ones(6), side, 1e-9)[1]

    kept = {side: null_basis(pair, side) for side in ("gamma", "lambda")}
    swapped, dual = swap(pair), canonical_pair(pair)
    assert swapped._prepared is None and dual._prepared is None
    # Swapping the families swaps the sides: the same rows, in new sequences.
    mirrored = null_basis(swapped, "gamma")
    assert all(np.array_equal(a, b) for a, b in zip(_flats(mirrored), _flats(kept["lambda"])))
    assert not any(a is b for a, b in zip(mirrored, kept["lambda"]))
    assert _prepare(dual, 1e-9)[2] == {}
    null_basis(dual, "gamma")
    assert pair._prepared[3].keys() == {"gamma", "lambda"}
    for side, basis in kept.items():
        assert all(a is b for a, b in zip(pair._prepared[3][side], basis))


SHIFT_PAIR = BiGFrameSystem(
    GFrameSystem(2, (np.array([[0.0, 1.0], [0.0, 0.0]]),)), GFrameSystem(2, (np.eye(2),))
)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda pair: reconstruct(pair, np.ones(2), 3), ValueError),
        (lambda pair: solve_synthesis_coefficients(pair, np.ones(2), "x"), ValueError),
        (lambda pair: reconstruct(pair, np.ones(3), 1), ShapeMismatch),
        (lambda pair: solve_synthesis_coefficients(pair, np.ones(3), "gamma"), ShapeMismatch),
        (
            lambda pair: coefficient_identity_terms(
                pair, np.ones(3), CoefficientSequence(([5, 7],)), "gamma"
            ),
            ShapeMismatch,
        ),
        (
            lambda pair: coefficient_identity_terms(
                pair, np.ones(2), CoefficientSequence(([5, 7],)), "gamma"
            ),
            ConstraintViolated,
        ),
    ],
)
def test_argument_errors_come_before_the_frame_gate(call, error):
    assert not classify_bi_g_frame(SHIFT_PAIR).is_frame
    with pytest.raises(error) as exc:
        call(SHIFT_PAIR)
    assert not isinstance(exc.value, NotBiGFrame)


def test_cholesky_breakdown_past_the_gate_raises_linalg_error():
    pair = cholesky_breakdown_pair()
    w = np.linalg.eigvalsh(pair.lam.blocks[0])
    assert w[0] > 1e-18 * w[-1]
    with pytest.raises(np.linalg.LinAlgError):
        classify_bi_g_frame(pair, tol=1e-18)


@pytest.mark.parametrize(
    "call",
    [
        lambda pair, tol: reconstruct(pair, np.ones(6), 3, tol),
        lambda pair, tol: solve_synthesis_coefficients(pair, np.ones(6), "both", tol),
        lambda pair, tol: solve_synthesis_coefficients(pair, np.ones(5), "gamma", tol),
        lambda pair, tol: coefficient_identity_terms(
            pair, np.ones(6), CoefficientSequence((np.ones(6),)), "both", tol
        ),
        lambda pair, tol: coefficient_identity_terms(
            pair, np.ones(5), CoefficientSequence((np.ones(6),)), "gamma", tol
        ),
    ],
    ids=["variant", "side", "short", "identity side", "identity short"],
)
def test_preparation_comes_before_the_arguments(call):
    """Each pair function prepares the pair, then checks its arguments, then
    passes the frame gate: a breakdown wins over a bad argument."""
    with pytest.raises(np.linalg.LinAlgError):
        call(cholesky_breakdown_pair(), 1e-18)
