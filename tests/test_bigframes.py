import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgframes import (
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
    classify_bi_g_frame,
    classify_biframe,
    coefficient_identity_terms,
    from_vector_biframe,
    g_frame_operator,
    g_synthesis,
    gen_bi_g_frame,
    gen_negative,
    inner,
    lift_to_biframe,
    random_hermitian_pd,
    reconstruct,
    solve_pd,
    solve_synthesis_coefficients,
    stacked_analysis_matrix,
    swap,
)
from bgframes.bigframes import _prepare
from conftest import cholesky_breakdown_pair, gauged_identity_pair, random_complex_vector
from oracles import (
    adjoint_identity_check,
    dual_pair_bessel_check,
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


# ---------------------------------------------------------------------------
# one tolerance, read the same way by every gate


def test_frame_gate_reads_the_callers_tol():
    # S = diag(1, 1e-13): a frame at tol=1e-15, below the solver's 1e-12 default.
    pair = BiGFrameSystem(
        GFrameSystem(2, (np.diag([1.0, 1e-13]),)),
        GFrameSystem(2, (np.eye(2),)),
    )
    report = classify_bi_g_frame(pair, tol=1e-15)
    assert report.is_frame and not report.is_tight
    assert report.bounds.lower == pytest.approx(1e-13, rel=1e-12)
    assert report.bounds.upper == pytest.approx(1.0, rel=1e-12)
    assert report.inverse_norm == pytest.approx(1e13, rel=1e-9)
    assert not classify_bi_g_frame(pair, tol=1e-12).is_frame


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
    """One ``solve_pd`` per block, against S for Lambda and S* for Gamma."""
    op = bi_g_frame_operator(pair)
    lam = [solve_pd(op, b.conj().T).conj().T for b in pair.lam.blocks]
    gam = [solve_pd(op.conj().T, b.conj().T).conj().T for b in pair.gam.blocks]
    return lam, gam


def _reference_reconstruct(pair, f, variant):
    op = bi_g_frame_operator(pair)
    out = np.zeros(pair.dim, dtype=np.complex128)
    if variant == 1:
        y = solve_pd(op, f)
        for lb, gb in zip(pair.lam.blocks, pair.gam.blocks):
            out += gb.conj().T @ (lb @ y)
    else:
        for lb, gb in zip(pair.lam.blocks, pair.gam.blocks):
            out += solve_pd(op.conj().T, gb.conj().T) @ (lb @ f)
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
def test_null_basis_needs_a_bi_g_frame(side):
    rank_deficient = gen_negative(GenSpec(4, (2, 2, 2), 5, "rank_deficient"))
    for pair in (NONHERM, rank_deficient):
        prepared = _prepare(pair, 1e-9)
        with pytest.raises(NotBiGFrame):
            prepared.null_basis(side)
        with pytest.raises(ValueError, match="side must be"):
            prepared.null_basis("both")


def test_one_factorization_per_pair_call(lapack_calls):
    pair = gen_bi_g_frame(
        GenSpec(16, (4,) * 8, 3, "prescribed_operator"), random_hermitian_pd(16, 3)
    )
    f = random_complex_vector(np.random.default_rng(3), 16)
    particular, _ = solve_synthesis_coefficients(pair, f, "gamma")
    calls = [
        lambda: classify_bi_g_frame(pair),
        lambda: canonical_pair(pair),
        lambda: reconstruct(pair, f, 1),
        lambda: reconstruct(pair, f, 2),
        lambda: solve_synthesis_coefficients(pair, f, "gamma"),
        lambda: solve_synthesis_coefficients(pair, f, "lambda"),
        lambda: coefficient_identity_terms(pair, f, particular, "gamma"),
    ]
    for call in calls:
        lapack_calls.clear()
        call()
        assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (1, 1)


def test_no_factorization_for_non_frames(lapack_calls):
    rank_deficient = gen_negative(GenSpec(4, (2, 2, 2), 5, "rank_deficient"))
    lapack_calls.clear()
    assert not classify_bi_g_frame(rank_deficient).is_frame
    assert lapack_calls["cholesky"] == 0
    for pair in (NONHERM, rank_deficient):
        with pytest.raises(NotBiGFrame):
            canonical_pair(pair)
        with pytest.raises(NotBiGFrame):
            reconstruct(pair, np.ones(pair.dim), 2)
    assert lapack_calls["cholesky"] == 0


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
