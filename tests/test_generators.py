import numpy as np
import pytest

from bgframes import (
    GenSpec,
    NotPositiveDefinite,
    ShapeMismatch,
    bi_g_frame_operator,
    classify_bi_g_frame,
    classify_g_frame,
    gen_bi_g_frame,
    gen_g_frame,
    gen_negative,
    g_frame_operator,
    hermitian_deviation,
    random_hermitian_pd,
)
from bgframes.generators import _complex_gaussian, _stream
from oracles import adjoint_identity_check


def test_same_seed_same_output():
    spec = GenSpec(2, (1, 2), seed=7)
    first = gen_g_frame(spec)
    second = gen_g_frame(spec)
    for a, b in zip(first.blocks, second.blocks):
        np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = gen_g_frame(GenSpec(3, (2, 2), seed=1))
    b = gen_g_frame(GenSpec(3, (2, 2), seed=2))
    assert not np.array_equal(a.blocks[0], b.blocks[0])


def test_undersized_shape_is_not_a_frame():
    sys = gen_g_frame(GenSpec(4, (1, 2), seed=5))
    report = classify_g_frame(sys)
    assert report.is_bessel and not report.is_frame


def test_full_shape_is_a_frame():
    sys = gen_g_frame(GenSpec(8, (2,) * 8, seed=5))
    w = np.linalg.eigvalsh(g_frame_operator(sys))
    assert w[0] > 0


def test_gen_spec_validation():
    with pytest.raises(ShapeMismatch):
        GenSpec(0, (1,), seed=0)
    with pytest.raises(ShapeMismatch):
        GenSpec(2, (), seed=0)
    with pytest.raises(ValueError):
        GenSpec(2, (1,), seed=-1)
    with pytest.raises(ValueError):
        GenSpec(2, (1,), seed=0, kind="bogus")
    with pytest.raises(ValueError):
        gen_g_frame(GenSpec(2, (1, 1), seed=0, kind="rank_deficient"))


def test_prescribed_operator_is_hit_exactly():
    target = random_hermitian_pd(5, seed=11)
    pair = gen_bi_g_frame(GenSpec(5, (2, 2, 3), seed=99, kind="prescribed_operator"), target)
    assert np.max(np.abs(bi_g_frame_operator(pair) - target)) <= 1e-10
    report = classify_bi_g_frame(pair)
    w = np.linalg.eigvalsh(target)
    assert abs(report.bounds.lower - w[0]) <= 1e-9
    assert abs(report.bounds.upper - w[-1]) <= 1e-9


def test_prescribed_identity_gives_parseval():
    pair = gen_bi_g_frame(GenSpec(3, (1, 2), seed=4, kind="prescribed_operator"), np.eye(3))
    assert classify_bi_g_frame(pair).is_parseval


def test_prescribed_scalar_target_is_tight():
    pair = gen_bi_g_frame(
        GenSpec(3, (2, 2), seed=6, kind="prescribed_operator"), 3.0 * np.eye(3)
    )
    report = classify_bi_g_frame(pair)
    assert report.is_tight
    assert report.bounds.lower == pytest.approx(3.0, abs=1e-10)


def test_prescribed_square_shapes_stay_accurate():
    # Exactly critical total block dimension is the ill-conditioned case
    # the singular-value floor exists for.
    for seed in range(20):
        target = random_hermitian_pd(8, seed=1000 + seed)
        pair = gen_bi_g_frame(
            GenSpec(8, (4, 4), seed=seed, kind="prescribed_operator"), target
        )
        assert np.max(np.abs(bi_g_frame_operator(pair) - target)) <= 1e-10


def test_prescribed_rejects_bad_targets():
    spec = GenSpec(2, (1, 1), seed=0, kind="prescribed_operator")
    with pytest.raises(NotPositiveDefinite):
        gen_bi_g_frame(spec, np.diag([1.0, -1.0]))
    with pytest.raises(ShapeMismatch):
        gen_bi_g_frame(spec, np.eye(3))
    with pytest.raises(ShapeMismatch):
        gen_bi_g_frame(GenSpec(3, (1, 1), seed=0, kind="prescribed_operator"), np.eye(3))


def test_rank_deficient_is_singular_but_hermitian():
    pair = gen_negative(GenSpec(4, (2, 2), seed=5, kind="rank_deficient"))
    s = bi_g_frame_operator(pair)
    assert hermitian_deviation(s) <= 1e-12
    w = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    assert w[0] <= 1e-12 * w[-1]
    report = classify_bi_g_frame(pair)
    assert report.is_bessel and not report.is_frame


def test_rank_deficient_dimension_one():
    pair = gen_negative(GenSpec(1, (1, 1), seed=3, kind="rank_deficient"))
    assert not classify_bi_g_frame(pair).is_frame


def test_non_hermitian_pair_has_large_deviation():
    for seed in (0, 1, 2, 3):
        pair = gen_negative(GenSpec(3, (1, 2), seed=seed, kind="non_hermitian_pair"))
        assert hermitian_deviation(bi_g_frame_operator(pair)) >= 0.1
        assert not classify_bi_g_frame(pair).is_bessel


def test_non_hermitian_pair_undersized_shape():
    pair = gen_negative(GenSpec(5, (1, 2), seed=9, kind="non_hermitian_pair"))
    assert hermitian_deviation(bi_g_frame_operator(pair)) >= 0.1


def test_negatives_still_satisfy_adjoint_identity():
    rank_def = gen_negative(GenSpec(4, (2, 2), seed=5, kind="rank_deficient"))
    nonherm = gen_negative(GenSpec(4, (2, 2), seed=5, kind="non_hermitian_pair"))
    assert adjoint_identity_check(rank_def)
    assert adjoint_identity_check(nonherm)


def test_random_hermitian_pd_spectrum_in_range():
    p = random_hermitian_pd(6, seed=17, eig_low=0.25, eig_high=4.0)
    assert hermitian_deviation(p) == 0.0
    w = np.linalg.eigvalsh(p)
    assert w[0] >= 0.25 - 1e-12 and w[-1] <= 4.0 + 1e-12


def test_gaussian_stream_moments():
    rng = _stream(42)
    z = _complex_gaussian(rng, 200, 50)
    # CN(0, 1): unit expected square modulus, centered components.
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05
    assert abs(np.mean(z.real)) < 0.05 and abs(np.mean(z.imag)) < 0.05
