import numpy as np
import pytest

from bgframes import (
    CoefficientSequence,
    GenSpec,
    GFrameSystem,
    ShapeMismatch,
    classify_frame,
    classify_g_frame,
    frame_operator,
    g_analysis,
    g_frame_operator,
    g_synthesis,
    gen_g_frame,
    induced_vectors,
    inner,
    is_g_riesz_basis,
    stacked_analysis_matrix,
)
from conftest import random_complex_vector

IDENTITY_SPLIT = GFrameSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
MIXED = GFrameSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])))


def _random_system(rng, dim=3, block_dims=(1, 2, 2)):
    return GFrameSystem(
        dim,
        tuple(
            rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
            for m in block_dims
        ),
    )


def test_g_synthesis_identity_split():
    c = CoefficientSequence((np.array([1.0]), np.array([1.0])))
    np.testing.assert_allclose(g_synthesis(IDENTITY_SPLIT, c), [1.0, 1.0], atol=1e-15)


def test_g_synthesis_single_identity_block():
    sys = GFrameSystem(2, (np.eye(2),))
    c = CoefficientSequence((np.array([3.0, -4.0]),))
    np.testing.assert_allclose(g_synthesis(sys, c), [3.0, -4.0], atol=1e-15)


def test_g_synthesis_mixed_blocks():
    c = CoefficientSequence((np.array([0.5]), np.array([0.0, 0.5])))
    np.testing.assert_allclose(g_synthesis(MIXED, c), [1.0, 0.0], atol=1e-15)


def test_g_synthesis_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        g_synthesis(MIXED, CoefficientSequence((np.array([1.0, 2.0]),)))


def test_g_analysis_examples():
    sys = GFrameSystem(2, (np.eye(2),))
    f = np.array([2.0, 5.0])
    np.testing.assert_allclose(g_analysis(sys, f).parts[0], f, atol=1e-15)
    parts = g_analysis(IDENTITY_SPLIT, np.array([3.0, 4.0])).parts
    assert parts[0][0] == pytest.approx(3.0) and parts[1][0] == pytest.approx(4.0)


def test_analysis_is_adjoint_of_synthesis():
    rng = np.random.default_rng(43)
    sys = _random_system(rng)
    for _ in range(20):
        f = random_complex_vector(rng, 3)
        c = CoefficientSequence(
            tuple(random_complex_vector(rng, m) for m in sys.block_dims)
        )
        lhs = inner(g_analysis(sys, f).to_flat(), c.to_flat())
        rhs = inner(f, g_synthesis(sys, c))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_g_frame_operator_examples():
    np.testing.assert_allclose(g_frame_operator(IDENTITY_SPLIT), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(g_frame_operator(MIXED), np.diag([2.0, 1.0]), atol=1e-15)
    scaled = GFrameSystem(2, (np.sqrt(2.0) * np.eye(2),))
    np.testing.assert_allclose(g_frame_operator(scaled), 2.0 * np.eye(2), atol=1e-15)
    assert classify_g_frame(scaled).is_tight


def test_synthesis_of_analysis_applies_operator():
    rng = np.random.default_rng(47)
    sys = _random_system(rng)
    s = g_frame_operator(sys)
    for _ in range(10):
        f = random_complex_vector(rng, 3)
        np.testing.assert_allclose(
            g_synthesis(sys, g_analysis(sys, f)), s @ f, atol=1e-12 * np.linalg.norm(s)
        )


def test_classify_g_frame_examples():
    assert classify_g_frame(IDENTITY_SPLIT).is_parseval
    deficient = classify_g_frame(GFrameSystem(2, (np.array([[1.0, 0.0]]),)))
    assert deficient.is_bessel and not deficient.is_frame
    report = classify_g_frame(MIXED)
    assert report.bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert report.bounds.upper == pytest.approx(2.0, abs=1e-12)


def test_induced_vectors_are_conjugated_rows():
    frame = induced_vectors(MIXED)
    expected = [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert len(frame) == 3
    for v, e in zip(frame.vectors, expected):
        np.testing.assert_allclose(v, e, atol=1e-15)
    identity_frame = induced_vectors(GFrameSystem(2, (np.eye(2),)))
    np.testing.assert_allclose(identity_frame.vectors[0], [1.0, 0.0], atol=1e-15)


def test_block_energy_equals_induced_energy():
    rng = np.random.default_rng(53)
    sys = _random_system(rng)
    vecs = induced_vectors(sys)
    for _ in range(20):
        f = random_complex_vector(rng, 3)
        block_energy = sum(
            float(np.vdot(b @ f, b @ f).real) for b in sys.blocks
        )
        induced_energy = sum(abs(inner(f, u)) ** 2 for u in vecs.vectors)
        assert abs(block_energy - induced_energy) <= 1e-10 * max(1.0, block_energy)


def test_g_frame_operator_matches_induced_frame_operator():
    rng = np.random.default_rng(59)
    sys = _random_system(rng)
    direct = g_frame_operator(sys)
    via_vectors = frame_operator(induced_vectors(sys))
    assert np.max(np.abs(direct - via_vectors)) <= 1e-12


def test_classify_matches_induced_classification():
    rng = np.random.default_rng(61)
    sys = _random_system(rng)
    block_report = classify_g_frame(sys)
    vector_report = classify_frame(induced_vectors(sys))
    assert block_report.is_frame == vector_report.is_frame
    assert abs(block_report.bounds.lower - vector_report.bounds.lower) <= 1e-10
    assert abs(block_report.bounds.upper - vector_report.bounds.upper) <= 1e-10


def test_verdicts_invariant_under_block_rotations():
    # Replacing each block by U_j @ block for unitary U_j leaves the
    # operator unchanged, so every verdict and bound must survive.
    rng = np.random.default_rng(67)
    sys = _random_system(rng)
    rotated_blocks = []
    for b in sys.blocks:
        m = b.shape[0]
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        rotated_blocks.append(q @ b)
    rotated = GFrameSystem(sys.dim, tuple(rotated_blocks))
    before = classify_g_frame(sys)
    after = classify_g_frame(rotated)
    assert before.is_frame == after.is_frame
    assert abs(before.bounds.lower - after.bounds.lower) <= 1e-10
    assert abs(before.bounds.upper - after.bounds.upper) <= 1e-10
    assert is_g_riesz_basis(sys) == is_g_riesz_basis(rotated)


def test_gram_rounding_does_not_decide_the_frame_verdict():
    # S = A^H A is Hermitian by construction, but BLAS rounds its two
    # triangles apart at this size: the deviation is reported, not gated on.
    sys = gen_g_frame(GenSpec(7, (3, 5, 2), seed=0))
    report = classify_g_frame(sys, tol=1e-18)
    assert report.hermitian_deviation > 1e-18
    assert report.is_bessel and report.is_frame
    assert report.bounds.lower == pytest.approx(classify_g_frame(sys).bounds.lower, rel=1e-15)
    assert classify_frame(induced_vectors(sys), tol=1e-18).is_frame


def test_g_riesz_examples():
    assert is_g_riesz_basis(IDENTITY_SPLIT)
    assert not is_g_riesz_basis(MIXED)  # total block dimension 3 > 2
    invertible = GFrameSystem(2, (np.array([[1.0, 1.0], [0.0, 1.0]]),))
    assert is_g_riesz_basis(invertible)


def test_stacked_analysis_shape():
    stacked = stacked_analysis_matrix(MIXED)
    assert stacked.shape == (3, 2)
    np.testing.assert_array_equal(stacked[0], MIXED.blocks[0][0])
    # One stored read-only matrix, copied from the input; blocks are views of it.
    assert stacked is stacked_analysis_matrix(MIXED) and not stacked.flags.writeable
    assert all(np.shares_memory(b, stacked) for b in MIXED.blocks)
    source = np.eye(2)
    sys = GFrameSystem(2, (source,))
    source[0, 0] = 5.0
    assert stacked_analysis_matrix(sys)[0, 0] == 1.0


def test_coefficient_sequence_round_trip():
    c = CoefficientSequence((np.array([1.0 + 2j]), np.array([3.0, 4.0])))
    flat = c.to_flat()
    assert not flat.flags.writeable and all(np.shares_memory(p, flat) for p in c.parts)
    back = CoefficientSequence.from_flat(flat, c.block_dims)
    for p, q in zip(c.parts, back.parts):
        np.testing.assert_array_equal(p, q)
    assert c.norm_sq() == pytest.approx(5.0 + 25.0)
    with pytest.raises(ShapeMismatch):
        CoefficientSequence.from_flat(flat, (1, 1))


def test_from_flat_validates_once_and_shares_one_read_only_copy():
    values = np.arange(5.0)
    c = CoefficientSequence.from_flat(values, (2, 3))
    values[0] = 9.0
    assert c.parts[0][0] == 0.0
    assert all(p.dtype == np.complex128 and not p.flags.writeable for p in c.parts)
    with pytest.raises(ValueError):
        c.parts[1][0] = 1.0
    with pytest.raises(ShapeMismatch):
        CoefficientSequence.from_flat(np.ones(3), (0, 3))
    with pytest.raises(ShapeMismatch):
        CoefficientSequence.from_flat(np.ones((1, 3)), (3,))
    with pytest.raises(ValueError):
        CoefficientSequence.from_flat([1.0, np.nan], (1, 1))


def test_system_validation():
    with pytest.raises(ShapeMismatch):
        GFrameSystem(2, ())
    with pytest.raises(ShapeMismatch):
        GFrameSystem(2, (np.ones((1, 3)),))
