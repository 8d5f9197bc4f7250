import numpy as np
import pytest

from bgframes import (
    ControlledSystem,
    NotPositiveDefinite,
    ShapeMismatch,
    VectorFrame,
    canonical_dual,
    canonical_pair,
    check_controlled_duality,
    check_duality,
    classify_biframe,
    classify_controlled,
    classify_frame,
    frame_operator,
    from_vector_biframe,
    inner,
    synthesis_matrix,
)
from conftest import random_complex_vector
from oracles import controlled_verdicts

ORTHO_2 = VectorFrame(2, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
REDUNDANT = VectorFrame(
    2, (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
)


def _operator_by_loops(frame):
    """Oracle: sum of rank-one outer products, scalar by scalar."""
    n = frame.dim
    out = np.zeros((n, n), dtype=complex)
    for v in frame.vectors:
        for i in range(n):
            for k in range(n):
                out[i, k] += v[i] * np.conj(v[k])
    return out


# ---------------------------------------------------------------------------
# synthesis and frame operator


def test_synthesis_stacks_columns():
    np.testing.assert_array_equal(synthesis_matrix(ORTHO_2), np.eye(2))
    np.testing.assert_array_equal(
        synthesis_matrix(REDUNDANT), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    )
    single = VectorFrame(2, (np.array([3.0, 4.0]),))
    np.testing.assert_array_equal(synthesis_matrix(single), np.array([[3.0], [4.0]]))


def test_synthesis_matrix_is_a_read_only_view_of_the_vectors():
    source = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    frame = VectorFrame(2, tuple(source))
    t = synthesis_matrix(frame)
    assert not t.flags.writeable and all(np.shares_memory(v, t) for v in frame.vectors)
    assert not any(np.shares_memory(v, t) for v in source)


def test_frame_operator_examples():
    np.testing.assert_allclose(frame_operator(ORTHO_2), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(frame_operator(REDUNDANT), np.diag([2.0, 1.0]), atol=1e-15)
    half = VectorFrame(2, (np.array([1.0, 1.0]) / np.sqrt(2.0),))
    np.testing.assert_allclose(frame_operator(half), np.full((2, 2), 0.5), atol=1e-15)


def test_frame_operator_matches_synthesis_product_and_oracle():
    rng = np.random.default_rng(17)
    frame = VectorFrame(3, tuple(random_complex_vector(rng, 3) for _ in range(5)))
    t = synthesis_matrix(frame)
    s = frame_operator(frame)
    assert np.max(np.abs(s - t @ t.conj().T)) <= 1e-12
    np.testing.assert_allclose(s, _operator_by_loops(frame), atol=1e-12)


def test_quadratic_form_matches_analysis_energy():
    rng = np.random.default_rng(23)
    frame = VectorFrame(4, tuple(random_complex_vector(rng, 4) for _ in range(6)))
    s = frame_operator(frame)
    for _ in range(100):
        f = random_complex_vector(rng, 4)
        energy = sum(abs(inner(f, v)) ** 2 for v in frame.vectors)
        quad = inner(s @ f, f).real
        assert abs(energy - quad) <= 1e-10 * max(1.0, abs(quad))


# ---------------------------------------------------------------------------
# classification


def test_classify_orthonormal_is_parseval():
    report = classify_frame(ORTHO_2)
    assert report.is_parseval and report.is_tight and report.is_frame and report.is_bessel
    assert report.bounds.lower == pytest.approx(1.0)
    assert report.bounds.upper == pytest.approx(1.0)
    assert report.is_riesz


def test_classify_redundant_frame():
    report = classify_frame(REDUNDANT)
    assert report.is_frame and not report.is_tight and not report.is_riesz
    assert report.bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert report.bounds.upper == pytest.approx(2.0, abs=1e-12)


def test_classify_deficient_span_is_bessel_only():
    report = classify_frame(VectorFrame(2, (np.array([1.0, 0.0]),)))
    assert report.is_bessel and not report.is_frame
    assert report.bounds is None


def test_classify_bounds_sandwich_quadratic_form():
    rng = np.random.default_rng(29)
    frame = VectorFrame(3, tuple(random_complex_vector(rng, 3) for _ in range(5)))
    report = classify_frame(frame)
    s = frame_operator(frame)
    for _ in range(50):
        f = random_complex_vector(rng, 3)
        quad = inner(s @ f, f).real
        norm_sq = float(np.vdot(f, f).real)
        assert report.bounds.lower * norm_sq <= quad * (1.0 + 1e-10)
        assert quad <= report.bounds.upper * norm_sq * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# duals


def test_canonical_dual_of_parseval_is_itself():
    dual = canonical_dual(ORTHO_2)
    for v, w in zip(ORTHO_2.vectors, dual.vectors):
        np.testing.assert_allclose(v, w, atol=1e-14)


def test_canonical_dual_redundant():
    dual = canonical_dual(REDUNDANT)
    expected = [(0.5, 0.0), (0.0, 1.0), (0.5, 0.0)]
    for v, e in zip(dual.vectors, expected):
        np.testing.assert_allclose(v, e, atol=1e-14)
    assert check_duality(REDUNDANT, dual)


def test_canonical_dual_diagonal_scaling():
    # S = diag(4, 1), so the first dual vector is (2, 0) / 4 = (1/2, 0).
    frame = VectorFrame(2, (np.array([2.0, 0.0]), np.array([0.0, 1.0])))
    dual = canonical_dual(frame)
    np.testing.assert_allclose(dual.vectors[0], [0.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(dual.vectors[1], [0.0, 1.0], atol=1e-14)
    assert check_duality(frame, dual)


def test_canonical_dual_is_involution():
    rng = np.random.default_rng(31)
    frame = VectorFrame(3, tuple(random_complex_vector(rng, 3) for _ in range(5)))
    dual = canonical_dual(frame)
    assert check_duality(frame, dual) and check_duality(dual, frame)
    back = canonical_dual(dual)
    for v, w in zip(frame.vectors, back.vectors):
        np.testing.assert_allclose(v, w, atol=1e-10)


def test_canonical_dual_rejects_non_frame():
    with pytest.raises(NotPositiveDefinite):
        canonical_dual(VectorFrame(2, (np.array([1.0, 0.0]),)))


def test_a_refused_gram_pair_reads_the_same_from_dual_and_pair():
    # Frame operator diag(1, 10^-13), not a frame at the default tol: the vector dual
    # and the dual of the Gram pair refuse it with one class and one message.
    small = 10.0**-6.5
    frame = VectorFrame(2, (np.array([1.0, 0.0]), np.array([0.0, small])))
    with pytest.raises(NotPositiveDefinite) as vector:
        canonical_dual(frame)
    with pytest.raises(NotPositiveDefinite) as pair:
        canonical_pair(from_vector_biframe(frame, frame))
    assert type(vector.value) is type(pair.value)
    assert str(vector.value) == str(pair.value)
    assert vector.value.smallest_eigenvalue == pair.value.smallest_eigenvalue == small**2


def test_check_duality_swap_is_not_dual():
    swapped = VectorFrame(2, (np.array([0.0, 1.0]), np.array([1.0, 0.0])))
    assert not check_duality(ORTHO_2, swapped)
    assert check_duality(ORTHO_2, ORTHO_2)


def test_check_duality_reads_tol_as_a_normwise_backward_error():
    # ||op - I||_F is 3.5 tol: within tol * ||F||_F ||G||_F, about 4 tol on C^4,
    # where the former bound tol * ||I||_F was 2 tol.
    tol = 1e-6
    basis = VectorFrame(4, tuple(np.eye(4)))
    for shift, dual in ((3.5 * tol, True), (4.5 * tol, False)):
        near = VectorFrame(4, tuple(np.diag([1.0 + shift, 1.0, 1.0, 1.0])))
        assert check_duality(basis, near, tol) is dual
        controlled = ControlledSystem(basis, np.diag([1.0 + shift, 1.0, 1.0, 1.0]))
        assert check_controlled_duality(controlled, basis, tol) is dual
    # A canonical dual passes; scaled by 1 + 1e-6 it is refused at the default tol.
    rng = np.random.default_rng(8)
    frame = VectorFrame(5, tuple(random_complex_vector(rng, 5) for _ in range(9)))
    dual = canonical_dual(frame)
    assert check_duality(frame, dual)
    assert not check_duality(frame, VectorFrame(5, tuple((1.0 + 1e-6) * dual._rows)))


def test_check_duality_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        check_duality(ORTHO_2, REDUNDANT)


# ---------------------------------------------------------------------------
# controlled systems


def test_controlled_identity_reduces_to_frame():
    sys = ControlledSystem(ORTHO_2, np.eye(2))
    report = classify_controlled(sys)
    assert report.is_parseval
    assert report.bounds.lower == pytest.approx(1.0)


def test_controlled_rescaling_makes_parseval():
    sys = ControlledSystem(REDUNDANT, np.diag([0.5, 1.0]))
    report = classify_controlled(sys)
    assert report.is_parseval


def test_controlled_indefinite_operator_is_rejected():
    swap_op = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = classify_controlled(ControlledSystem(ORTHO_2, swap_op))
    assert report.is_bessel  # the weighted operator is Hermitian
    assert not report.is_frame  # but indefinite: eigenvalues -1 and 1


def test_controlled_operator_equals_weighted_sum():
    rng = np.random.default_rng(37)
    frame = VectorFrame(3, tuple(random_complex_vector(rng, 3) for _ in range(4)))
    c = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    sys = ControlledSystem(frame, c)
    s_c = c @ frame_operator(frame)
    for _ in range(25):
        f = random_complex_vector(rng, 3)
        weighted = sum(
            inner(f, v) * inner(c @ v, f) for v in frame.vectors
        )
        assert abs(weighted - inner(s_c @ f, f)) <= 1e-10 * max(1.0, abs(weighted))


def test_controlled_verdicts_match_the_plain_operator_oracle():
    # The pair (F, C F) rounds C S otherwise than C @ (F F^H): verdicts agree, and
    # bounds within 8 eps of the top. C = I + a S / ||S|| commutes with S, so C S
    # is Hermitian; every fifth C is a random matrix, and F has n - 1 to n + 3 vectors.
    eps = np.finfo(float).eps
    counts = {}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        frame = VectorFrame(
            n, tuple(random_complex_vector(rng, n) for _ in range(n - 1 + seed % 5))
        )
        s = frame_operator(frame)
        c = np.eye(n) + rng.uniform(0.1, 2.0) * s / np.linalg.norm(s)
        if seed % 5 == 4:
            c = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        sys = ControlledSystem(frame, c)
        report = classify_controlled(sys)
        is_bessel, is_frame, lower, upper = controlled_verdicts(sys)
        assert (report.is_bessel, report.is_frame) == (is_bessel, is_frame), seed
        if is_frame:
            assert abs(report.bounds.lower - lower) <= 8 * eps * upper, seed
            assert abs(report.bounds.upper - upper) <= 8 * eps * upper, seed
        counts[is_bessel, is_frame] = counts.get((is_bessel, is_frame), 0) + 1
    assert set(counts) == {(False, False), (True, False), (True, True)}, counts


def test_controlled_rejects_singular_controller():
    # Any square controller is accepted; a singular C makes C S singular.
    sys = ControlledSystem(ORTHO_2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert not classify_controlled(sys).is_frame


def test_controlled_rejects_a_controller_of_the_wrong_shape():
    for controller in (np.ones((2, 3)), np.eye(3)):
        with pytest.raises(ShapeMismatch, match="does not match dimension 2"):
            ControlledSystem(ORTHO_2, controller)


def test_controller_ratio_boundary():
    # C S = diag(1, c): a controlled frame at tol 1e-12 exactly when c > 1e-12.
    for c, is_frame in ((1e-11, True), (1e-13, False)):
        sys = ControlledSystem(ORTHO_2, np.diag([1.0, c]))
        assert classify_controlled(sys, tol=1e-12).is_frame is is_frame
    tiny = ControlledSystem(ORTHO_2, np.diag([1.0, 1e-13]))
    bounds = classify_controlled(tiny, tol=1e-15).bounds
    assert (bounds.lower, bounds.upper) == pytest.approx((1e-13, 1.0), rel=1e-15)


def test_controlled_duality_one_sided():
    # With C = diag(2, 1) and the standard basis, duals (1/2, 0), (0, 1)
    # satisfy f = sum_j <f, g_j> C f_j.
    sys = ControlledSystem(ORTHO_2, np.diag([2.0, 1.0]))
    duals = VectorFrame(2, (np.array([0.5, 0.0]), np.array([0.0, 1.0])))
    assert check_controlled_duality(sys, duals)
    assert not check_controlled_duality(sys, ORTHO_2)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_solvers_gate_where_classify_does_at_1e_12(k):
    # Frame operator diag(1, 10^-2k), exactly 1e-12 at k = 6: classify at tol
    # 1e-12 finds a frame only at k = 5. The dual gates where classify_frame
    # does at the default tol, which finds no frame for any of them.
    frame = VectorFrame(2, (np.array([1.0, 0.0]), np.array([0.0, 10.0**-k])))
    assert classify_frame(frame, tol=1e-12).is_frame == (k == 5)
    assert not classify_frame(frame).is_frame
    with pytest.raises(NotPositiveDefinite):
        canonical_dual(frame)


# ---------------------------------------------------------------------------
# biframes


def test_biframe_of_frame_with_itself_matches_classify():
    rng = np.random.default_rng(41)
    frame = VectorFrame(3, tuple(random_complex_vector(rng, 3) for _ in range(5)))
    single = classify_frame(frame)
    paired = classify_biframe(frame, frame)
    assert paired.is_frame == single.is_frame
    assert abs(paired.bounds.lower - single.bounds.lower) <= 1e-10
    assert abs(paired.bounds.upper - single.bounds.upper) <= 1e-10


def test_biframe_example_bounds():
    g = VectorFrame(2, (np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 0.0])))
    report = classify_biframe(REDUNDANT, g)
    assert report.is_frame
    assert report.bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert report.bounds.upper == pytest.approx(2.0, abs=1e-12)


def test_biframe_nilpotent_pair_rejected():
    f = VectorFrame(2, (np.array([1.0, 0.0]),))
    g = VectorFrame(2, (np.array([0.0, 1.0]),))
    report = classify_biframe(f, g)
    assert not report.is_bessel and not report.is_frame
    assert report.hermitian_deviation > 0.1


# ---------------------------------------------------------------------------
# Riesz bases


def test_riesz_basis_examples():
    assert classify_frame(ORTHO_2).is_riesz
    assert not classify_frame(REDUNDANT).is_riesz  # three vectors in dimension two
    assert classify_frame(VectorFrame(2, (np.array([1.0, 0.0]), np.array([1.0, 1.0])))).is_riesz


def test_riesz_verdict_skips_the_spectrum_of_a_redundant_family(lapack_calls):
    # A family of more than n vectors is no Riesz basis, whatever its spectrum:
    # only the pair or controlled operator's own spectrum is taken. A square
    # pair also classifies each family, one spectrum each.
    controlled = ControlledSystem(REDUNDANT, 2.5 * np.eye(2))
    cases = (
        (lambda: classify_biframe(REDUNDANT, REDUNDANT), 1, False),
        (lambda: classify_biframe(ORTHO_2, ORTHO_2), 3, True),
        (lambda: classify_controlled(controlled), 1, False),
    )
    for classify, spectra, is_riesz in cases:
        lapack_calls.clear()
        report = classify()
        assert report.is_frame and report.is_riesz is is_riesz
        assert lapack_calls == {"eigvalsh": spectra}


def test_vector_frame_validation():
    with pytest.raises(ShapeMismatch):
        VectorFrame(2, ())
    with pytest.raises(ShapeMismatch):
        VectorFrame(2, (np.array([1.0, 0.0, 0.0]),))
    with pytest.raises(ValueError):
        VectorFrame(2, (np.array([np.inf, 0.0]),))
