"""End-to-end acceptance gates for the library's core guarantees.

Each gate prints one PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to watch them scroll by) and asserts, so the whole module doubles as the
release checklist. Instance pools are seeded and therefore identical on
every run.
"""

import subprocess
import sys as _sys
import time

import numpy as np
import pytest

import bgframes as bg
from bgframes.fileio import save_matrix
import oracles
from conftest import package_env, write_pair_file

N_PAIRS = 500
N_INSTANCES = 500
N_NEGATIVES = 120  # half rank-deficient, half non-Hermitian


def _gate(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def _verdicts(report):
    return (report.is_bessel, report.is_frame, report.is_tight, report.is_parseval)


def _random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


# ---------------------------------------------------------------------------
# seeded shape sampling (n <= 16, at most 8 blocks, block rows <= 4)


def _arbitrary_shape(rng):
    n = int(rng.integers(1, 17))
    j = int(rng.integers(1, 9))
    return n, tuple(int(rng.integers(1, 5)) for _ in range(j))


def _frame_shape(rng, square: bool):
    """Shapes that can carry a positive definite pair operator.

    ``square`` forces the total block dimension to equal n (the critical
    case); otherwise it comes out strictly larger.
    """
    n = int(rng.integers(1, 17))
    if square:
        j_lo, j_hi = (n + 3) // 4, min(8, n)
        j = int(rng.integers(j_lo, j_hi + 1))
        dims = [1] * j
        remaining, i = n - j, 0
        while remaining > 0:
            if dims[i % j] < 4:
                dims[i % j] += 1
                remaining -= 1
            i += 1
    else:
        j = int(rng.integers(max(1, (n + 3) // 4), 9))
        dims = [int(rng.integers(1, 5)) for _ in range(j)]
        i = 0
        while sum(dims) < n:
            if dims[i % j] < 4:
                dims[i % j] += 1
            i += 1
        if sum(dims) == n:
            bumpable = next((k for k in range(j) if dims[k] < 4), None)
            if bumpable is None:
                dims.append(1)
            else:
                dims[bumpable] += 1
    return n, tuple(dims)


@pytest.fixture(scope="session")
def arbitrary_pairs():
    """Shape-matched pairs with independent Gaussian families (mostly non-frames)."""
    rng = np.random.default_rng(20260810)
    pairs = []
    for i in range(N_PAIRS):
        n, dims = _arbitrary_shape(rng)
        lam = bg.gen_g_frame(bg.GenSpec(n, dims, seed=1000 + 2 * i))
        gam = bg.gen_g_frame(bg.GenSpec(n, dims, seed=1001 + 2 * i))
        pairs.append(bg.BiGFrameSystem(lam, gam))
    return pairs


@pytest.fixture(scope="session")
def prescribed_instances():
    """Pairs whose operator is a random Hermitian PD target; half the shapes
    have total block dimension exactly n, half strictly larger."""
    rng = np.random.default_rng(777)
    instances = []
    for i in range(N_INSTANCES):
        n, dims = _frame_shape(rng, square=(i % 2 == 0))
        target = bg.random_hermitian_pd(n, seed=5000 + i, eig_low=0.5, eig_high=2.5)
        pair = bg.gen_bi_g_frame(
            bg.GenSpec(n, dims, seed=6000 + i, kind="prescribed_operator"), target
        )
        instances.append((pair, target))
    return instances


@pytest.fixture(scope="session")
def negative_instances():
    rng = np.random.default_rng(4242)
    negatives = []
    for i in range(N_NEGATIVES):
        kind = "rank_deficient" if i % 2 == 0 else "non_hermitian_pair"
        n, dims = _frame_shape(rng, square=False)
        negatives.append(bg.gen_negative(bg.GenSpec(n, dims, seed=7000 + i, kind=kind)))
    return negatives


# ---------------------------------------------------------------------------
# gates


def test_pairing_matches_operator_form(arbitrary_pairs):
    started = time.perf_counter()
    worst = 0.0
    for index, pair in enumerate(arbitrary_pairs):
        operator = bg.bi_g_frame_operator(pair)
        rng = np.random.default_rng(index)
        for _ in range(100):
            f = _random_vector(rng, pair.dim)
            blockwise = oracles.pairing_sum(pair, f)
            quadratic = bg.inner(operator @ f, f)
            difference = abs(blockwise - quadratic)
            scale = max(abs(blockwise), abs(quadratic))
            if difference:
                worst = max(worst, difference / scale)
    elapsed = time.perf_counter() - started
    _gate(
        "pairing-vs-operator",
        worst <= 1e-12 and elapsed < 10.0,
        f"worst rel {worst:.2e}, {elapsed:.2f}s over {N_PAIRS}x100 probes",
    )


def test_operator_construction_and_inverse_bound(arbitrary_pairs, prescribed_instances):
    worst_target = 0.0
    worst_inverse = -np.inf
    worst_swap = 0.0
    adjoint_ok = True
    for pair, target in prescribed_instances:
        worst_target = max(
            worst_target, float(np.max(np.abs(bg.bi_g_frame_operator(pair) - target)))
        )
        adjoint_ok = adjoint_ok and oracles.adjoint_identity_check(pair, tol=1e-12)
        report = bg.classify_bi_g_frame(pair)
        worst_inverse = max(worst_inverse, report.inverse_norm - 1.0 / report.bounds.lower)
        swapped = bg.classify_bi_g_frame(bg.swap(pair))
        worst_swap = max(
            worst_swap,
            abs(report.bounds.lower - swapped.bounds.lower),
            abs(report.bounds.upper - swapped.bounds.upper),
        )
    for pair in arbitrary_pairs:
        adjoint_ok = adjoint_ok and oracles.adjoint_identity_check(pair, tol=1e-12)
    ok = (
        worst_target <= 1e-10
        and adjoint_ok
        and worst_inverse <= 1e-9
        and worst_swap <= 1e-10
    )
    _gate(
        "operator-properties",
        ok,
        f"|S-P| {worst_target:.2e}, inverse slack {worst_inverse:.2e}, "
        f"swap dev {worst_swap:.2e}",
    )


def test_reconstruction_residuals(prescribed_instances):
    worst = 0.0
    for index, (pair, _) in enumerate(prescribed_instances):
        rng = np.random.default_rng(index)
        for _ in range(20):
            f = _random_vector(rng, pair.dim)
            for variant in (1, 2):
                rebuilt = bg.reconstruct(pair, f, variant)
                worst = max(
                    worst, float(np.linalg.norm(rebuilt - f) / np.linalg.norm(f))
                )
    _gate("reconstruction", worst <= 1e-9, f"worst rel residual {worst:.2e}")


def test_dual_bound_cap(prescribed_instances):
    worst_gap = -np.inf
    probes_ok = True
    for pair, _ in prescribed_instances:
        report = bg.classify_bi_g_frame(pair)
        bound, ok = oracles.dual_pair_bessel_check(pair, trials=3)
        probes_ok = probes_ok and ok
        worst_gap = max(worst_gap, bound - 1.0 / report.bounds.lower)

    worst_tight = 0.0
    for k in range(40):
        n = 2 + (k % 8)
        level = 0.25 * (1 + k % 7)
        pair = bg.gen_bi_g_frame(
            bg.GenSpec(n, (max(1, n - 2), 2), seed=9000 + k, kind="prescribed_operator"),
            level * np.eye(n),
        )
        bound, ok = oracles.dual_pair_bessel_check(pair, trials=3)
        probes_ok = probes_ok and ok
        worst_tight = max(worst_tight, abs(bound - 1.0 / level) / max(1.0, 1.0 / level))
    ok = probes_ok and worst_gap <= 1e-9 and worst_tight <= 1e-9
    _gate(
        "dual-bessel-bound",
        ok,
        f"cap slack {worst_gap:.2e}, tight equality dev {worst_tight:.2e}",
    )


def test_coefficient_identity_holds(prescribed_instances):
    worst = 0.0
    for index, (pair, _) in enumerate(prescribed_instances[:200]):
        rng = np.random.default_rng(10_000 + index)
        f = _random_vector(rng, pair.dim)
        for side in ("gamma", "lambda"):
            particular, nullbasis = bg.solve_synthesis_coefficients(pair, f, side)
            lhs, rhs = bg.coefficient_identity_terms(pair, f, particular, side)
            worst = max(worst, abs(lhs - rhs))
            for _ in range(20):
                parts = [np.array(p) for p in particular.parts]
                for basis_vec in nullbasis:
                    coeff = complex(rng.standard_normal() + 1j * rng.standard_normal())
                    for i, extra in enumerate(basis_vec.parts):
                        parts[i] = parts[i] + coeff * extra
                candidate = bg.CoefficientSequence(tuple(parts))
                lhs, rhs = bg.coefficient_identity_terms(pair, f, candidate, side)
                worst = max(worst, abs(lhs - rhs))
    _gate("coefficient-identity", worst <= 1e-8, f"worst |lhs-rhs| {worst:.2e}")


def test_lift_equivalence(prescribed_instances, negative_instances):
    worst_bounds = 0.0
    verdicts_ok = True
    for pair, _ in prescribed_instances:
        pair_report = bg.classify_bi_g_frame(pair)
        lift_report = bg.classify_biframe(*bg.lift_to_biframe(pair))
        verdicts_ok = verdicts_ok and _verdicts(pair_report) == _verdicts(lift_report)
        worst_bounds = max(
            worst_bounds,
            abs(pair_report.bounds.lower - lift_report.bounds.lower),
            abs(pair_report.bounds.upper - lift_report.bounds.upper),
        )
    negatives_ok = True
    for pair in negative_instances:
        pair_report = bg.classify_bi_g_frame(pair)
        lift_report = bg.classify_biframe(*bg.lift_to_biframe(pair))
        negatives_ok = negatives_ok and not pair_report.is_frame
        negatives_ok = negatives_ok and not lift_report.is_frame
        verdicts_ok = verdicts_ok and _verdicts(pair_report) == _verdicts(lift_report)
    ok = verdicts_ok and negatives_ok and worst_bounds <= 1e-10
    _gate(
        "lift-equivalence",
        ok,
        f"bound dev {worst_bounds:.2e} over {N_INSTANCES}+{N_NEGATIVES} instances",
    )


def test_riesz_status_transfer(prescribed_instances):
    exceptions = 0
    square_count = 0
    for pair, _ in prescribed_instances:
        if not oracles.riesz_transfer_check(pair):
            exceptions += 1
        if bg.is_g_riesz_basis(pair.lam) != bg.is_g_riesz_basis(pair.gam):
            exceptions += 1
        if pair.lam.total_block_dim == pair.dim:
            square_count += 1
    ok = exceptions == 0 and 0 < square_count < N_INSTANCES
    _gate(
        "riesz-transfer",
        ok,
        f"{exceptions} exceptions, {square_count}/{N_INSTANCES} critical shapes",
    )


def test_golden_instance(instance_a):
    report = bg.classify_bi_g_frame(instance_a)
    bounds_ok = (
        report.is_frame
        and abs(report.bounds.lower - 1.0) <= 1e-12
        and abs(report.bounds.upper - 2.0) <= 1e-12
    )

    dual = bg.canonical_pair(instance_a)
    expected_lam = ([[0.5, 0.0]], [[0.0, 1.0], [0.5, 0.0]])
    expected_gam = ([[1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]])
    duals_ok = all(
        np.max(np.abs(block - np.asarray(expected))) <= 1e-12
        for block, expected in list(zip(dual.lam.blocks, expected_lam))
        + list(zip(dual.gam.blocks, expected_gam))
    )

    f = np.array([1.0, 0.0])
    particular, _ = bg.solve_synthesis_coefficients(instance_a, f, "gamma")
    lhs, rhs = bg.coefficient_identity_terms(instance_a, f, particular, "gamma")
    identity_ok = abs(lhs - 0.5) <= 1e-12 and abs(rhs - 0.5) <= 1e-12

    ok = bounds_ok and duals_ok and identity_ok
    _gate(
        "golden-instance",
        ok,
        f"bounds ({report.bounds.lower:.1f}, {report.bounds.upper:.1f}), "
        f"identity {lhs:.3f} = {rhs.real:.3f}",
    )


def test_cli_round_trip(tmp_path, instance_a):
    env = package_env()

    def run_pipeline(workdir):
        workdir.mkdir()
        save_matrix(workdir / "P.json", bg.random_hermitian_pd(3, seed=21))
        steps = [
            ["gen", "--dim", "3", "--dims", "1,2,2", "--seed", "42",
             "--target-op", "P.json", "--out", "inst.json"],
            ["check", "inst.json", "--pair", "L,G"],
            ["dual", "inst.json", "--pair", "L,G", "--out", "dual.json"],
            ["reconstruct", "dual.json", "--pair", "L,G", "--vector", "e1",
             "--variant", "1"],
            ["reconstruct", "dual.json", "--pair", "L~,G~", "--vector", "e1",
             "--variant", "2"],
        ]
        transcript = b""
        for step in steps:
            proc = subprocess.run(
                [_sys.executable, "-m", "bgframes.cli"] + step,
                cwd=workdir,
                env=env,
                capture_output=True,
            )
            assert proc.returncode == 0, (step, proc.stderr.decode())
            transcript += proc.stdout
        return transcript, (workdir / "inst.json").read_bytes(), (
            workdir / "dual.json"
        ).read_bytes()

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    deterministic = first == second

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1", "dim": }')
    proc = subprocess.run(
        [_sys.executable, "-m", "bgframes.cli", "check", str(bad), "--pair", "L,G"],
        env=env,
        capture_output=True,
    )
    malformed_ok = proc.returncode == 2

    ok = deterministic and malformed_ok
    _gate(
        "cli-round-trip",
        ok,
        f"byte-identical={deterministic}, malformed exit={proc.returncode}",
    )
