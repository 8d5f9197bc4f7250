import builtins
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgframes import (
    BiGFrameSystem,
    GenSpec,
    GFrameSystem,
    gen_bi_g_frame,
    gen_negative,
    random_hermitian_pd,
)
from bgframes.cli import entrypoint, main
from bgframes.kernel import CholeskyFactor
from bgframes.fileio import (
    FrameFile,
    dumps_json,
    frame_file_doc,
    load_frame_file,
    save_frame_file,
    save_matrix,
)
from conftest import (
    cholesky_breakdown_pair,
    gauged_identity_pair,
    package_env,
    random_complex_vector,
    rescaled_pair,
    subnormal_edge_pair,
    write_pair_file,
)


@pytest.fixture
def instance_a_file(tmp_path, instance_a):
    path = tmp_path / "instance_a.json"
    write_pair_file(path, instance_a)
    return str(path)


@pytest.fixture
def nonherm_file(tmp_path):
    pair = BiGFrameSystem(
        GFrameSystem(2, (np.array([[1.0, 0.0]]),)),
        GFrameSystem(2, (np.array([[0.0, 1.0]]),)),
    )
    path = tmp_path / "nonherm.json"
    write_pair_file(path, pair)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check / bounds / gcheck


def test_check_instance_a(capsys, instance_a_file):
    code, out, _ = run_cli(capsys, "check", instance_a_file, "--pair", "L,G")
    assert code == 0
    assert '"is_frame": true' in out
    assert '"lower": 1' in out and '"upper": 2' in out


def test_check_reports_negative(capsys, nonherm_file):
    code, out, _ = run_cli(capsys, "check", nonherm_file, "--pair", "L,G")
    assert code == 1
    assert '"is_frame": false' in out
    assert '"hermitian_deviation"' in out
    assert '"bounds"' not in out


def test_bounds_alias(capsys, instance_a_file):
    code, out, _ = run_cli(capsys, "bounds", instance_a_file, "--pair", "L,G")
    assert code == 0
    assert '"command": "bounds"' in out
    assert '"verdicts"' not in out
    assert '"bounds"' in out


def test_gcheck(capsys, instance_a_file):
    code, out, _ = run_cli(capsys, "gcheck", instance_a_file, "--system", "L")
    assert code == 0
    assert '"is_riesz": false' in out


def test_gcheck_riesz_implies_frame(capsys, tmp_path):
    thin = GFrameSystem(2, (np.diag([1.0, 1e-5]),))
    path = tmp_path / "thin.json"
    write_pair_file(path, BiGFrameSystem(thin, thin))
    code, out, _ = run_cli(capsys, "gcheck", str(path), "--system", "L")
    verdicts = json.loads(out)["verdicts"]
    assert code == 1
    assert (verdicts["is_frame"], verdicts["is_riesz"]) == (False, False)


def test_missing_system_is_input_error(capsys, instance_a_file):
    code, _, err = run_cli(capsys, "check", instance_a_file, "--pair", "L,missing")
    assert code == 2
    assert "missing" in err


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1", "dim": }')
    code, _, err = run_cli(capsys, "check", str(bad), "--pair", "L,G")
    assert code == 2
    assert "line 1" in err


def test_schema_violation_diagnoses_field(capsys, tmp_path):
    bad = tmp_path / "bad_block.json"
    bad.write_text(
        '{"schema_version": "1", "dim": 2, "field": "complex", "systems": '
        '{"L": {"blocks": [{"rows": 1, "entries_re": [1.0], "entries_im": [0.0, 0.0]}]}}}'
    )
    code, _, err = run_cli(capsys, "check", str(bad), "--pair", "L,L")
    assert code == 2
    assert "entries_re" in err and "blocks[0]" in err


def test_nonexistent_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.json"), "--pair", "L,G")
    assert code == 2


def test_duplicate_system_names_rejected(capsys, tmp_path):
    block = '{"rows": 1, "entries_re": [1.0, 0.0], "entries_im": [0.0, 0.0]}'
    doc = (
        '{"schema_version": "1", "dim": 2, "field": "complex", "systems": '
        f'{{"L": {{"blocks": [{block}]}}, "L": {{"blocks": [{block}]}}}}}}'
    )
    dup = tmp_path / "dup.json"
    dup.write_text(doc)
    code, _, err = run_cli(capsys, "check", str(dup), "--pair", "L,L")
    assert code == 2
    assert "duplicate" in err


def test_huge_integer_entry_is_input_error(capsys, tmp_path, instance_a_file):
    doc = json.loads(Path(instance_a_file).read_text(encoding="utf-8"))
    doc["systems"]["L"]["blocks"][0]["entries_re"][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", str(path), "--pair", "L,G")
    assert code == 2
    assert out == ""
    assert "entries_re: entries must be finite" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_float_entry_is_input_error(capsys, tmp_path, instance_a_file, literal):
    text = Path(instance_a_file).read_text(encoding="utf-8")
    first = json.loads(text)["systems"]["L"]["blocks"][0]["entries_re"][0]
    path = tmp_path / "nonfinite.json"
    path.write_text(text.replace(f'"entries_re": [{first!r}', f'"entries_re": [{literal}', 1))
    code, out, err = run_cli(capsys, "check", str(path), "--pair", "L,G")
    assert code == 2
    assert out == ""
    assert "entries_re: entries must be finite" in err


def test_deeply_nested_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "check", str(path), "--pair", "L,G")
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


def test_tol_env_variable_is_ignored(capsys, monkeypatch, instance_a_file):
    # The tolerance has one source, --tol: the caller's environment leaves stdout alone.
    plain = run_cli(capsys, "check", instance_a_file, "--pair", "L,G")[:2]
    for value in ("not-a-number", "1e-6"):
        monkeypatch.setenv("BGF_TOL", value)
        assert run_cli(capsys, "check", instance_a_file, "--pair", "L,G")[:2] == plain


def test_check_small_tol_gives_a_verdict(capsys, tmp_path):
    # S = diag(1, 1e-13) is a frame at --tol 1e-15 but not at 1e-12.
    pair = BiGFrameSystem(
        GFrameSystem(2, (np.diag([1.0, 1e-13]),)),
        GFrameSystem(2, (np.eye(2),)),
    )
    path = tmp_path / "thin.json"
    write_pair_file(path, pair)
    code, out, err = run_cli(capsys, "check", str(path), "--pair", "L,G", "--tol", "1e-15")
    assert code == 0
    assert '"is_frame": true' in out
    assert "Traceback" not in err


def test_gram_rounding_does_not_decide_gcheck(capsys, tmp_path):
    # L^H L is Hermitian by construction, but BLAS rounds its two triangles
    # apart here (deviation ~6e-17), which must not decide a --tol 1e-18 verdict.
    path = str(tmp_path / "g7.json")
    code, _, _ = run_cli(
        capsys, "gen", "--dim", "7", "--dims", "3,5,2", "--seed", "0", "--out", path
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "gcheck", path, "--system", "L", "--tol", "1e-18")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdicts"]["is_frame"] and doc["hermitian_deviation"] > 1e-18


def test_cholesky_breakdown_is_a_numerical_failure(capsys, tmp_path):
    path = tmp_path / "breakdown.json"
    write_pair_file(path, cholesky_breakdown_pair())
    code, out, err = run_cli(capsys, "check", str(path), "--pair", "L,G", "--tol", "1e-18")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["bounds"],
        ["dual", "--out", "OUT"],
        ["reconstruct", "--vector", "e1", "--variant", "1"],
        ["identity", "--vector", "e1"],
        ["lift", "--out", "OUT"],
    ],
    ids=lambda argv: "-".join(a for a in argv if a != "OUT" and not a.startswith("--")),
)
def test_an_inverse_beyond_the_double_range_is_a_numerical_failure(capsys, tmp_path, argv):
    # H^-1 = diag(1, 1e310) is beyond the double range: a numerical failure, not an input error.
    path = tmp_path / "subnormal.json"
    write_pair_file(path, subnormal_edge_pair())
    out_path = tmp_path / "out.json"
    argv = [str(out_path) if a == "OUT" else a for a in argv]
    code, out, err = run_cli(
        capsys, argv[0], str(path), "--pair", "L,G", *argv[1:], "--tol", "1e-320"
    )
    assert code == 3
    assert out == ""
    assert "numerical failure" in err and "smallest eigenvalue 1.000000e-310" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out_path.exists()


def test_gcheck_at_a_subnormal_lower_bound_is_a_numerical_failure(capsys, tmp_path):
    # A single family is the pair (Lambda, Lambda): S = diag(1, 1e-310), whose
    # inverse norm is beyond the double range, as for the pair above.
    path = tmp_path / "thin.json"
    family = GFrameSystem(2, (np.diag([1.0, 1e-155]),))
    save_frame_file(path, FrameFile(dim=2, systems={"L": family}, vectors={}))
    code, out, err = run_cli(capsys, "gcheck", str(path), "--system", "L", "--tol", "1e-320")
    assert code == 3
    assert out == ""
    assert "numerical failure: H^-1 overflows: smallest eigenvalue" in err
    assert "Traceback" not in err and "Warning" not in err


def test_an_overflowing_operator_is_a_numerical_failure(tmp_path):
    # Both families of the (7; 3,5,2) pair scaled by 2^520: S, and the first family's
    # own operator, overflow. The input is valid, so this is not an input error (exit 2).
    pair = gen_bi_g_frame(
        GenSpec(7, (3, 5, 2), 4, "prescribed_operator"), random_hermitian_pd(7, seed=9)
    )
    path = tmp_path / "scaled.json"
    write_pair_file(path, rescaled_pair(pair, 2.0**520))
    for argv in (["check", str(path), "--pair", "L,G"], ["gcheck", str(path), "--system", "L"]):
        proc = subprocess.run([sys.executable, "-m", "bgframes.cli", *argv], capture_output=True,
                              text=True, env=package_env(), timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "numerical failure: pair operator overflows" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_undecodable_input_names_its_path(capsys, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    gen = ["gen", "--dim", "2", "--dims", "1,2", "--seed", "3", "--out", str(tmp_path / "x.json")]
    for argv in (["check", str(bad), "--pair", "L,G"], [*gen, "--target-op", str(bad)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: cannot decode file as UTF-8: ")


def test_byte_order_mark_is_accepted(capsys, tmp_path, instance_a_file):
    data = b"\xef\xbb\xbf" + Path(instance_a_file).read_bytes()
    bom = tmp_path / "bom.json"
    bom.write_bytes(data)
    code, out, _ = run_cli(capsys, "check", str(bom), "--pair", "L,G")
    assert code == 0
    plain = run_cli(capsys, "check", instance_a_file, "--pair", "L,G")[1]
    doc, plain_doc = json.loads(out), json.loads(plain)
    assert doc["input_sha256"] == hashlib.sha256(data).hexdigest()
    assert doc["verdicts"] == plain_doc["verdicts"] and doc["bounds"] == plain_doc["bounds"]


def test_bad_tol_flag(capsys, instance_a_file):
    code, _, _ = run_cli(capsys, "check", instance_a_file, "--pair", "L,G", "--tol", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "FILE", "--pair", "L"],
        ["gen", "--dim", "3", "--dims", "1,x", "--seed", "1", "--out", "OUT"],
        ["gen", "--dim", "3", "--dims", "0", "--seed", "1", "--out", "OUT"],
        ["gen", "--dim", "3", "--dims", "1,,2", "--seed", "1", "--out", "OUT"],
        ["gen", "--dim", "3", "--dims", "2,2", "--seed", "1", "--kind", "rank_deficient",
         "--target-op", "TARGET", "--out", "OUT"],
        # The default kind's name, given in-process, is the same object as the constant.
        ["gen", "--dim", "3", "--dims", "2,2", "--seed", "1", "--kind", "random_g_frame",
         "--target-op", "TARGET", "--out", "OUT"],
    ],
    ids=["pair-L", "dims-1,x", "dims-0", "dims-1,,2", "kind-and-target-op",
         "default-kind-and-target-op"],
)
def test_malformed_flag_values_exit_2(capsys, tmp_path, instance_a_file, argv):
    out_path, target = tmp_path / "out.json", tmp_path / "P.json"
    save_matrix(target, random_hermitian_pd(3, seed=9))
    names = {"FILE": instance_a_file, "OUT": str(out_path), "TARGET": str(target)}
    argv = [names.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "target,message",
    [
        ({"rows": 0, "entries_re": [1.0], "entries_im": [0.0]}, "rows: expected a positive integer"),
        ({"rows": 2, "entries_re": [1.0, 2.0, 3.0], "entries_im": [0.0] * 3},
         "expected a nonempty array divisible by rows=2"),
        # diag(1, 1, 1e-10) is not positive definite at the default tol 1e-9.
        ({"rows": 3, "entries_re": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1e-10], "entries_im": [0.0] * 9},
         "not positive definite"),
    ],
    ids=["rows-0", "not-divisible", "condition-1e10"],
)
def test_malformed_target_operator_is_input_error(capsys, tmp_path, target, message):
    path = tmp_path / "P.json"
    path.write_text(json.dumps(target))
    out_path = tmp_path / "p.json"
    code, out, err = run_cli(capsys, "gen", "--dim", "3", "--dims", "1,2", "--seed", "1",
                             "--target-op", str(path), "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert message in err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# dual / reconstruct / lift / identity


def test_dual_writes_systems(capsys, tmp_path, instance_a_file):
    out_path = str(tmp_path / "dualized.json")
    code, out, _ = run_cli(
        capsys, "dual", instance_a_file, "--pair", "L,G", "--out", out_path
    )
    assert code == 0
    written = load_frame_file(out_path)
    assert set(written.systems) == {"L", "G", "L~", "G~"}
    np.testing.assert_allclose(written.systems["L~"].blocks[0], [[0.5, 0.0]], atol=1e-12)


@pytest.mark.parametrize("command, suffix", [("dual", "~"), ("lift", "_lifted")])
def test_a_family_paired_with_itself_is_written_once(capsys, tmp_path, instance_a_file,
                                                    command, suffix):
    out_path = str(tmp_path / "self.json")
    code, out, _ = run_cli(capsys, command, instance_a_file, "--pair", "L,L", "--out", out_path)
    assert code == 0
    assert json.loads(out)["written"] == [f"L{suffix}"]
    loaded = load_frame_file(out_path)
    assert f"L{suffix}" in (loaded.systems if command == "dual" else loaded.vectors)


def test_dual_on_negative_writes_nothing(capsys, tmp_path, nonherm_file):
    out_path = tmp_path / "never.json"
    code, _, _ = run_cli(capsys, "dual", nonherm_file, "--pair", "L,G", "--out", str(out_path))
    assert code == 1
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["dual", "gen"])
def test_unwritable_out_is_input_error(capsys, tmp_path, instance_a_file, command):
    out_path = str(tmp_path / "missing" / "out.json")
    if command == "dual":
        argv = ["dual", instance_a_file, "--pair", "L,G", "--out", out_path]
    else:
        argv = ["gen", "--dim", "2", "--dims", "1,2", "--seed", "3", "--out", out_path]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_reconstruct_both_variants(capsys, instance_a_file):
    for variant in ("1", "2"):
        code, out, _ = run_cli(
            capsys,
            "reconstruct",
            instance_a_file,
            "--pair", "L,G",
            "--vector", "e1",
            "--variant", variant,
        )
        assert code == 0
        assert '"ok": true' in out


def test_reconstruct_negative_exits_one(capsys, nonherm_file):
    code, _, _ = run_cli(
        capsys, "reconstruct", nonherm_file,
        "--pair", "L,G", "--vector", "e1", "--variant", "1",
    )
    assert code == 1


def test_reconstruct_missing_vector(capsys, instance_a_file):
    code, _, err = run_cli(
        capsys, "reconstruct", instance_a_file,
        "--pair", "L,G", "--vector", "nope", "--variant", "1",
    )
    assert code == 2
    assert "nope" in err


def test_lift_writes_vector_lists(capsys, tmp_path, instance_a_file):
    out_path = str(tmp_path / "lifted.json")
    code, out, _ = run_cli(capsys, "lift", instance_a_file, "--pair", "L,G", "--out", out_path)
    assert code == 0
    assert '"verdicts_agree": true' in out
    written = load_frame_file(out_path)
    assert "L_lifted" in written.vectors and "G_lifted" in written.vectors
    assert len(written.vectors["L_lifted"]) == 3
    np.testing.assert_allclose(written.vectors["G_lifted"][0], [2.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("command", ["dual", "lift"])
def test_out_over_the_input_reports_the_input_hash(capsys, instance_a_file, command):
    original = hashlib.sha256(Path(instance_a_file).read_bytes()).hexdigest()
    code, out, _ = run_cli(
        capsys, command, instance_a_file, "--pair", "L,G", "--out", instance_a_file
    )
    assert code == 0
    assert json.loads(out)["input_sha256"] == original
    assert hashlib.sha256(Path(instance_a_file).read_bytes()).hexdigest() != original


def test_identity_command(capsys, instance_a_file):
    code, out, _ = run_cli(
        capsys, "identity", instance_a_file,
        "--pair", "L,G", "--vector", "e1", "--perturb", "4",
    )
    assert code == 0
    assert '"lhs": 0.5' in out
    assert '"ok": true' in out


def test_identity_on_a_gauged_identity_pair(capsys, tmp_path):
    path = tmp_path / "gauged.json"
    write_pair_file(path, gauged_identity_pair())
    code, out, _ = run_cli(
        capsys, "identity", str(path), "--pair", "L,G", "--vector", "e1", "--perturb", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["kernel_dim"] for r in doc["results"]] == [2, 2]
    assert doc["ok"]


def test_identity_negative_exits_one(capsys, nonherm_file):
    code, _, _ = run_cli(
        capsys, "identity", nonherm_file, "--pair", "L,G", "--vector", "e1"
    )
    assert code == 1


def test_identity_rejects_negative_perturb(capsys, instance_a_file):
    with pytest.raises(SystemExit) as exc:
        main(["identity", instance_a_file, "--pair", "L,G", "--vector", "e1", "--perturb", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err


def test_identity_accepts_its_own_coefficients_at_a_tight_tol(capsys, tmp_path):
    """The command's own perturbed coefficients synthesize the vector up to
    rounding of the order eps ||Lambda||_F ||g||, here about 5e-13 at
    ``--tol 1e-15``. The gate reads that residual as a backward error, so it
    passes; an absolute gate ``tol (1 + ||f||)`` refused it (exit 3)."""
    rng = np.random.default_rng(0)
    blocks = tuple(1e3 * (rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4)))
                   for m in (2, 3, 2))
    lam = GFrameSystem(4, blocks)
    path = tmp_path / "scaled.json"
    write_pair_file(path, BiGFrameSystem(lam, lam))
    argv = ["identity", str(path), "--pair", "L,G", "--vector", "e1", "--perturb", "2"]
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-15")
    assert code == 0 and json.loads(out)["ok"]
    assert "numerical failure" not in err
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("seed", [0, 21])
def test_identity_refusing_its_own_coefficients_is_a_numerical_failure(capsys, tmp_path, seed):
    # At --tol 1e-16 the command's own coefficients on these Gram pairs miss the
    # residual gate: a numerical failure (exit 3), reported by main.
    path = str(tmp_path / "g.json")
    gen = ["--dim", "7", "--dims", "3,5,2", "--seed", str(seed), "--out", path]
    assert run_cli(capsys, "gen", *gen)[0] == 0
    code, out, err = run_cli(capsys, "identity", path, "--pair", "L,L", "--vector", "e1",
                             "--perturb", "2", "--tol", "1e-16")
    assert code == 3
    assert out == ""
    assert "numerical failure: coefficients do not synthesize the vector" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [10, 11])
def test_identity_of_a_prescribed_pair_at_a_tight_tol_succeeds(capsys, tmp_path, seed):
    # Prescribed (7; 3,5,2) pairs whose own second draw on the lambda side missed
    # the absolute gate at --tol 1e-15 (exit 3, "numerical failure").
    target = tmp_path / "P.json"
    save_matrix(target, random_hermitian_pd(7, seed=9))
    path = str(tmp_path / "p.json")
    gen = ["--dim", "7", "--dims", "3,5,2", "--seed", str(seed), "--target-op", str(target)]
    assert run_cli(capsys, "gen", *gen, "--out", path)[0] == 0
    for side in ("lambda", "both"):
        code, out, err = run_cli(
            capsys, "identity", path, "--pair", "L,G", "--vector", "e1", "--perturb", "2",
            "--side", side, "--tol", "1e-15",
        )
        assert code == 0 and json.loads(out)["ok"]
        assert "numerical failure" not in err


@pytest.mark.parametrize("variant", ["1", "2"])
@pytest.mark.parametrize("seed", [4, 21])
def test_reconstruct_missing_its_rounding_bound_is_a_numerical_failure(
    capsys, tmp_path, seed, variant
):
    # At --tol 1e-18 the residual of e1 on these Gram pairs is above its rounding
    # bound: the report still goes to stdout, and main prints the exit 3.
    path = str(tmp_path / "g.json")
    gen = ["--dim", "7", "--dims", "3,5,2", "--seed", str(seed), "--out", path]
    assert run_cli(capsys, "gen", *gen)[0] == 0
    code, out, err = run_cli(capsys, "reconstruct", path, "--pair", "L,L", "--vector", "e1",
                             "--variant", variant, "--tol", "1e-18")
    assert code == 3
    assert json.loads(out)["ok"] is False
    assert "numerical failure: residual" in err
    assert "Traceback" not in err


def _prescribed_file(tmp_path, name, vector):
    """The prescribed (7; 3,5,2) pair, seed 4, target seed 9, with ``vector`` as e1."""
    pair = gen_bi_g_frame(
        GenSpec(7, (3, 5, 2), 4, "prescribed_operator"), random_hermitian_pd(7, seed=9)
    )
    path = tmp_path / name
    write_pair_file(path, pair, vectors={"e1": [vector]})
    return str(path)


@pytest.mark.parametrize("variant", ["1", "2"])
@pytest.mark.parametrize("k", [-565, 530, 665, 1000])
def test_reconstruct_residual_is_scale_safe(capsys, tmp_path, k, variant):
    # Both norms of e1 * 2^k are taken after one exact scale by its peak, so its
    # residual is e1's, bitwise. Unscaled, they under- or overflowed: [0] at
    # 2^-565 and 2^530, and a non-finite residual (exit 2) from 2^665.
    e1 = np.eye(7, dtype=np.complex128)[0]
    residuals = []
    for name, vector in (("unscaled.json", e1), ("scaled.json", 2.0**k * e1)):
        path = _prescribed_file(tmp_path, name, vector)
        code, out, err = run_cli(capsys, "reconstruct", path, "--pair", "L,G", "--vector", "e1",
                                 "--variant", variant)
        assert code == 0, err
        residuals.append(json.loads(out)["residuals"])
    assert residuals[1] == residuals[0] and residuals[0][0] > 0


def test_identity_of_an_overflowing_coefficient_norm_is_a_numerical_failure(capsys, tmp_path):
    # At e1 * 2^520, ||g||^2 is beyond the double range: a numerical failure (exit 3) on
    # valid input, not an input error. At 2^510 it is in range.
    e1 = np.eye(7, dtype=np.complex128)[0]
    argv = ["--pair", "L,G", "--vector", "e1", "--perturb", "3"]
    path = _prescribed_file(tmp_path, "p510.json", 2.0**510 * e1)
    assert run_cli(capsys, "identity", path, *argv)[0] == 0
    path = _prescribed_file(tmp_path, "p520.json", 2.0**520 * e1)
    proc = subprocess.run([sys.executable, "-m", "bgframes.cli", "identity", path, *argv],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "numerical failure" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("variant", ["1", "2"])
def test_reconstruct_of_a_gram_pair_at_a_tight_tol_succeeds(capsys, tmp_path, variant):
    # The relative residual of e1 is above --tol 1e-16 here, and an absolute gate
    # exited 3; it lies below tol ||Lambda||_F ||Gamma||_F ||H^-1||, the rounding bound.
    for seed in range(4):
        path = str(tmp_path / f"g{seed}.json")
        gen = ["--dim", "7", "--dims", "3,5,2", "--seed", str(seed), "--out", path]
        assert run_cli(capsys, "gen", *gen)[0] == 0
        code, out, err = run_cli(
            capsys, "reconstruct", path, "--pair", "L,L", "--vector", "e1",
            "--variant", variant, "--tol", "1e-16",
        )
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and doc["max_residual"] > 1e-16
        assert "numerical failure" not in err


@pytest.mark.parametrize("tol", ["1e-16", "1e-9"])
@pytest.mark.parametrize("seed", [0, 21, 50])
def test_a_gram_pair_checks_as_its_single_family(capsys, tmp_path, tol, seed):
    # Seeds 21 and 50 read "not Bessel" as the pair L,L at 1e-16 under a Hermitian gate.
    path = str(tmp_path / "g.json")
    run_cli(capsys, "gen", "--dim", "7", "--dims", "3,5,2", "--seed", str(seed), "--out", path)
    pair = json.loads(run_cli(capsys, "check", path, "--pair", "L,L", "--tol", tol)[1])
    single = json.loads(run_cli(capsys, "gcheck", path, "--system", "L", "--tol", tol)[1])
    del single["verdicts"]["is_riesz"]
    for key in ("verdicts", "hermitian_deviation", "bounds"):
        assert pair[key] == single[key]


# ---------------------------------------------------------------------------
# One prepared pair per command


@pytest.fixture
def prescribed_file(tmp_path):
    pair = gen_bi_g_frame(
        GenSpec(8, (2, 3, 3, 1), 5, "prescribed_operator"), random_hermitian_pd(8, 2)
    )
    rng = np.random.default_rng(0)
    e1 = np.eye(8, dtype=np.complex128)[0]
    two = [random_complex_vector(rng, 8) for _ in range(2)]
    path = tmp_path / "prescribed.json"
    write_pair_file(path, pair, vectors={"e1": [e1], "two": two})
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["bounds"],
        ["dual", "--out", "OUT"],
        ["reconstruct", "--vector", "two", "--variant", "1"],
        ["reconstruct", "--vector", "two", "--variant", "2"],
        ["identity", "--vector", "two", "--perturb", "3"],
    ],
)
def test_one_preparation_per_command(capsys, tmp_path, lapack_calls, prescribed_file, argv):
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
    lapack_calls.clear()
    code, _, _ = run_cli(capsys, argv[0], prescribed_file, "--pair", "L,G", *argv[1:])
    assert code == 0
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (1, 1)


@pytest.mark.parametrize("side, qr_calls", [("both", 2), ("gamma", 1), ("lambda", 1)])
@pytest.mark.parametrize("vector, perturb", [("e1", "0"), ("two", "5")])
def test_identity_computes_each_null_basis_once(
    capsys, lapack_calls, prescribed_file, side, qr_calls, vector, perturb
):
    lapack_calls.clear()
    code, _, _ = run_cli(
        capsys, "identity", prescribed_file, "--pair", "L,G",
        "--vector", vector, "--perturb", perturb, "--side", side,
    )
    assert code == 0
    assert lapack_calls == {"cholesky": 1, "eigvalsh": 1, "qr": qr_calls}
    assert lapack_calls["svd"] == 0


@pytest.mark.parametrize("variant, solves", [("1", 1), ("2", 1)])
def test_reconstruct_variant_2_solves_once_per_command(
    capsys, monkeypatch, prescribed_file, variant, solves
):
    calls = Counter()
    solve = CholeskyFactor.solve

    def counting(self, b):
        calls["solve"] += 1
        return solve(self, b)

    monkeypatch.setattr(CholeskyFactor, "solve", counting)
    code, _, _ = run_cli(
        capsys, "reconstruct", prescribed_file, "--pair", "L,G",
        "--vector", "two", "--variant", variant,
    )
    assert code == 0
    assert calls["solve"] == solves


@pytest.mark.parametrize("perturb", ["0", "5", "50"])
def test_identity_solves_once_per_vector_and_side(capsys, monkeypatch, prescribed_file, perturb):
    """One solve for the particular solution and one for the identity terms of
    every draw, on each side: the count does not grow with ``--perturb``."""
    calls = Counter()
    solve = CholeskyFactor.solve

    def counting(self, b):
        calls["solve"] += 1
        return solve(self, b)

    monkeypatch.setattr(CholeskyFactor, "solve", counting)
    code, _, _ = run_cli(
        capsys, "identity", prescribed_file, "--pair", "L,G",
        "--vector", "e1", "--perturb", perturb,
    )
    assert code == 0
    assert calls["solve"] == 4


def test_lift_prepares_the_pair_once(capsys, tmp_path, lapack_calls, prescribed_file):
    lapack_calls.clear()
    out = str(tmp_path / "lifted.json")
    code, _, _ = run_cli(capsys, "lift", prescribed_file, "--pair", "L,G", "--out", out)
    assert code == 0
    # The second spectrum classifies the lifted vector biframe.
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (1, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["bounds"],
        ["dual", "--out", "OUT"],
        ["reconstruct", "--vector", "e1", "--variant", "2"],
        ["identity", "--vector", "e1", "--perturb", "2"],
        ["lift", "--out", "OUT"],
    ],
)
def test_non_frames_make_no_factor(capsys, tmp_path, lapack_calls, nonherm_file, argv):
    rank_deficient = tmp_path / "rank_deficient.json"
    write_pair_file(rank_deficient, gen_negative(GenSpec(4, (2, 2, 2), 5, "rank_deficient")))
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
    for path in (nonherm_file, str(rank_deficient)):
        lapack_calls.clear()
        code, _, _ = run_cli(capsys, argv[0], path, "--pair", "L,G", *argv[1:])
        assert code == 1
        assert lapack_calls["cholesky"] == 0


# ---------------------------------------------------------------------------
# One open per command


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--pair", "L,G"],
        ["bounds", "--pair", "L,G"],
        ["gcheck", "--system", "L"],
        ["dual", "--pair", "L,G", "--out", "OUT"],
        ["reconstruct", "--pair", "L,G", "--vector", "two", "--variant", "2"],
        ["lift", "--pair", "L,G", "--out", "OUT"],
        ["identity", "--pair", "L,G", "--vector", "e1", "--perturb", "1"],
    ],
)
def test_each_file_command_opens_its_input_once(
    capsys, monkeypatch, tmp_path, prescribed_file, argv
):
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
    code, out, _ = run_cli(capsys, argv[0], prescribed_file, *argv[1:])
    assert code == 0
    assert opened[prescribed_file] == 1
    assert json.loads(out)["input_sha256"] == hashlib.sha256(
        Path(prescribed_file).read_bytes()
    ).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--pair", "L,missing"],
        ["dual", "--pair", "missing,G", "--out", "OUT"],
        ["reconstruct", "--pair", "L,G", "--vector", "nope", "--variant", "2"],
        ["identity", "--pair", "L,G", "--vector", "nope"],
    ],
)
def test_lookups_come_before_preparation(capsys, tmp_path, argv):
    """On a pair whose factorization breaks down (exit 3), a missing name
    still exits 2: every lookup runs before the pair is prepared."""
    path = tmp_path / "breakdown.json"
    write_pair_file(path, cholesky_breakdown_pair())
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--tol", "1e-18")
    assert code == 2
    assert out == ""
    assert "not found" in err


def test_entrypoint_exits_with_mains_code(capsys, monkeypatch, instance_a_file, nonherm_file):
    for path, expected in ((instance_a_file, 0), (nonherm_file, 1)):
        monkeypatch.setattr(sys, "argv", ["bgf", "check", path, "--pair", "L,G"])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == expected
        assert json.loads(capsys.readouterr().out)["input"] == path


# ---------------------------------------------------------------------------
# gen


def test_gen_then_check_prescribed(capsys, tmp_path):
    target_path = str(tmp_path / "P.json")
    save_matrix(target_path, random_hermitian_pd(3, seed=21))
    inst_path = str(tmp_path / "inst.json")
    code, _, _ = run_cli(
        capsys, "gen", "--dim", "3", "--dims", "1,2,2", "--seed", "42",
        "--target-op", target_path, "--out", inst_path,
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "check", inst_path, "--pair", "L,G")
    assert code == 0


def test_gen_single_system(capsys, tmp_path):
    out_path = str(tmp_path / "single.json")
    code, out, _ = run_cli(
        capsys, "gen", "--dim", "2", "--dims", "1,2", "--seed", "3", "--out", out_path
    )
    assert code == 0
    written = load_frame_file(out_path)
    assert set(written.systems) == {"L"}
    assert "e1" in written.vectors


def test_gen_negative_kind_checks_false(capsys, tmp_path):
    out_path = str(tmp_path / "neg.json")
    code, _, _ = run_cli(
        capsys, "gen", "--dim", "3", "--dims", "1,2", "--seed", "8",
        "--kind", "non_hermitian_pair", "--out", out_path,
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "check", out_path, "--pair", "L,G")
    assert code == 1


@pytest.mark.parametrize("scale", [2.0**-300, 2.0**300], ids=["2^-300", "2^300"])
def test_check_refuses_a_rescaled_non_hermitian_pair(capsys, tmp_path, scale):
    pair = gen_negative(GenSpec(7, (3, 5, 2), 4, kind="non_hermitian_pair"))
    scaled = rescaled_pair(pair, scale)
    path = tmp_path / "scaled.json"
    write_pair_file(path, scaled)
    code, out, _ = run_cli(capsys, "check", str(path), "--pair", "L,G")
    assert code == 1
    doc = json.loads(out)
    assert not doc["verdicts"]["is_bessel"] and "bounds" not in doc
    assert doc["hermitian_deviation"] == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_check_reads_a_rescaled_prescribed_pair_as_unscaled(capsys, tmp_path):
    # At 2^300 the squared operator entries overflow: the deviation read NaN
    # and the report could not be written (exit 2).
    pair = gen_bi_g_frame(
        GenSpec(7, (3, 5, 2), 4, "prescribed_operator"), random_hermitian_pd(7, seed=9)
    )
    scale = 2.0**300
    scaled = rescaled_pair(pair, scale)
    docs = []
    for name, p in (("plain", pair), ("scaled", scaled)):
        write_pair_file(tmp_path / f"{name}.json", p)
        code, out, _ = run_cli(capsys, "check", str(tmp_path / f"{name}.json"), "--pair", "L,G")
        assert code == 0
        docs.append(json.loads(out))
    plain, rescaled = docs
    assert rescaled["verdicts"] == plain["verdicts"]
    assert rescaled["hermitian_deviation"] == pytest.approx(plain["hermitian_deviation"], abs=1e-15)
    for edge in ("lower", "upper"):
        assert rescaled["bounds"][edge] == pytest.approx(scale**2 * plain["bounds"][edge], rel=1e-12)


def test_gen_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "gen", "--dim", "4", "--dims", "2,2", "--seed", "9", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_takes_no_tol(capsys, tmp_path):
    out_path = tmp_path / "y.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--dim", "2", "--dims", "1,2", "--seed", "3", "--out", str(out_path),
              "--tol", "-5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out_path.exists()


def test_report_bytes_are_stable(capsys, instance_a_file):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "check", instance_a_file, "--pair", "L,G")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# module execution


def test_module_invocation_smoke(tmp_path, instance_a):
    path = tmp_path / "inst.json"
    write_pair_file(path, instance_a)
    proc = subprocess.run(
        [sys.executable, "-m", "bgframes.cli", "check", str(path), "--pair", "L,G"],
        env=package_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"is_frame": true' in proc.stdout
    assert "wall_time_ms=" in proc.stderr


def test_cli_import_loads_no_scipy():
    probe = "import sys, bgframes.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# malformed interchange files

_LAM = gen_bi_g_frame(GenSpec(2, (1, 2), 5, "prescribed_operator"), random_hermitian_pd(2, 5)).lam
_VALID = json.loads(dumps_json(frame_file_doc(
    FrameFile(dim=2, systems={"L": _LAM}, vectors={"e1": [np.array([1.0, 0.5j])]})
)))
# Dropping these keys leaves a file that check and gcheck still accept.
_OPTIONAL = {("vectors",), ("vectors", "e1")}


def _locations(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _locations(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _locations(value, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _text(node, duplicate=None, path=()):
    """JSON text of ``node``; ``duplicate = (path, key)`` repeats one key of one object."""
    if isinstance(node, dict):
        items = [f"{json.dumps(k)}: {_text(v, duplicate, path + (k,))}" for k, v in node.items()]
        if duplicate is not None and duplicate[0] == path:
            key = duplicate[1]
            items.append(f"{json.dumps(key)}: {_text(node[key])}")
        return "{" + ", ".join(items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_text(v, duplicate, path + (i,)) for i, v in enumerate(node)) + "]"
    return json.dumps(node)


def _category(value):
    for kind in (bool, (int, float), str, list, dict):
        if isinstance(value, kind):
            return kind
    return None


_PATHS = list(_locations(_VALID))
_NUMBERS = [p for p in _PATHS if _category(_get(_VALID, p)) == (int, float)]


def _replaced(path, value):
    doc = json.loads(json.dumps(_VALID))
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def malformed_texts(draw):
    """The valid document's text after one mutation that makes it invalid."""
    kind = draw(st.sampled_from(
        ["drop", "retype", "resize", "nonpositive", "duplicate", "huge", "truncate"]
    ))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in _PATHS if p and isinstance(p[-1], str)
                                     and p not in _OPTIONAL]))
        doc = json.loads(json.dumps(_VALID))
        del _get(doc, path[:-1])[path[-1]]
        return _text(doc)
    if kind == "retype":
        path = draw(st.sampled_from(_PATHS))
        current = _category(_get(_VALID, path))
        value = draw(st.sampled_from(
            [v for v in (None, True, 1.5, "x", [], {}) if _category(v) != current]
        ))
        return _text(_replaced(path, value))
    if kind == "resize":
        entries = [p for p in _PATHS if p and p[-1] in ("entries_re", "entries_im")]
        path = draw(st.sampled_from(entries))
        values = _get(_VALID, path)
        length = draw(st.integers(0, 2 * len(values) + 1).filter(lambda k: k != len(values)))
        return _text(_replaced(path, (values * 3 + [0.5] * 3)[:length]))
    if kind == "nonpositive":
        path = draw(st.sampled_from([p for p in _PATHS if p and p[-1] in ("rows", "dim")]))
        return _text(_replaced(path, draw(st.integers(-5, 0))))
    if kind == "duplicate":
        path = draw(st.sampled_from([p for p in _PATHS if isinstance(_get(_VALID, p), dict)]))
        key = draw(st.sampled_from(sorted(_get(_VALID, path))))
        return _text(_VALID, duplicate=(path, key))
    if kind == "huge":
        path = draw(st.sampled_from(_NUMBERS))
        return _text(_replaced(path, 10 ** draw(st.integers(309, 1000))))
    text = dumps_json(_VALID)
    return text[: draw(st.integers(0, len(text) - 1))]


_HUGE_ENTRY = _text(_replaced(("systems", "L", "blocks", 0, "entries_re", 0), 10**400))


@pytest.mark.parametrize(
    "argv", [["check", "--pair", "L,L"], ["gcheck", "--system", "L"]], ids=["check", "gcheck"]
)
@settings(max_examples=150, deadline=None)
@example(text=_HUGE_ENTRY)
@given(text=malformed_texts())
def test_malformed_file_exits_2_without_traceback(tmp_path_factory, argv, text):
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code == 2, err.getvalue()
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")


def test_unmutated_file_is_valid(tmp_path):
    path = tmp_path / "valid.json"
    path.write_text(_text(_VALID), encoding="utf-8")
    assert main(["check", str(path), "--pair", "L,L"]) in (0, 1)
    assert main(["gcheck", str(path), "--system", "L"]) in (0, 1)
