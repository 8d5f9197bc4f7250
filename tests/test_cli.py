import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgframes import GenSpec, GFrameSystem, BiGFrameSystem, gen_bi_g_frame, random_hermitian_pd
from bgframes.cli import main
from bgframes.fileio import FrameFile, dumps_json, frame_file_doc, load_frame_file, save_matrix
from conftest import cholesky_breakdown_pair, package_env, write_pair_file


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


def test_deeply_nested_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "check", str(path), "--pair", "L,G")
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


def test_tol_env_variable(capsys, monkeypatch, instance_a_file):
    monkeypatch.setenv("BGF_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "check", instance_a_file, "--pair", "L,G")
    assert code == 2
    assert "BGF_TOL" in err
    monkeypatch.setenv("BGF_TOL", "1e-6")
    code, out, _ = run_cli(capsys, "check", instance_a_file, "--pair", "L,G")
    assert code == 0
    assert '"tolerance": 9.9999999999999995e-07' in out


def test_check_small_tol_gives_a_verdict(capsys, tmp_path):
    # S = diag(1, 1e-13) is a frame at --tol 1e-15, below the solver's 1e-12 default.
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


def test_bad_tol_flag(capsys, instance_a_file):
    code, _, _ = run_cli(capsys, "check", instance_a_file, "--pair", "L,G", "--tol", "-1")
    assert code == 2


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


def test_identity_command(capsys, instance_a_file):
    code, out, _ = run_cli(
        capsys, "identity", instance_a_file,
        "--pair", "L,G", "--vector", "e1", "--perturb", "4",
    )
    assert code == 0
    assert '"lhs": 0.5' in out
    assert '"ok": true' in out


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
