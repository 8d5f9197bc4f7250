"""Frame file writing and reading: the per-array float writer against the
per-float rule, the reader's error paths, one read per load, saves that fail,
and the cost of writing and reading a full-size instance, counted in calls
and in peak memory against the file's size."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgframes import (
    BiGFrameSystem,
    GenSpec,
    SchemaError,
    canonical_pair,
    gen_bi_g_frame,
    random_hermitian_pd,
)
from bgframes import fileio
from bgframes.fileio import (
    FrameFile,
    dumps_json,
    frame_file_doc,
    load_frame_file,
    parse_frame_doc,
    save_frame_file,
    save_matrix,
)
from conftest import write_pair_file
from oracles import format_float

EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, 1e16, 1 / 3,
]


def _reference_text(arr) -> str:
    return "[" + ", ".join(format_float(x) for x in arr.tolist()) + "]"


@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
))
@example(values=EDGE_FLOATS)
def test_array_writer_matches_the_per_float_rule(values):
    arr = np.array(values, dtype=np.float64)
    assert dumps_json(arr) == _reference_text(arr)
    for x in values:
        assert dumps_json(x) == format_float(x)


def test_batched_tokens_match_the_per_float_form():
    # One %-format of the whole array, split into tokens, against one format() a float.
    rng = np.random.default_rng(17)
    spread = rng.standard_normal(4096) * 10.0 ** rng.integers(-300, 300, 4096)
    arr = np.concatenate([EDGE_FLOATS, spread, -spread[:64], np.zeros(3)])
    assert fileio._float_tokens(arr) == [format_float(x) for x in arr.tolist()]
    assert fileio._float_tokens(np.array([-0.0])) == ["-0.0"]
    assert fileio._float_tokens(np.array([])) == []


def test_array_writer_formats_strided_views():
    block = np.arange(12, dtype=np.float64).reshape(3, 4) - 5.5 + 1j * np.eye(3, 4)
    for view in (block.real[:, 1], block.imag.ravel(), -block.imag[0]):
        assert dumps_json(view) == _reference_text(view)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_floats_raise(bad):
    with pytest.raises(ValueError, match="^cannot serialize non-finite float$"):
        dumps_json(np.array([1.0, bad, 2.0]))
    with pytest.raises(ValueError, match="^cannot serialize non-finite float$"):
        dumps_json(bad)


@pytest.mark.parametrize(
    "arr",
    [np.array([1 + 2j]), np.zeros((2, 2)), np.array([1, 2]), np.zeros(3, dtype=np.float32),
     np.array(1.0)],
    ids=["complex", "2-d", "integer", "float32", "0-d"],
)
def test_other_arrays_raise_type_error(arr):
    with pytest.raises(TypeError):
        dumps_json(arr)


def test_empty_array_writes_empty_list():
    assert dumps_json(np.array([], dtype=np.float64)) == "[]"


def _small_doc():
    pair = gen_bi_g_frame(GenSpec(2, (1, 2), 5, "prescribed_operator"), random_hermitian_pd(2, 5))
    doc = frame_file_doc(FrameFile(dim=2, systems={"L": pair.lam, "G": pair.gam}))
    return json.loads(dumps_json(doc))


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("bad", [True, "x", None, [1.0]], ids=["bool", "str", "null", "list"])
def test_reader_names_the_bad_entry(k, bad):
    doc = _small_doc()
    doc["systems"]["L"]["blocks"][1]["entries_re"][k] = bad
    with pytest.raises(SchemaError) as info:
        parse_frame_doc(doc, path="f.json")
    assert str(info.value) == f"f.json.systems.L.blocks[1].entries_re[{k}]: expected a number"


@pytest.mark.parametrize("bad", [[], {"re": [1.0]}], ids=["empty", "object"])
def test_reader_names_a_bad_vectors_entry(bad):
    doc = {**_small_doc(), "vectors": {"v": bad}}
    with pytest.raises(SchemaError) as info:
        parse_frame_doc(doc, path="f.json")
    assert str(info.value) == "f.json.vectors.v: expected a nonempty array of vectors"


def test_reader_accepts_float_subclasses():
    doc = _small_doc()
    expected = parse_frame_doc(doc)
    for block in doc["systems"]["L"]["blocks"]:
        block["entries_re"] = [np.float64(x) for x in block["entries_re"]]
    loaded = parse_frame_doc(doc)
    for name in ("L", "G"):
        for a, b in zip(loaded.systems[name].blocks, expected.systems[name].blocks):
            assert a.tobytes() == b.tobytes()


def test_failed_save_leaves_the_target_unchanged(tmp_path, instance_a):
    path = tmp_path / "inst.json"
    write_pair_file(path, instance_a)
    before = path.read_bytes()
    data = load_frame_file(path)
    data.vectors["bad"] = [np.array([np.nan, 1.0])]
    with pytest.raises(ValueError):
        save_frame_file(path, data)
    assert path.read_bytes() == before

    save_matrix(path, np.eye(2))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_matrix(path, [[np.inf]])
    assert path.read_bytes() == before


@pytest.fixture(scope="module")
def full_size_file():
    """A prescribed (64, 32x4) pair with one vector, the size `bgf` commands
    are measured at."""
    pair = gen_bi_g_frame(
        GenSpec(64, (4,) * 32, 1, "prescribed_operator"), random_hermitian_pd(64, 1)
    )
    vec = np.zeros(64, dtype=np.complex128)
    vec[0] = 1.0
    return FrameFile(dim=64, systems={"L": pair.lam, "G": pair.gam}, vectors={"e1": [vec]})


def test_writer_calls_do_not_grow_with_the_float_count(monkeypatch, full_size_file):
    calls = 0
    write = fileio._write

    def counting(*args):
        nonlocal calls
        calls += 1
        return write(*args)

    # _write recurses through the module global, so the counter sees every call.
    monkeypatch.setattr(fileio, "_write", counting)
    dumps_json(frame_file_doc(full_size_file))
    assert 0 < calls < 1000


def test_full_size_save_load_save_is_byte_identical(tmp_path, full_size_file):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_frame_file(first, full_size_file)
    save_frame_file(second, load_frame_file(first))
    assert first.read_bytes() == second.read_bytes()


@pytest.fixture(scope="module")
def dual_size_file(full_size_file):
    """The full-size pair plus its dual pair: the file `bgf dual` writes."""
    dual = canonical_pair(BiGFrameSystem(full_size_file.systems["L"], full_size_file.systems["G"]))
    systems = {**full_size_file.systems, "L~": dual.lam, "G~": dual.gam}
    return FrameFile(dim=64, systems=systems, vectors=full_size_file.vectors)


def _traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of the allocations ``call()`` makes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_holds_one_encoded_copy_of_the_file(tmp_path, dual_size_file):
    # The buffer, the document's float arrays (about a third of the text) and one piece.
    path = tmp_path / "dual.json"
    peak = _traced_peak(lambda: save_frame_file(path, dual_size_file))
    assert peak <= 1.6 * path.stat().st_size


def test_load_drops_the_raw_bytes_before_the_parse(tmp_path, dual_size_file):
    # The text, and the parsed lists of floats: about 1.5x the text.
    path = tmp_path / "dual.json"
    save_frame_file(path, dual_size_file)
    peak = _traced_peak(lambda: load_frame_file(path))
    assert peak <= 2.8 * path.stat().st_size


def test_a_saved_file_is_the_json_text_plus_a_newline(tmp_path, dual_size_file):
    path = tmp_path / "dual.json"
    save_frame_file(path, dual_size_file)
    assert path.read_bytes() == (dumps_json(frame_file_doc(dual_size_file)) + "\n").encode()


def test_load_reads_once_and_hashes_the_bytes_parsed(monkeypatch, tmp_path, instance_a):
    path = tmp_path / "crlf.json"
    write_pair_file(path, instance_a)
    data = path.read_bytes().replace(b"\n", b"\r\n")
    path.write_bytes(data)
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    loaded = load_frame_file(path)
    assert opened == [path]
    assert loaded.sha256 == hashlib.sha256(data).hexdigest()
    assert FrameFile(dim=2).sha256 is None


def test_byte_order_mark_is_ignored_and_hashed(tmp_path, instance_a):
    path = tmp_path / "bom.json"
    write_pair_file(path, instance_a)
    plain = load_frame_file(path)
    data = b"\xef\xbb\xbf" + path.read_bytes()
    path.write_bytes(data)
    loaded = load_frame_file(path)
    assert loaded.sha256 == hashlib.sha256(data).hexdigest() != plain.sha256
    assert dumps_json(frame_file_doc(loaded)) == dumps_json(frame_file_doc(plain))


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_json_errors_keep_their_position_in_crlf_files(tmp_path, newline):
    path = tmp_path / "bad.json"
    path.write_bytes(newline.join([b"{", b'"dim": 2,', b"", b' "x": }', b""]))
    with pytest.raises(SchemaError, match="invalid JSON at line 4 column 7"):
        load_frame_file(path)
