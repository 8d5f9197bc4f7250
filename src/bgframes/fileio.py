"""JSON interchange for frame systems, vectors, and matrices.

The on-disk schema (version "1") stores complex data as parallel
``entries_re`` / ``entries_im`` arrays in row-major order:

    {
      "schema_version": "1",
      "dim": 2,
      "field": "complex",
      "systems": {
        "L": {"blocks": [{"rows": 1, "entries_re": [1, 0], "entries_im": [0, 0]}]}
      },
      "vectors": {
        "e1": [{"entries_re": [1, 0], "entries_im": [0, 0]}]
      }
    }

Serialization is deterministic: insertion-ordered keys and floats printed
with 17 significant digits, which round-trips IEEE doubles exactly, and a
negative zero as ``-0.0``. Floats are formatted per array: the document
holds each ``entries_re`` / ``entries_im`` as one 1-d float64 array. A save
builds one UTF-8 buffer before it opens the target, so a failed save leaves
the file as it was, and writes it in binary mode: LF line ends everywhere.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SchemaError
from .gframes import GFrameSystem

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Deterministic JSON writing


def _float_tokens(arr: np.ndarray) -> list:
    """The JSON text of each float of a 1-d float64 array."""
    if not np.isfinite(arr).all():
        raise ValueError("cannot serialize non-finite float")
    tokens = ("%.17g\n" * arr.size % tuple(arr.tolist())).split()
    for i in np.flatnonzero((arr == 0) & np.signbit(arr)).tolist():
        tokens[i] = "-0.0"  # "-0" would load as the integer 0
    return tokens


def _write(value, emit, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            emit("{}")
            return
        emit("{\n")
        for i, (key, item) in enumerate(value.items()):
            emit(f"{pad}  {json.dumps(str(key))}: ")
            _write(item, emit, indent + 1)
            emit(",\n" if i < len(value) - 1 else "\n")
        emit(pad + "}")
    elif isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim != 1:
            raise TypeError(f"cannot serialize a {value.ndim}-d {value.dtype} array")
        emit("[" + ", ".join(_float_tokens(value)) + "]")
    elif isinstance(value, (list, tuple)):
        emit("[")
        for i, item in enumerate(value):
            _write(item, emit, indent)
            if i < len(value) - 1:
                emit(", ")
        emit("]")
    elif isinstance(value, bool):
        emit("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        emit(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        emit(_float_tokens(np.array([value], dtype=np.float64))[0])
    elif isinstance(value, str):
        emit(json.dumps(value))
    elif value is None:
        emit("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_json(value) -> str:
    """Deterministic JSON text: stable key order, 17-significant-digit floats."""
    out: list = []
    _write(value, out.append, 0)
    return "".join(out)


# ---------------------------------------------------------------------------
# Loading with field-path diagnostics


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _load_json(path) -> tuple:
    """One read of a JSON file: its document, rejecting duplicate keys (names
    must stay unique), and the SHA-256 of its bytes, decoded as UTF-8 (a leading
    BOM ignored) with universal newlines; read and decode errors are schema errors."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: cannot decode file as UTF-8: {exc}") from exc
    del data  # the parse holds the text only

    def hook(pairs):
        result = {}
        for key, value in pairs:
            if key in result:
                raise SchemaError(f"{path}: duplicate key {key!r}")
            result[key] = value
        return result

    try:
        return json.loads(text, object_pairs_hook=hook), digest
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from exc


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_number_list(value, path: str, length: int) -> np.ndarray:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    if len(value) != length:
        _fail(path, f"expected {length} values, got {len(value)}")
    if not set(map(type, value)) <= {int, float}:  # subclasses and errors take the loop
        for i, x in enumerate(value):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                _fail(f"{path}[{i}]", "expected a number")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the double range
        _fail(path, "entries must be finite")
    if not np.isfinite(arr).all():
        _fail(path, "entries must be finite")
    return arr


def _parse_complex_entries(obj: dict, path: str, rows: int, cols: int) -> np.ndarray:
    re = _expect_number_list(obj.get("entries_re"), f"{path}.entries_re", rows * cols)
    im = _expect_number_list(obj.get("entries_im"), f"{path}.entries_im", rows * cols)
    # Pairing the halves in memory keeps the sign of every zero; re + 1j * im would not.
    return np.stack((re, im), axis=-1).view(np.complex128).reshape(rows, cols)


def _parse_block(obj, path: str, dim: int) -> np.ndarray:
    block = _expect_object(obj, path)
    rows = block.get("rows")
    if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
        _fail(f"{path}.rows", "expected a positive integer")
    return _parse_complex_entries(block, path, rows, dim)


def _parse_vector(obj, path: str, dim: int) -> np.ndarray:
    vec = _expect_object(obj, path)
    return _parse_complex_entries(vec, path, 1, dim).ravel()


@dataclass
class FrameFile:
    """Parsed contents of one interchange file; ``sha256`` is the hash of the
    bytes a load parsed (``None`` when built in memory; saves ignore it)."""

    dim: int
    systems: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    sha256: str | None = None


def parse_frame_doc(doc, path: str = "$") -> FrameFile:
    """Validate and convert a decoded JSON document."""
    root = _expect_object(doc, path)
    if root.get("schema_version") != SCHEMA_VERSION:
        _fail(f"{path}.schema_version", f"expected \"{SCHEMA_VERSION}\"")
    if root.get("field") != "complex":
        _fail(f"{path}.field", "expected \"complex\"")
    dim = root.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail(f"{path}.dim", "expected a positive integer")

    systems: dict = {}
    for name, sys_obj in _expect_object(root.get("systems"), f"{path}.systems").items():
        sys_path = f"{path}.systems.{name}"
        entry = _expect_object(sys_obj, sys_path)
        blocks_obj = entry.get("blocks")
        if not isinstance(blocks_obj, list) or not blocks_obj:
            _fail(f"{sys_path}.blocks", "expected a nonempty array of blocks")
        blocks = tuple(
            _parse_block(b, f"{sys_path}.blocks[{j}]", dim)
            for j, b in enumerate(blocks_obj)
        )
        systems[name] = GFrameSystem(dim, blocks)

    vectors: dict = {}
    if "vectors" in root:
        for name, vec_list in _expect_object(root["vectors"], f"{path}.vectors").items():
            vec_path = f"{path}.vectors.{name}"
            if not isinstance(vec_list, list) or not vec_list:
                _fail(vec_path, "expected a nonempty array of vectors")
            vectors[name] = [
                _parse_vector(v, f"{vec_path}[{i}]", dim) for i, v in enumerate(vec_list)
            ]
    return FrameFile(dim=dim, systems=systems, vectors=vectors)


def load_frame_file(path) -> FrameFile:
    """Read and validate one interchange file, reading it once."""
    doc, digest = _load_json(path)
    return replace(parse_frame_doc(doc, path=str(path)), sha256=digest)


# ---------------------------------------------------------------------------
# Writing


def _block_doc(block: np.ndarray) -> dict:
    return {
        "rows": int(block.shape[0]),
        "entries_re": block.real.ravel(),
        "entries_im": block.imag.ravel(),
    }


def _vector_doc(vec) -> dict:
    v = np.asarray(vec, dtype=np.complex128)  # vectors reach here as the caller made them
    return {"entries_re": v.real, "entries_im": v.imag}


def frame_file_doc(data: FrameFile) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim": int(data.dim),
        "field": "complex",
        "systems": {
            name: {"blocks": [_block_doc(b) for b in sys.blocks]}
            for name, sys in data.systems.items()
        },
    }
    if data.vectors:
        doc["vectors"] = {
            name: [_vector_doc(v) for v in vecs] for name, vecs in data.vectors.items()
        }
    return doc


def _save(path, doc) -> None:
    buffer = bytearray()  # the whole file, built before open() truncates the target
    _write(doc, lambda piece: buffer.extend(piece.encode()), 0)
    buffer.extend(b"\n")
    with open(path, "wb") as handle:
        handle.write(buffer)


def save_frame_file(path, data: FrameFile) -> None:
    _save(path, frame_file_doc(data))


def load_matrix(path) -> np.ndarray:
    """Read one standalone matrix: {"rows": r, "entries_re": [...], "entries_im": [...]}."""
    obj = _expect_object(_load_json(path)[0], str(path))
    rows = obj.get("rows")
    if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
        _fail(f"{path}.rows", "expected a positive integer")
    re = obj.get("entries_re")
    if not isinstance(re, list) or len(re) % rows != 0 or not re:
        _fail(f"{path}.entries_re", f"expected a nonempty array divisible by rows={rows}")
    cols = len(re) // rows
    return _parse_complex_entries(obj, str(path), rows, cols)


def save_matrix(path, matrix) -> None:
    _save(path, _block_doc(np.asarray(matrix, dtype=np.complex128)))
