"""In-memory span recorder wrapped around the public functions of bgframes.

Spans are recorded from outside the package: ``install`` swaps every public
function of the traced modules, wherever a bgframes module or the package
namespace binds it, for a wrapper that records one span per call. The
LAPACK entry points the package reaches (``scipy.linalg.cho_factor``,
``numpy.linalg.eigvalsh`` and ``numpy.linalg.svd``) are wrapped as well, but
record only while a span is open, so calls made by the benchmark's own
checks are not counted. ``uninstall`` restores every original binding.

A span is (name, start, end, parent). Parents always precede children in
the arrays, and the spans of one unit share its root span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array

TRACED_MODULES = ("kernel", "gframes", "frames", "bigframes", "generators", "fileio", "cli")

# LAPACK entry points: (module path, attribute, span name).
LAPACK = (
    ("scipy.linalg", "cho_factor", "kernel.cholesky"),
    ("numpy.linalg", "eigvalsh", "kernel.eigvalsh"),
    ("numpy.linalg", "svd", "kernel.svd"),
)

# Functions whose file argument is measured in bytes: name -> (argument
# index, whether the size is read after the call).
_BYTES = {
    "fileio.load_frame_file": (0, False),
    "fileio.save_frame_file": (0, True),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes: dict = {}
        self._stack: list = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, nested_only: bool = False):
        """A wrapper recording one span per call of ``fn``."""
        size_arg = _BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_only and not self._stack:
                return fn(*args, **kwargs)
            if size_arg is not None and not size_arg[1]:
                self._count_bytes(name, args[size_arg[0]])
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                if size_arg is not None and size_arg[1]:
                    self._count_bytes(name, args[size_arg[0]])

        return traced

    def _count_bytes(self, name: str, path) -> None:
        try:
            size = os.path.getsize(path)
        except OSError:
            return
        self.bytes[name] = self.bytes.get(name, 0) + size

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the traced modules in place."""
        import importlib

        import bgframes

        modules = [importlib.import_module(f"bgframes.{m}") for m in TRACED_MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for owner in [bgframes, *modules]:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(owner, attr, wrappers[obj])
        gfs = importlib.import_module("bgframes.gframes").GFrameSystem
        self._patch(gfs, "__post_init__", self.wrap("gframes.GFrameSystem", gfs.__post_init__))
        for module_path, attr, name in LAPACK:
            owner = importlib.import_module(module_path)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), nested_only=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "bytes": self.bytes,
        }


def save(path, span_sets) -> None:
    """Write span sets to one ``.npz`` file, set ``k`` under keys ``k.*``."""
    import numpy as np

    arrays = {}
    for k, spans in enumerate(span_sets):
        arrays[f"{k}.names"] = np.array(json.dumps(list(spans["names"])))
        arrays[f"{k}.bytes"] = np.array(json.dumps(dict(spans["bytes"])))
        arrays[f"{k}.name"] = np.asarray(spans["name"], dtype=np.int32)
        arrays[f"{k}.parent"] = np.asarray(spans["parent"], dtype=np.int32)
        arrays[f"{k}.start"] = np.asarray(spans["start"], dtype=np.float64)
        arrays[f"{k}.end"] = np.asarray(spans["end"], dtype=np.float64)
    np.savez(path, **arrays)


def load(path) -> list:
    """Read back the span sets written by :func:`save`."""
    import numpy as np

    with np.load(path) as data:
        count = len({key.split(".", 1)[0] for key in data.files})
        return [
            {
                "names": json.loads(str(data[f"{k}.names"])),
                "bytes": json.loads(str(data[f"{k}.bytes"])),
                "name": data[f"{k}.name"].tolist(),
                "parent": data[f"{k}.parent"].tolist(),
                "start": data[f"{k}.start"].tolist(),
                "end": data[f"{k}.end"].tolist(),
            }
            for k in range(count)
        ]


def aggregate(span_sets) -> dict:
    """Per-name totals over one or more recorded span sets.

    Returns ``{"functions": {name: {"calls", "ms", "self_ms"}}, "bytes":
    {name: total}}``. ``ms`` is inclusive and skips spans nested in a span of
    the same name, so recursion is not counted twice; ``self_ms`` is a span's
    duration minus the time its direct children cover.
    """
    import numpy as np

    totals: dict = {}
    byte_totals: dict = {}
    for spans in span_sets:
        name = np.asarray(spans["name"], dtype=np.int64)
        parent = np.asarray(spans["parent"], dtype=np.int64)
        duration = np.asarray(spans["end"], dtype=np.float64) - np.asarray(
            spans["start"], dtype=np.float64
        )
        count = len(spans["names"])
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        # Walk every span's ancestors at once, one level per step.
        repeated = np.zeros(len(name), dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            repeated[live] |= name[up[live]] == name[live]
            up[live] = parent[up[live]]
        calls = np.bincount(name, minlength=count)
        self_ms = np.bincount(name, weights=duration - child_time, minlength=count) * 1e3
        ms = np.bincount(name[~repeated], weights=duration[~repeated], minlength=count) * 1e3
        for nid, key in enumerate(spans["names"]):
            entry = totals.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += int(calls[nid])
            entry["ms"] += float(ms[nid])
            entry["self_ms"] += float(self_ms[nid])
        for key, value in spans["bytes"].items():
            byte_totals[key] = byte_totals.get(key, 0) + value
    return {"functions": totals, "bytes": byte_totals}
