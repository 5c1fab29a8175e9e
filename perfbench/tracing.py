"""Per-layer tracing from outside the program.

Each traced name is replaced, at the place where callers look it up, by a
wrapper that records one span per call: name, start, end, parent span and
request id.  ``cli`` keeps its own bindings of ``realize``,
``is_weakly_unperforated`` and friends, and ``ordmon``, ``wmodel`` and
``elliott`` each keep their own ``matvec``, so each binding is wrapped where
it lives.  Spans stay in memory in flat arrays and are written out when the
run ends.  A span's self time is its duration minus the time its child
spans cover; it is accumulated as each span closes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict

# (owner module or class, attribute, span name); owners are resolved lazily
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("documents", "load_document", "documents.load_document"),
    ("documents", "encode_class", "documents.encode"),
    ("documents", "encode_wmodel", "documents.encode"),
    ("documents", "encode_invariant", "documents.encode"),
    ("documents", "rational_str", "documents.encode"),
    ("cli", "functor_g_obj", "elliott.functor"),
    ("cli", "functor_g_mor", "elliott.functor"),
    ("cli", "validate_invariant", "elliott.functor"),
    ("cli", "validate_morphism", "elliott.functor"),
    ("cli", "summable_decomposition", "approx"),
    ("cli", "projection_sup_realization", "approx"),
    ("wmodel.WModel", "compare", "wmodel.compare"),
    ("wmodel.WModel", "add", "wmodel.add"),
    ("wmodel.WModel", "validate_class", "wmodel.validate_class"),
    ("wmodel.K0Model", "cone_member", "wmodel.k0_cone_member"),
    ("cli", "random_class", "sampling.random_class"),
    ("ordmon", "matvec", "linalg.matvec"),
    ("wmodel", "matvec", "linalg.matvec"),
    ("elliott", "matvec", "linalg.matvec"),
    ("ordmon", "cone_member", "ordmon.cone_member"),
    ("cli", "is_weakly_unperforated", "ordmon.search"),
    ("cli", "archimedean_witness", "ordmon.search"),
    ("cli", "realize", "goodearl.realize"),
    ("goodearl.PLFn", "pointwise_max", "goodearl.pointwise_max"),
    ("cli", "dimension_discrepancies", "goodearl.verify"),
    ("goodearl", "dim_fn", "goodearl.dim_fn"),
)

# per-layer metric -> (kind, span names); "calls" counts, "ms" sums self time
LAYER_METRICS = {
    "cli.build_parser_ms": ("ms", ("cli.build_parser",)),
    "cli.main_self_ms": ("ms", ("cli.main",)),
    "documents.load_calls": ("calls", ("documents.load_document",)),
    "documents.load_ms": ("ms", ("documents.load_document",)),
    "documents.encode_ms": ("ms", ("documents.encode",)),
    "elliott.functor_ms": ("ms", ("elliott.functor",)),
    "approx.ms": ("ms", ("approx",)),
    "wmodel.compare_calls": ("calls", ("wmodel.compare",)),
    "wmodel.compare_ms": ("ms", ("wmodel.compare",)),
    "wmodel.validate_calls": ("calls", ("wmodel.validate_class",)),
    "wmodel.k0_cone_member_calls": ("calls", ("wmodel.k0_cone_member",)),
    "sampling.random_class_calls": ("calls", ("sampling.random_class",)),
    "sampling.ms": ("ms", ("sampling.random_class",)),
    "linalg.matvec_calls": ("calls", ("linalg.matvec",)),
    "linalg.matvec_ms": ("ms", ("linalg.matvec",)),
    "ordmon.cone_member_calls": ("calls", ("ordmon.cone_member",)),
    "ordmon.cone_member_ms": ("ms", ("ordmon.cone_member",)),
    "ordmon.search_self_ms": ("ms", ("ordmon.search",)),
    "goodearl.realize_ms": ("ms", ("goodearl.realize", "goodearl.pointwise_max")),
    "goodearl.verify_ms": ("ms", ("goodearl.verify", "goodearl.dim_fn")),
    "goodearl.dim_fn_calls": ("calls", ("goodearl.dim_fn",)),
    "goodearl.pointwise_max_calls": ("calls", ("goodearl.pointwise_max",)),
    "goodearl.entries_built": ("entries", ()),
}


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"cuntzcalc.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans of wrapped calls; install() patches, remove() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("q")
        self.request_col = array("q")
        self.request_id = -1
        self.stack: list[int] = []  # open span indices
        self.child_time: list[float] = []  # child time covered, per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.entries_built = 0
        self._patched: list = []

    def _wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        counts_entries = name == "goodearl.realize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start_col)
            self.name_col.append(name_id)
            self.parent_col.append(self.stack[-1] if self.stack else -1)
            self.request_col.append(self.request_id)
            self.end_col.append(0.0)
            self.stack.append(index)
            self.child_time.append(0.0)
            start = clock()
            self.start_col.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.end_col[index] = end
                self.stack.pop()
                duration = end - start
                self.self_s[name] += duration - self.child_time.pop()
                self.calls[name] += 1
                if self.child_time:
                    self.child_time[-1] += duration
            if counts_entries:
                self.entries_built += sum(stage.size for stage in result.stages)
            return result

        return traced

    def install(self) -> None:
        for path, attr, name in TRACED:
            owner = _owner(path)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """Per-layer metric name -> (value, unit)."""
        out = {}
        for metric, (kind, names) in LAYER_METRICS.items():
            if kind == "calls":
                out[metric] = (sum(self.calls[n] for n in names), "count")
            elif kind == "ms":
                out[metric] = (sum(self.self_s[n] for n in names) * 1000, "ms")
            else:
                out[metric] = (self.entries_built, "count")
        return out

    def write(self, path: str) -> None:
        """A JSON header line, then the five span columns as raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start_col),
            "columns": [
                ["name", "H"], ["start_s", "d"], ["end_s", "d"],
                ["parent", "q"], ["request", "q"],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.start_col, self.end_col,
                        self.parent_col, self.request_col):
                col.tofile(fh)
