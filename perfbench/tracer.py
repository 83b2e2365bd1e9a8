"""Per-layer spans recorded from outside tiptree.

``Tracer.install`` wraps tiptree's public functions at run time and rebinds
every module-level name that refers to one of them (``tiptree.psi.decompose``
and ``tiptree.cli.chen_decompose`` as well as ``tiptree.chen.decompose``,
plus the entries of ``verification.ALL_CHECKS``), so calls between layers are
seen too.  Each call of a wrapped function is a span; spans nest, and a span's
self time is its duration minus the durations of its direct children.  Spans
stay in memory until the benchmark writes them out at the end of the run.

A name that a later version of tiptree no longer has is skipped, and its
metrics read 0.  ``chen._undo_candidates`` is such a private name: it only
feeds the ``chen.undo_candidates`` and ``chen.undo_useful_ratio`` counts.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from typing import Callable

# Span key -> (module, attribute path) of the functions whose calls it times.
# A generator function is timed per ``next()`` call.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "trees.parse": (
        ("tiptree.trees", "PlaneTree.parse"),
        ("tiptree.trees", "LabelledPlaneTree.parse"),
    ),
    "trees.labelled_node": (("tiptree.trees", "LabelledPlaneTree.node"),),
    "trees.serialize": (
        ("tiptree.trees", "PlaneTree.word"),
        ("tiptree.trees", "LabelledPlaneTree.word"),
    ),
    "leaf_stats.stats": (("tiptree.leaf_stats", "stats"),),
    "enumeration.gen": tuple(
        ("tiptree.enumeration", name)
        for name in (
            "gen_plane_trees",
            "gen_tip_augmented",
            "gen_labelled_plane_trees",
            "gen_labelled_tip_augmented",
        )
    ),
    "enumeration.table": tuple(
        ("tiptree.enumeration", name)
        for name in (
            "distribution_table",
            "check_symmetry",
            "table_to_csv",
            "table_to_json_lines",
        )
    ),
    "phi.phi": (("tiptree.phi", "phi"),),
    "phi.classify": (("tiptree.phi", "classify"),),
    "phi.transport": (("tiptree.phi", "phi_with_correspondence"),),
    "phi.prop1": (("tiptree.phi", "check_prop1"),),
    "chen.decompose": (("tiptree.chen", "decompose"), ("tiptree.chen", "decompose_all")),
    "chen.merge": (("tiptree.chen", "merge"),),
    "chen.validate": (("tiptree.chen", "validate_match_set"),),
    "psi.psi": (("tiptree.psi", "psi"),),
    "psi.census": (("tiptree.psi", "match_census"),),
    "cli.self": (("tiptree.cli", "run_cli"),),
}

# The checks of ``verification.ALL_CHECKS`` at the commit that defined the
# benchmark; each gets a span key ``verification.<name without check_>``.
VERIFY_CHECKS = (
    "motzkin_counts",
    "plane_counts",
    "generator_agreement",
    "phi_suite",
    "distribution_symmetry",
    "chen_round_trip",
    "preimage_uniqueness",
    "census_identity",
    "psi_suite",
)

# The per-layer metrics, in the order of BENCHMARK.json: (name, unit).
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("trees.parse_calls", "count"),
    ("trees.parse_s", "s"),
    ("trees.labelled_node_s", "s"),
    ("trees.serialize_s", "s"),
    ("leaf_stats.stats_calls", "count"),
    ("leaf_stats.stats_s", "s"),
    ("enumeration.trees_generated", "count"),
    ("enumeration.gen_s", "s"),
    ("enumeration.table_s", "s"),
    ("phi.phi_s", "s"),
    ("phi.classify_s", "s"),
    ("phi.transport_s", "s"),
    ("phi.prop1_s", "s"),
    ("chen.decompose_calls", "count"),
    ("chen.decompose_s", "s"),
    ("chen.undo_candidates", "count"),
    ("chen.undo_useful_ratio", "ratio"),
    ("chen.merge_calls", "count"),
    ("chen.merge_s", "s"),
    ("chen.merge_steps", "count"),
    ("chen.validate_s", "s"),
    ("psi.psi_s", "s"),
    ("psi.census_s", "s"),
    *((f"verification.{name}_s", "s") for name in VERIFY_CHECKS),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _tiptree_modules() -> list:
    return [
        mod
        for name, mod in sys.modules.items()
        if name == "tiptree" or name.startswith("tiptree.")
    ]


def _rebind(modules: list, old, new) -> None:
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
            elif isinstance(value, tuple) and any(v is old for v in value):
                setattr(mod, name, tuple(new if v is old else v for v in value))


class Tracer:
    """Span recorder for one traced pass over a workload's items."""

    def __init__(self, clock_ns: Callable[[], int]) -> None:
        """``clock_ns`` gives the span times, in nanoseconds."""
        self._clock_ns = clock_ns
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts = {"trees_generated": 0, "undo_candidates": 0, "undo_useful": 0, "merge_steps": 0}
        self.item = -1
        self._next_id = 0
        # Open spans: [key, start_ns, child_ns, span_id].
        self._stack: list[list] = []
        # Closed spans, one column per field.
        self.spans = {f: array("q") for f in ("id", "parent", "item", "key", "start_ns", "end_ns")}

    # --- recording ------------------------------------------------------------

    def enter(self, key: str) -> None:
        self._stack.append([key, self._clock_ns(), 0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = self._clock_ns()
        key, start, child_ns, span_id = self._stack.pop()
        duration = end - start
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child_ns
        self.calls[key] = self.calls.get(key, 0) + 1
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        spans = self.spans
        spans["id"].append(span_id)
        spans["parent"].append(parent)
        spans["item"].append(self.item)
        spans["key"].append(self._key_ids[key])
        spans["start_ns"].append(start)
        spans["end_ns"].append(end)

    # --- wrapping ---------------------------------------------------------------

    def _wrap(self, key: str, fn, on_call=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer.enter(key)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.counts["trees_generated"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            tracer.enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _on_decompose(self, t, *args, **kwargs) -> None:
        # A search without a dead end tries one candidate per undone mark,
        # and an n-edge tree has n - 1 of them.
        self.counts["undo_useful"] += max(len(t.labels) - 2, 0)

    def _on_merge(self, f, *args, **kwargs) -> None:
        self.counts["merge_steps"] += max(f.n - 1, 0)

    def install(self) -> None:
        """Wrap the functions of the tiptree modules imported right now."""
        modules = _tiptree_modules()
        hooks = {"chen.decompose": self._on_decompose, "chen.merge": self._on_merge}
        targets = [(key, mod, path) for key, entries in SPANS.items() for mod, path in entries]
        verification = sys.modules.get("tiptree.verification")
        for check in getattr(verification, "ALL_CHECKS", ()):
            name = check.__name__.removeprefix("check_")
            targets.append((f"verification.{name}", "tiptree.verification", check.__name__))
        for key, mod_name, path in targets:
            owner = sys.modules.get(mod_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if owner_path:
                raw = vars(owner).get(attr)
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(key, raw.__func__)))
                elif isinstance(raw, property):
                    setattr(owner, attr, property(self._wrap(key, raw.fget)))
                continue
            fn = getattr(owner, attr, None)
            if callable(fn):
                _rebind(modules, fn, self._wrap(key, fn, hooks.get(key)))
        chen = sys.modules.get("tiptree.chen")
        undo = getattr(chen, "_undo_candidates", None)
        if undo is not None:
            _rebind(modules, undo, self._counting(undo))

    def _counting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for candidate in fn(*args, **kwargs):
                counts["undo_candidates"] += 1
                yield candidate

        return wrapper

    # --- results ----------------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def layer_values(self) -> dict[str, float]:
        """The per-layer metrics of this pass, without the ``trace.*`` ones."""

        def secs(key: str) -> float:
            return self.self_ns.get(key, 0) / 1e9

        counts = self.counts
        values: dict[str, float] = {
            "trees.parse_calls": self.calls.get("trees.parse", 0),
            "leaf_stats.stats_calls": self.calls.get("leaf_stats.stats", 0),
            "enumeration.trees_generated": counts["trees_generated"],
            "chen.decompose_calls": self.calls.get("chen.decompose", 0),
            "chen.undo_candidates": counts["undo_candidates"],
            "chen.undo_useful_ratio": (
                counts["undo_useful"] / counts["undo_candidates"]
                if counts["undo_candidates"]
                else 0.0
            ),
            "chen.merge_calls": self.calls.get("chen.merge", 0),
            "chen.merge_steps": counts["merge_steps"],
        }
        for name, unit in LAYER_METRICS:
            if unit == "s" and not name.startswith("trace."):
                values[name] = secs(name.removesuffix("_s"))
        return values

    def write(self, path, header: dict) -> None:
        """Write the spans as gzipped CSV; ``header`` goes in a comment line."""
        spans = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# {json.dumps(header)}\n")
            out.write("id,parent,item,name,start_ns,end_ns\n")
            for row in zip(*(spans[f] for f in ("id", "parent", "item", "key", "start_ns", "end_ns"))):
                out.write(f"{row[0]},{row[1]},{row[2]},{self.keys[row[3]]},{row[4]},{row[5]}\n")
