"""Layer spans for the benchmark's traced runs, recorded from outside the package.

`Tracer.install` replaces each public function that crosses a layer
boundary (see `BOUNDARIES`) with a wrapper that records a span: its name,
start, end and the index of the span that was open when it began.  A
function is wrapped in every module namespace that imports it, so a call
is recorded whichever module makes it; each wrapper calls the original
directly, so one call is one span.  `Tracer.uninstall` restores the
originals.  The package runs in one thread, so no layer ever waits on
another and no wait time is recorded.

Span names are ``<layer>.<operation>``; the layer is the package module
(`rootsys`, `liealg`, `coord`, `exactla`, `graded`, `cli`) whose code the
span covers.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

LAYERS = ("rootsys", "liealg", "coord", "exactla", "graded", "cli")

# (module, attribute or Class.method, span name, counter hook name)
BOUNDARIES = (
    ("cli", "main", "cli.main", None),
    ("cli", "build_model", "graded.build_model", "model"),
    ("graded", "build_model", "graded.build_model", "model"),
    ("cli", "verify_antisymmetry", "graded.antisymmetry", "pairs"),
    ("graded", "verify_antisymmetry", "graded.antisymmetry", "pairs"),
    ("cli", "verify_jacobi", "graded.jacobi", "triples"),
    ("graded", "verify_jacobi", "graded.jacobi", "triples"),
    ("cli", "verify_grading", "graded.grading", None),
    ("graded", "verify_grading", "graded.grading", None),
    ("cli", "verify_level_transition", "graded.level_transition", None),
    ("graded", "verify_level_transition", "graded.level_transition", None),
    ("cli", "subalgebra", "graded.subsystem", None),
    ("graded", "subalgebra", "graded.subsystem", None),
    ("graded", "SubModel.verify", "graded.subsystem", None),
    ("cli", "parse_preset_spec", "coord.parse_preset", None),
    ("coord", "parse_preset_spec", "coord.parse_preset", None),
    ("graded", "build_bb", "coord.build_bb", "bb"),
    ("coord", "build_bb", "coord.build_bb", "bb"),
    ("graded", "full_homology", "coord.full_homology", None),
    ("coord", "full_homology", "coord.full_homology", None),
    ("cli", "check_uniform", "coord.check_uniform", None),
    ("graded", "check_uniform", "coord.check_uniform", None),
    ("coord", "check_uniform", "coord.check_uniform", None),
    ("cli", "build_algebra", "liealg.build_algebra", None),
    ("graded", "build_algebra", "liealg.build_algebra", None),
    ("liealg", "build_algebra", "liealg.build_algebra", None),
    ("graded", "build_module", "liealg.build_module", None),
    ("liealg", "build_module", "liealg.build_module", None),
    ("cli", "generate", "rootsys.generate", None),
    ("graded", "generate", "rootsys.generate", None),
    ("liealg", "generate", "rootsys.generate", None),
    ("rootsys", "generate", "rootsys.generate", None),
    ("exactla", "rref", "exactla.rref", "rref"),
    ("coord", "rref", "exactla.rref", "rref"),
    ("graded", "rref", "exactla.rref", "rref"),
    ("liealg", "rref", "exactla.rref", "rref"),
    ("exactla", "Subspace.reduce", "exactla.reduce", None),
    ("exactla", "SparseMatrix.__matmul__", "exactla.matmul", None),
)


def _count_model(counts, args, model):
    counts["graded.model_dim"] += model.dim
    counts["graded.table_pairs"] += len(model.table)
    counts["graded.table_nnz"] += sum(len(row) for row in model.table.values())


def _count_bb(counts, args, bb):
    counts["coord.bb_dim"] += bb.dim
    counts["coord.tensor_dim"] += bb.tensor.dim
    counts["coord.relation_rank"] += bb.relations.dim


def _count_rref(counts, args, sub):
    counts["exactla.rref_rows_in"] += len(args[0])
    counts["exactla.rref_rank_out"] += sub.dim


def _count_pairs(counts, args, report):
    counts["graded.antisymmetry_pairs"] += report["pairs_checked"]


def _count_triples(counts, args, report):
    counts["graded.jacobi_triples"] += report["triples"]


COUNTERS = {
    "model": _count_model,
    "bb": _count_bb,
    "rref": _count_rref,
    "pairs": _count_pairs,
    "triples": _count_triples,
}
COUNT_NAMES = (
    "graded.model_dim",
    "graded.table_pairs",
    "graded.table_nnz",
    "coord.bb_dim",
    "coord.tensor_dim",
    "coord.relation_rank",
    "exactla.rref_rows_in",
    "exactla.rref_rank_out",
    "graded.antisymmetry_pairs",
    "graded.jacobi_triples",
)


def layer_of(name: str) -> str:
    return name.partition(".")[0]


class Tracer:
    """In-memory span log plus size counters, for one traced operation at a time."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in BOUNDARIES:
            owner = self.modules[module]
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, COUNTERS.get(hook)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1])
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading the log -------------------------------------------------

    def calls(self) -> Counter:
        """Number of spans of each name."""
        return Counter({self.names[nid]: n for nid, n in Counter(self.name_ids).items()})

    def span_time(self, outer, inner=lambda name: False) -> float:
        """Time covered by outermost `outer` spans, minus what their `inner`
        descendants cover.

        An `outer` span counts when no ancestor matches `outer` or `inner`
        or its nearest matching ancestor is an `inner` one (it then starts
        a fresh stretch of `outer` time).  An `inner` span is subtracted
        when its nearest ancestor matching either predicate is `outer`.
        With `inner` matching nothing this is the inclusive time of
        `outer`, counting nested same-named spans once.
        """
        kind_of_name = [1 if outer(n) else 2 if inner(n) else 0 for n in self.names]
        kinds = [kind_of_name[nid] for nid in self.name_ids]
        parents, starts, ends = self.parents, self.starts, self.ends
        total = 0.0
        for i, kind in enumerate(kinds):
            if not kind:
                continue
            p = parents[i]
            while p >= 0 and not kinds[p]:
                p = parents[p]
            above = kinds[p] if p >= 0 else 2
            if kind == 1 and above == 2:
                total += ends[i] - starts[i]
            elif kind == 2 and above == 1:
                total -= ends[i] - starts[i]
        return total

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last `reset`."""

        def named(name):
            return lambda n: n == name

        def in_layers(*layers):
            return lambda n: layer_of(n) in layers

        other_layers = [l for l in LAYERS if l != "coord"]
        out: dict[str, float] = dict(self.counts)
        for metric, span in (
            ("graded.antisymmetry_s", "graded.antisymmetry"),
            ("graded.build_model_s", "graded.build_model"),
            ("graded.jacobi_s", "graded.jacobi"),
            ("graded.grading_s", "graded.grading"),
            ("graded.subsystem_s", "graded.subsystem"),
            ("exactla.rref_s", "exactla.rref"),
            ("exactla.reduce_s", "exactla.reduce"),
            ("exactla.matmul_s", "exactla.matmul"),
            ("coord.build_bb_s", "coord.build_bb"),
            ("coord.full_homology_s", "coord.full_homology"),
            ("coord.check_uniform_s", "coord.check_uniform"),
            ("coord.parse_preset_s", "coord.parse_preset"),
            ("liealg.build_algebra_s", "liealg.build_algebra"),
            ("liealg.build_module_s", "liealg.build_module"),
            ("rootsys.generate_s", "rootsys.generate"),
        ):
            out[metric] = self.span_time(named(span))
        out["graded.build_self_s"] = self.span_time(
            named("graded.build_model"), in_layers("coord", "liealg", "rootsys")
        )
        out["coord.self_s"] = self.span_time(in_layers("coord"), in_layers(*other_layers))
        out["cli.self_s"] = self.span_time(in_layers("cli"), in_layers("graded"))
        calls = self.calls()
        out["exactla.rref_calls"] = calls["exactla.rref"]
        out["exactla.reduce_calls"] = calls["exactla.reduce"]
        out["exactla.matmul_calls"] = calls["exactla.matmul"]
        return out

    def spans_per_layer(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, n in self.calls().items():
            out[layer_of(name)] += n
        return out
