"""rootgraded benchmark: time a workload end to end, or trace it layer by layer.

    python3 bench/run.py --workload headline6 --seed 42 --seconds 30 --trace 0

Run from a source checkout; the package is imported from its `src/`
directory, not from any installed copy.  One process, one thread, a
closed loop: the workload's operations are called in turn, each after
the previous one returned, until `--seconds` have passed and every
operation ran at least once.

`--trace 0` reports the end-to-end metrics; `--trace 1` calls each
operation untraced and then traced, and reports the per-layer metrics
from the traced calls (see bench/README.md).  Time metrics are the sum
over operations of each operation's median; the gated ones are scaled to a
reference host speed (see RefClock).  Every call is checked: it
fails on an exception, a check whose status is not ``pass``, a nonzero
exit code, or report bytes that differ from the pinned digest (or, where
no digest applies, from the first call of that operation in this run).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric, including the ungated ones, by name and unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, PINNED, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 7
PROBE_TERMS = 1000
PROBE_INTERVAL_S = 0.2
# About the median PROBE_TERMS probe time on the 2-core Xeon VM (Python 3.11)
# where the benchmark was defined; scaled times are seconds at this speed.
PROBE_REF_S = 0.004

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "graded.antisymmetry_s": "s",
    "graded.antisymmetry_pairs": "count",
    "graded.build_model_s": "s",
    "graded.build_self_s": "s",
    "graded.jacobi_s": "s",
    "graded.jacobi_triples": "count",
    "graded.jacobi_ns_per_triple": "ns",
    "graded.grading_s": "s",
    "graded.subsystem_s": "s",
    "graded.model_dim": "count",
    "graded.table_pairs": "count",
    "graded.table_nnz": "count",
    "exactla.rref_calls": "count",
    "exactla.rref_rows_in": "count",
    "exactla.rref_rank_out": "count",
    "exactla.rref_yield": "ratio",
    "exactla.rref_s": "s",
    "exactla.reduce_calls": "count",
    "exactla.reduce_s": "s",
    "exactla.matmul_calls": "count",
    "exactla.matmul_s": "s",
    "coord.build_bb_s": "s",
    "coord.full_homology_s": "s",
    "coord.check_uniform_s": "s",
    "coord.self_s": "s",
    "coord.tensor_dim": "count",
    "coord.relation_rank": "count",
    "coord.bb_dim": "count",
    "coord.parse_preset_s": "s",
    "liealg.build_algebra_s": "s",
    "liealg.build_module_s": "s",
    "rootsys.generate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "host.calib_s": "s",
}


def calibrate(terms: int = 20000) -> float:
    """Seconds for a fixed pure-Python Fraction loop of `terms` terms."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, terms + 1):
        total += Fraction(1, i * (i + 1))
    elapsed = time.perf_counter() - start
    if total != Fraction(terms, terms + 1):
        raise RuntimeError("calibration loop gave a wrong sum")
    return elapsed


class RefClock:
    """Times calls in seconds at a fixed reference host speed.

    The host is shared, and its speed for pure-Python work drifts by up to
    2x over seconds to minutes: on the 2-core VM where the benchmark was
    defined, raw times of identical 30-second runs spread by 13-30%
    (quartile distance over median).  So while a call runs, a timer signal runs a short
    probe, `calibrate(PROBE_TERMS)`, every PROBE_INTERVAL_S in the main
    thread, and one more probe runs after each call (and before the first).
    The probes' own time is taken out of the call's time, and the rest is
    scaled by PROBE_REF_S over the mean probe time around and during it.
    """

    def __init__(self):
        self.before = calibrate(PROBE_TERMS)
        self.during: list[float] = []

    def _probe(self, signum, frame):
        self.during.append(calibrate(PROBE_TERMS))

    def time(self, fn):
        """Returns (fn(), raw seconds, seconds at the reference speed)."""
        self.during = []
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        after = calibrate(PROBE_TERMS)
        probes = [self.before, *self.during, after]
        self.before = after
        raw = elapsed - sum(self.during)
        return result, raw, raw * PROBE_REF_S * len(probes) / sum(probes)


def import_package() -> dict:
    """A fresh import of every rootgraded module, checked to come from SRC."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "rootgraded"]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"rootgraded.{name}") for name in tracing.LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"rootgraded was imported from {origin}, not from {SRC}")
    return mods


def set_up(workload):
    """Package import plus preset parsing, with law validation."""
    mods = import_package()
    quads = {p: mods["coord"].parse_preset_spec(p) for p in workload.presets()}
    return mods, quads


class Gate:
    """Counts attempted and failed operations and checks report bytes."""

    def __init__(self, workload, seed, pinned):
        use_pins = seed == DEFAULT_SEED or not workload.seeded
        self.expected = dict(pinned) if use_pins else {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, op, text, problems) -> None:
        self.attempted += 1
        if text is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.digests.setdefault(op.name, digest)
            want = self.expected.setdefault(op.name, digest)
            if digest != want:
                problems = problems + [f"report digest {digest} != {want}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {op.name}: {p}", file=sys.stderr)


def execute(op, mods, quads, seed, gate, clock) -> tuple[float, float]:
    """Call op once and check it; returns its raw and scaled seconds."""

    def call():
        try:
            return op.run(mods, quads[op.preset], seed)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            return None, [f"exception {exc!r}"]

    (text, problems), raw, scaled = clock.time(call)
    gate.record(op, text, problems)
    return raw, scaled


def closed_loop(ops, seconds, step) -> None:
    """Call step(op) for ops in turn until `seconds` passed and each ran once.

    Garbage from earlier calls is collected before each call, outside the
    timed region, so every call starts from a comparable heap.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        gc.collect()
        step(ops[i % len(ops)])
        i += 1


def sum_of_medians(samples: dict[str, list[tuple[float, float]]], scaled: bool = True) -> float:
    """Sum over operations of each one's median (scaled or raw) time."""
    return sum(statistics.median(t[scaled] for t in v) for v in samples.values())


def traced_values(workload, mods, seconds, call):
    """Per-layer metrics, from each operation called untraced and then traced."""
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        for p in workload.presets():
            mods["coord"].parse_preset_spec(p)
    finally:
        tracer.uninstall()
    parse_s = tracer.metrics()["coord.parse_preset_s"]
    spans = tracer.spans_per_layer()
    plain = {op.name: [] for op in workload.ops}
    traced = {op.name: [] for op in workload.ops}
    layer = {op.name: [] for op in workload.ops}

    def step(op):
        plain[op.name].append(call(op))
        gc.collect()
        tracer.reset()
        tracer.install()
        try:
            traced[op.name].append(call(op))
        finally:
            tracer.uninstall()
        layer[op.name].append(tracer.metrics())
        for name, count in tracer.spans_per_layer().items():
            spans[name] += count

    closed_loop(workload.ops, seconds, step)
    values = {
        key: sum(statistics.median_low(m[key] for m in runs) for runs in layer.values())
        for key in next(iter(layer.values()))[0]
    }
    values["coord.parse_preset_s"] = parse_s
    rows_in = values["exactla.rref_rows_in"]
    values["exactla.rref_yield"] = values["exactla.rref_rank_out"] / rows_in if rows_in else 0.0
    triples = values["graded.jacobi_triples"]
    values["graded.jacobi_ns_per_triple"] = (
        values["graded.jacobi_s"] * 1e9 / triples if triples else 0.0
    )
    values["trace.overhead_frac"] = sum_of_medians(traced) / sum_of_medians(plain) - 1
    lines = [(f"spans.{name}", count, "count") for name, count in spans.items()]
    lines.append(("wall_s.untraced", sum_of_medians(plain), "s"))
    lines.append(("wall_s.traced", sum_of_medians(traced), "s"))
    return values, lines, plain


def run(workload, seed, seconds, trace, pinned) -> dict:
    """Measure one workload; returns the result object printed last."""
    os.environ.pop("RG_LIE_THREADS", None)
    calib = [calibrate()]
    clock = RefClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        (mods, quads), *times = clock.time(lambda: set_up(workload))
        setups.append(times)
    gate = Gate(workload, seed, pinned)

    def call(op):
        return execute(op, mods, quads, seed, gate, clock)

    if trace:
        values, lines, plain = traced_values(workload, mods, seconds, call)
        units = PER_LAYER
    else:
        plain = {op.name: [] for op in workload.ops}
        closed_loop(workload.ops, seconds, lambda op: plain[op.name].append(call(op)))
        values = {
            "wall_s": sum_of_medians(plain),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines = [
            ("wall_s.raw", sum_of_medians(plain, scaled=False), "s"),
            ("setup_s.raw", statistics.median(raw for raw, _ in setups), "s"),
        ]
        units = END_TO_END
    calib.append(calibrate())
    values["host.calib_s"] = statistics.median(calib)
    lines.append(("host.calib_s.start", calib[0], "s"))
    lines.append(("host.calib_s.end", calib[1], "s"))
    lines.append(("fail_frac", gate.failed / gate.attempted, "ratio"))
    for name, times in plain.items():
        lines.append((f"op.{name}.median_s", statistics.median(t for _, t in times), "s"))
        lines.append((f"op.{name}.calls", len(times), "count"))
    for name, value, unit in lines + [(k, values[k], units.get(k, "s")) for k in sorted(values)]:
        number = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{name:48s} {number} {unit}")
    for name, digest in gate.digests.items():
        print(f"digest {name}: {digest}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import rootgraded from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, args.trace, PINNED[workload.name])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
