"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import DEFAULT_SEED, PINNED, WORKLOADS

sys.path.insert(0, str(run.SRC))
ROOT = run.SRC.parent

# The smallest headline6 model; it crosses all six layers.
SMALL = dataclasses.replace(WORKLOADS["headline6"], ops=WORKLOADS["headline6"].ops[:1])


def _report(op, mods, quads, seed):
    text, problems = op.run(mods, quads[op.preset], seed)
    assert problems == []
    return text


def test_traced_run_has_spans_in_every_layer():
    mods, quads = run.set_up(SMALL)
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        _report(SMALL.ops[0], mods, quads, DEFAULT_SEED)
    finally:
        tracer.uninstall()
    per_layer = tracer.spans_per_layer()
    assert set(per_layer) == set(tracing.LAYERS)
    assert all(count > 0 for count in per_layer.values()), per_layer
    metrics = tracer.metrics()
    assert metrics["graded.model_dim"] == 78
    assert 0 < metrics["graded.build_self_s"] < metrics["graded.build_model_s"]
    assert 0 < metrics["cli.self_s"]


def test_uninstall_restores_the_package():
    mods, _ = run.set_up(SMALL)
    before = {(m, a): vars(mods[m])[a] for m, a, _, _ in tracing.BOUNDARIES if "." not in a}
    tracer = tracing.Tracer(mods)
    tracer.install()
    tracer.uninstall()
    after = {(m, a): vars(mods[m])[a] for m, a in before}
    assert before == after
    assert mods["exactla"].SparseMatrix.__matmul__.__name__ == "__matmul__"
    assert not hasattr(mods["exactla"].Subspace.reduce, "__wrapped__")


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_traced_and_untraced_reports_are_identical(seed):
    mods, quads = run.set_up(SMALL)
    op = SMALL.ops[0]
    plain = _report(op, mods, quads, seed)
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        traced = _report(op, mods, quads, seed)
    finally:
        tracer.uninstall()
    assert traced == plain
    if seed == DEFAULT_SEED:
        gate = run.Gate(SMALL, seed, PINNED["headline6"])
        gate.record(op, plain, [])
        assert gate.failed == 0


def test_trace_run_passes_its_gate():
    twice = dataclasses.replace(SMALL, ops=SMALL.ops * 2)
    result = run.run(twice, 7, 0, 1, PINNED["headline6"])
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["graded.antisymmetry_pairs"]["value"] > 0
    assert metrics["graded.model_dim"]["value"] == 78
    assert isinstance(metrics["exactla.matmul_calls"]["value"], int)


def test_wrong_pinned_digest_fails(monkeypatch, capsys):
    monkeypatch.setenv("RG_LIE_THREADS", "2")
    wrong = {op.name: "0" * 64 for op in SMALL.ops}
    result = run.run(SMALL, DEFAULT_SEED, 0, 0, wrong)
    assert "RG_LIE_THREADS" not in run.os.environ
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    fail_frac = next(
        float(line.split()[1])
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("fail_frac ")
    )
    assert fail_frac > 0


def test_digest_is_not_pinned_for_other_seeds():
    gate = run.Gate(SMALL, 7, {op.name: "0" * 64 for op in SMALL.ops})
    gate.record(SMALL.ops[0], "report", [])
    gate.record(SMALL.ops[0], "report", [])
    assert gate.failed == 0
    gate.record(SMALL.ops[0], "another report", [])
    assert gate.failed == 1


def test_span_time_subtracts_child_layers():
    tracer = tracing.Tracer({})
    tracer.names = ["graded.build_model", "coord.build_bb", "exactla.rref"]
    spans = [  # name id, parent, start, end
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 5.0),
        (2, 1, 2.0, 3.0),
        (2, 2, 2.2, 2.5),
        (2, 0, 6.0, 7.0),
    ]
    for nid, parent, start, end in spans:
        tracer.name_ids.append(nid)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    metrics = tracer.metrics()
    assert metrics["graded.build_model_s"] == 10.0
    assert metrics["graded.build_self_s"] == 6.0
    assert metrics["coord.self_s"] == 3.0
    assert metrics["exactla.rref_s"] == 2.0
    assert metrics["exactla.rref_calls"] == 3


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(PINNED) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert set(PINNED[name]) == {op.name for op in workload.ops}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", "coordinate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
