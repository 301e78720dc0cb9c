"""Every operation of the benchmark's three workloads, run once at its
default seed: its report bytes must hash to the digest the benchmark pins
(``bench/workloads.py``, read here and never changed).  The benchmark run
compares the same digests, but only when it runs."""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from rootgraded.coord import parse_preset_spec

_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("pinned_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
# the dataclasses it defines look their module up by name
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)

# the package's modules, as the benchmark hands them to each operation
MODS = {
    name: importlib.import_module(f"rootgraded.{name}")
    for name in ("rootsys", "liealg", "coord", "exactla", "graded", "cli")
}


@pytest.mark.parametrize(
    "workload,op",
    [(w.name, op) for w in workloads.WORKLOADS.values() for op in w.ops],
    ids=lambda v: getattr(v, "name", v),
)
def test_report_digest_is_pinned(workload, op):
    text, problems = op.run(MODS, parse_preset_spec(op.preset), workloads.DEFAULT_SEED)
    assert problems == []
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == workloads.PINNED[workload][op.name]
