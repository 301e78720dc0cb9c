"""The benchmark's tracer wraps functions of the package by name; every
name it wraps must still be there, so moving or deleting a traced function
fails here and not only in the benchmark's own suite."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_boundary_resolves():
    tracing = _load_tracing()
    missing = []
    for module, attr, _name, _hook in tracing.BOUNDARIES:
        owner = importlib.import_module(f"rootgraded.{module}")
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        # the tracer replaces the entry in the owner's own namespace
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert missing == []
