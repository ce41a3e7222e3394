"""The benchmark's tracer (perfbench/tracing.py) wraps program functions
by module and attribute name, and reads ``GraphTensors.is_sparse``. The
benchmark's own tests run outside this suite, so a rename that breaks
tracing is caught here, by reading the tracer's table."""

import importlib
from pathlib import Path

from ipsim.encode import GraphTensors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracing_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for owner, attr, _ in tracing.TARGETS:
        # Tracer.install replaces owner.__dict__[attr].
        assert attr in vars(tracing._resolve(owner)), f"{owner}.{attr}"
    assert isinstance(GraphTensors.is_sparse, property)
