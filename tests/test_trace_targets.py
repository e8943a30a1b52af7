"""The benchmark's tracer wraps rellink functions by name; a rename must fail here.

When a target is missing, the benchmark only logs ``not traced (missing)`` and
its per-layer figures read 0, so this checks that every target resolves.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Executed from source, so nothing (not even a bytecode cache) is written there.
tracing = types.ModuleType("perfbench_tracing")
exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
TARGETS = tracing.SETUP_TARGETS + tracing.OP_TARGETS


@pytest.mark.parametrize(
    "name, path, attr", TARGETS, ids=[f"{path}.{attr}" for _, path, attr in TARGETS]
)
def test_target_resolves(name, path, attr):
    assert path.startswith("rellink.")
    assert callable(getattr(tracing._resolve(path), attr, None)), f"{name}: {path}.{attr}"
