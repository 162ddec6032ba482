"""The benchmark's tracer finds every library name it wraps.

``perfbench/tracing.py`` swaps each ``TARGETS`` entry by looking the name
up in its owner's ``__dict__``; a rename in ``src/`` would otherwise break
only the traced benchmark run.  The module is imported without writing
bytecode next to it.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for owner, attr, span in tracing.TARGETS:
        assert attr in owner.__dict__, (span, owner, attr)
