"""Every benchmark workload runs two steps in-process, without a failure or
a failed check.

``perfbench/workloads.py`` calls the library the way the CLI does, so a
signature change in ``src/`` that would break only the benchmark run
fails here.  The modules are imported without writing bytecode next to
them.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_two_steps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        loop = workload.run(workload.setup(1), workloads.Budget(steps=2))
        assert loop.steps == 2, name
        assert loop.failures == [] and loop.problems == [], name
