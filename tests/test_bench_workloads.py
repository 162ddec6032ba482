"""Every benchmark workload runs two steps in-process, without a failure or
a failed check, and its seed-1 warm-up pass gives the pinned digest.

``perfbench/workloads.py`` calls the library the way the CLI does, so a
signature change in ``src/`` that would break only the benchmark run
fails here.  The modules are imported without writing bytecode next to
them.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"

# perfbench/run.py's output digest of each workload's warm-up pass at seed 1.
# A change to src/ that moves one re-baselines the benchmark and must say so.
DIGESTS = {
    "train_small": "64e914ba2ebd7143145ff7ece005b61fab424a847de299116e04facd9dd23c77",
    "score_large": "9789694e6f61acf2ef3f4fec0d5142ac1ddf95d9c074cded9ff57c3f5c593647",
    "sample_large": "d736ebeb6ea8b25737204cc9db8a0211de32bb0a4b5d932085da71287b202de2",
    "bo": "13e507fb95824a32e070d697f9886535f22a440878984ea4fa575687ae3f61d4",
}


def test_every_workload_runs_two_steps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        loop = workload.run(workload.setup(1), workloads.Budget(steps=2))
        assert loop.steps == 2, name
        assert loop.failures == [] and loop.problems == [], name


def test_seed_1_warm_up_digests_are_pinned():
    """Run as perfbench/run.py runs them: a fresh interpreter with BLAS on
    one thread (on two threads ``bo``'s digest differs)."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(PERFBENCH)!r}, {str(SRC)!r}]\n"
        "import run\n"  # limits BLAS to one thread before numpy loads
        "from workloads import WORKLOADS, Budget\n"
        "for name, w in WORKLOADS.items():\n"
        "    warm = w.run(w.setup(1), Budget(steps=w.warmup_steps))\n"
        "    assert not warm.failures and not warm.problems, name\n"
        "    print(name, run.output_digest(w, warm)[0])\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    assert dict(line.split() for line in out.splitlines()) == DIGESTS
