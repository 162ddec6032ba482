"""Rebuild the benchmark's fixed model checkpoint from its seeded recipe.

The recipe is the acceptance-fixture training run: 200 random molecules
with 4 to 12 atoms drawn from seed 2024, then 500 Adam iterations with
D=5, K=3, L=10, batch 16, lr 0.005, the valence mask and the
negative-sampled partition, training seed 7.  A model trained for only a
few dozen iterations requests almost no edges, which would leave the masks
idle in the decoding workloads.

Run from the repository root:

    python3 perfbench/make_fixture.py

It writes perfbench/fixture/checkpoint.bin and perfbench/fixture/digest.txt
(the SHA-256 of the checkpoint file).  run.py refuses a checkpoint whose
bytes do not match the recorded digest, so every commit measures the same
model.  Training takes about a minute on one core.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import hashlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from molvae.training import save_checkpoint, train  # noqa: E402

from inputs import FIXTURE_HYPER, fixture_corpus  # noqa: E402


def main() -> int:
    out_dir = HERE / "fixture"
    out_dir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    ckpt = train(fixture_corpus(), FIXTURE_HYPER)
    path = out_dir / "checkpoint.bin"
    save_checkpoint(path, ckpt)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    (out_dir / "digest.txt").write_text(digest + "\n")
    print(f"trained {FIXTURE_HYPER.iterations} iterations in"
          f" {time.perf_counter() - t0:.1f} s; sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
