"""Seeded workload inputs and the fixed model fixture.

Everything a workload feeds the library comes from here, built from the
workload seed alone, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from molvae.molgraph import random_molecule
from molvae.training import Checkpoint, Hyperparams, load_checkpoint

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"
FIXTURE_CORPUS_SEED = 2024

# The acceptance-fixture training config (criterion 01).
FIXTURE_HYPER = Hyperparams(D=5, K=3, L=10, lr=0.005, batch_size=16,
                            iterations=500, seed=7, mask_kind="valence",
                            partition="negative_sampled")


# n 4-12, 22 or 23 molecules of each size
CORPUS_SIZES = tuple(4 + i % 9 for i in range(200))


def random_corpus(seed: int) -> list:
    """200 random molecules of the sizes in CORPUS_SIZES.

    Every seed gets the same size histogram, so train_small draws batches
    of the same sizes on every seed and throughput does not hinge on how
    many partial batches a seed's corpus happens to have.
    """
    return molecules_of_sizes(seed, CORPUS_SIZES)


def fixture_corpus() -> list:
    """The acceptance-fixture corpus: requested sizes drawn from 4-12,
    where random_molecule may stop short when valence saturates."""
    rng = np.random.default_rng(FIXTURE_CORPUS_SEED)
    return [random_molecule(rng, int(rng.integers(4, 13)))
            for _ in range(200)]


def molecules_of_sizes(seed: int, sizes) -> list:
    """One random molecule of exactly each requested size, in a seeded
    shuffled order.  Draws that stop short of the size are redrawn."""
    rng = np.random.default_rng(seed)
    out = []
    for n in rng.permutation(np.asarray(sizes)):
        while True:
            g = random_molecule(rng, int(n))
            if g.n == n:
                out.append(g)
                break
    return out


def load_fixture() -> Checkpoint:
    """The fixed checkpoint, after checking its bytes against the digest."""
    path = FIXTURE_DIR / "checkpoint.bin"
    want = (FIXTURE_DIR / "digest.txt").read_text().strip()
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    if got != want:
        raise ValueError(f"{path}: sha256 {got} does not match the recorded"
                         f" digest {want}")
    return load_checkpoint(path)
