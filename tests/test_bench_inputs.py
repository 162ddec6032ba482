"""The benchmark's seeded inputs keep their bytes.

Every workload's corpus comes from ``perfbench/inputs.py``, which draws it
with ``molgraph.random_molecule``.  A change to the generator that moves a
single draw would change what the benchmark measures, so the corpora are
pinned here by the SHA-256 of their JSONL text (the bytes ``write_corpus``
writes).  The modules are imported without writing bytecode next to them.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from molvae.molgraph import graph_to_obj

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

RANDOM_CORPUS = {
    1: "a994474452fc6efd8773bcf579527d987e677fe172c9409cb7b45d1d2ee7c806",
    2: "3ffb2ca43e25f549221cfb1ee260e564b9b496ca023f353c0a9ccd96db748fe3",
    3: "1871d3c55b8b88273df7909eb376d7cd3a25ba33abebd172c2e49bd2e1a3a244",
}
SCORE_POOL = {
    1: "2cf8288ca45aa80bb24cc0d9a1dedb6de80166989f25e1becf2a1fd7c4345110",
    2: "97ebcedde426c3ae1baca2c534c6766700f5110198c82e46dd9be374314395b4",
    3: "b544944de7f38a2341376d2c3d20270030078f60b5a208eb278d61a4741b55e7",
}
FIXTURE_CORPUS = \
    "0a14623a209492074341475d597b86e09459effce0e74bf1d44159213e45aec8"


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update((json.dumps(graph_to_obj(g)) + "\n").encode())
    return h.hexdigest()


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return (importlib.import_module("inputs"),
            importlib.import_module("workloads"))


@pytest.mark.parametrize("seed", sorted(RANDOM_CORPUS))
def test_random_corpus_is_pinned(perfbench, seed):
    inputs, _ = perfbench
    assert _digest(inputs.random_corpus(seed)) == RANDOM_CORPUS[seed]


@pytest.mark.parametrize("seed", sorted(SCORE_POOL))
def test_score_pool_is_pinned(perfbench, seed):
    inputs, workloads = perfbench
    pool = inputs.molecules_of_sizes(seed, workloads.SCORE_SIZES)
    assert _digest(pool) == SCORE_POOL[seed]


def test_fixture_corpus_is_pinned(perfbench):
    inputs, _ = perfbench
    assert _digest(inputs.fixture_corpus()) == FIXTURE_CORPUS
