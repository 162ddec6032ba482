"""The benchmark's tracer finds every library name it wraps, and the
calls it buckets carry what it buckets them by.

``perfbench/tracing.py`` swaps each ``TARGETS`` entry by looking the name
up in its owner's ``__dict__``; a rename in ``src/`` would otherwise break
only the traced benchmark run.  The module is imported without writing
bytecode next to it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from molvae import training
from molvae.molgraph import GraphBatch, MolecularGraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for owner, attr, span in tracing.TARGETS:
        assert attr in owner.__dict__, (span, owner, attr)


def test_elbo_passes_what_the_tracer_buckets_by(monkeypatch):
    # the tracer files each graph_logprob span under args[0].n and the
    # ``partition`` keyword, defaulting to "exact" when it is absent
    calls = []
    graph_logprob = training.graph_logprob

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return graph_logprob(*args, **kwargs)

    monkeypatch.setattr(training, "graph_logprob", recording)
    hyper = training.Hyperparams(D=4, K=2, L=2, mask_kind="none",
                                 partition="negative_sampled")
    model = training.init_model(np.random.default_rng(0), hyper, lambda_n=4.0)
    batch = GraphBatch([MolecularGraph(("C", "C", "O"), ((0, 1, 1), (1, 2, 1))),
                        MolecularGraph(("C", "N", "C"), ((0, 1, 2),))])
    training.elbo(batch, model, hyper, np.random.default_rng(1))
    (args, kwargs), = calls
    assert args[0] is batch
    assert kwargs["partition"] == hyper.partition
