"""Encoder and masked decoder in isolation, before any training.

Encodes a molecule into per-node posteriors, shows their permutation
invariance, then drives the masked sequential decoder from latents and
inspects the generation trace.  Masking guarantees every decode respects
valence even with random weights.
"""

import numpy as np

from molvae.decoder import sample_graph
from molvae.encoder import posterior, sample_latent
from molvae.molgraph import DEFAULT_TABLE, random_molecule, valence_ok
from molvae.training import Hyperparams, init_model

rng = np.random.default_rng(0)
model = init_model(rng, Hyperparams(D=5, K=3))
mol = random_molecule(np.random.default_rng(42), 7, DEFAULT_TABLE)
print("input molecule:", mol.atom_types, "bonds:", len(mol.bonds))

# --- per-node posteriors --------------------------------------------------

post = posterior(mol, model.encoder, model.table)
print("posterior mu shape:", post.mu.data.shape)

perm = list(np.random.default_rng(1).permutation(mol.n))
post_p = posterior(mol.relabel(perm), model.encoder, model.table)
gap = np.max(np.abs(post.mu.data[perm] - post_p.mu.data))
print(f"relabeled rows match original ones: max gap {gap:.1e}")

# --- reparameterized latents feed the decoder -----------------------------

z = sample_latent(post.mu.data, post.sigma.data, rng)
g, trace = sample_graph(model.decoder, rng, z=z, mask_kind="valence",
                        table=model.table)
print("\ndecoded", g.n, "atoms,", len(g.bonds), "bonds;",
      "valence ok:", valence_ok(g))
print("trace log-probability:", round(trace.total_logprob, 4))
kinds = {}
for kind, _, _ in trace.steps:
    kinds[kind] = kinds.get(kind, 0) + 1
print("trace step kinds:", kinds)

# --- masked prior sampling never violates valence -------------------------

ok = 0
for i in range(50):
    sample, _ = sample_graph(model.decoder, np.random.default_rng(100 + i),
                             lambda_n=6.0, mask_kind="valence",
                             table=model.table)
    ok += valence_ok(sample)
print(f"\n50 untrained prior samples, valence-valid: {ok}/50")
