"""Sparse GP regression and batch BO, on a toy function and on molecules.

First fits the FITC sparse GP to a 1D function and shows calibrated
predictions, then runs expected-improvement BO on a synthetic objective,
and finally the molecule pipeline: embed a corpus, fit the GP to a proxy
property, propose latents, decode with valence masking, and rank.
"""

from functools import partial

import numpy as np

from molvae.encoder import posterior
from molvae.latentopt import (bo_loop, expected_improvement,
                              make_molecule_decoder, molecule_embedding,
                              proxy_property, sgp_fit, sgp_predict)
from molvae.molgraph import DEFAULT_TABLE, random_molecule
from molvae.training import Hyperparams, init_model

# --- sparse GP on a 1D function -------------------------------------------

rng = np.random.default_rng(0)
x = np.sort(rng.uniform(0, 6, size=60))[:, None]
y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(60)
model = sgp_fit(x, y, n_inducing=15, seed=1)
grid = np.linspace(0, 6, 7)[:, None]
mean, var = sgp_predict(model, grid)
print("sparse GP (15 inducing / 60 points) on sin(x)+noise:")
for g, m, v in zip(grid[:, 0], mean, var):
    print(f"  x={g:4.1f}  pred {m:+.3f}  truth {np.sin(g):+.3f}"
          f"  sd {np.sqrt(v):.3f}")

# --- expected improvement -------------------------------------------------

best = float(y.max())
ei = expected_improvement(mean, var, best)
print("\nEI across the grid:", np.round(ei, 4))

# --- BO on a known 1D objective -------------------------------------------

f = lambda v: -((v - 0.37) ** 2)
x0 = np.array([-1.0, -0.25, 0.6, 1.3])[:, None]


class Tok:
    def __init__(self, v):
        self.x = float(v)


result = bo_loop(x0, f(x0[:, 0]), decode_fn=lambda v: Tok(v[0]),
                 oracle=lambda t: f(t.x), iters=4, batch=4, seed=2,
                 valid_fn=lambda t: True, key_fn=lambda t: round(t.x, 9))
print(f"\n1D BO: best x {result.ranked[0][0].x:+.4f} (target +0.3700)"
      f" after {result.oracle_calls} evaluations")

# --- molecule pipeline ----------------------------------------------------

rng = np.random.default_rng(4)
vae = init_model(rng, Hyperparams(D=5, K=3))
corpus = [random_molecule(np.random.default_rng(60 + s),
                          int(np.random.default_rng(60 + s).integers(5, 9)),
                          DEFAULT_TABLE) for s in range(15)]
embs = np.array([molecule_embedding(posterior(m, vae.encoder, vae.table))
                 for m in corpus])
lam = float(np.mean([m.n for m in corpus]))
oracle = partial(proxy_property, lambda_n=lam)
scores = np.array([oracle(m) for m in corpus])
decode = make_molecule_decoder(vae, corpus, embs, rng, mask_kind="valence")
res = bo_loop(embs, scores, decode_fn=decode, oracle=oracle,
              iters=2, batch=8, seed=5)
print(f"\nmolecule BO: {len(res.ranked)} unique molecules,"
      f" fraction valid {res.fraction_valid:.2f}")
print("top scores:", [round(s, 3) for _, s in res.ranked[:5]])
