"""Permutation-invariant graph encoder.

Each node gets K neighborhood-aggregation embeddings: the first hop is a
linear map of the node's one-hot feature, and hop k gates that map
elementwise with the bond-order-weighted sum of the neighbors' hop-(k-1)
embeddings.  A two-layer softplus head turns the concatenated hops into a
per-node diagonal Gaussian posterior.

Aggregation accumulates neighbor vectors in ascending lexicographic order
and every affine layer is the row-stable ``tensor.linear``, the one
projection op, so relabeling the nodes permutes every intermediate
bit-for-bit: posterior multisets are exactly invariant, not just up to
float noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .molgraph import DEFAULT_TABLE, MolecularGraph, ValenceTable


@dataclass
class EncoderParams:
    """Hop matrices W_1..W_K plus the two-layer posterior head."""

    hops: list          # K tensors, each D x D
    w_hidden: T.Tensor  # D x (K*D)
    b_hidden: T.Tensor  # D
    w_mu: T.Tensor      # D x D
    b_mu: T.Tensor      # D
    w_sigma: T.Tensor   # D x D
    b_sigma: T.Tensor   # D
    D: int
    K: int
    n_types: int

    def tensors(self) -> list[tuple[str, T.Tensor]]:
        named = [(f"enc.hop{k + 1}", w) for k, w in enumerate(self.hops)]
        named += [("enc.w_hidden", self.w_hidden), ("enc.b_hidden", self.b_hidden),
                  ("enc.w_mu", self.w_mu), ("enc.b_mu", self.b_mu),
                  ("enc.w_sigma", self.w_sigma), ("enc.b_sigma", self.b_sigma)]
        return named


@dataclass
class Posterior:
    """Per-node diagonal Gaussian q(z_u) = N(mu[u], diag(sigma[u]^2))."""

    mu: T.Tensor     # n x D
    sigma: T.Tensor  # n x D


def init_encoder(rng: np.random.Generator, D: int, K: int,
                 n_types: int = 4) -> EncoderParams:
    """Random small-scale initialization; biases start at zero."""
    if D < n_types:
        raise ValueError(f"D={D} must be at least the alphabet size {n_types}")
    if K < 1:
        raise ValueError("K must be >= 1")
    hops = [T.Tensor(rng.normal(scale=1.0 / np.sqrt(D), size=(D, D))) for _ in range(K)]
    kd = K * D

    def head(rows, cols):
        return T.Tensor(rng.normal(scale=1.0 / np.sqrt(cols), size=(rows, cols)))

    return EncoderParams(
        hops=hops,
        w_hidden=head(D, kd), b_hidden=T.Tensor(np.zeros(D)),
        w_mu=head(D, D), b_mu=T.Tensor(np.zeros(D)),
        w_sigma=head(D, D), b_sigma=T.Tensor(np.zeros(D)),
        D=D, K=K, n_types=n_types,
    )


def features(g: MolecularGraph, params: EncoderParams,
             table: ValenceTable | None = None) -> np.ndarray:
    """One-hot atom types zero-padded to D columns (table order fixes slots)."""
    table = table or DEFAULT_TABLE
    symbols = table.symbols
    if len(symbols) != params.n_types:
        raise ValueError("valence table alphabet does not match encoder n_types")
    out = np.zeros((g.n, params.D))
    for u, sym in enumerate(g.atom_types):
        out[u, symbols.index(sym)] = 1.0
    return out


def _aggregate(c_prev: T.Tensor, adj) -> T.Tensor:
    """Sum of bond-weighted neighbor embeddings, accumulated canonically.

    Rows are sorted lexicographically before summing, so any relabeling that
    preserves the multiset of neighbor vectors produces the identical float
    result.  Nodes without neighbors aggregate to the zero vector.
    """
    cd = c_prev.data
    n, D = cd.shape
    out = np.zeros((n, D))
    for u, nbrs in enumerate(adj):
        if not nbrs:
            continue
        rows = np.stack([y * cd[v] for v, y in nbrs])
        order = np.lexsort(rows[:, ::-1].T)
        out[u] = rows[order].sum(axis=0)

    def backward(g_out):
        grad = np.zeros_like(cd)
        for u, nbrs in enumerate(adj):
            for v, y in nbrs:
                grad[v] += y * g_out[u]
        return (grad,)

    return T.custom_op("aggregate", (c_prev,), out, backward)


def embed(g: MolecularGraph, params: EncoderParams,
          table: ValenceTable | None = None) -> T.Tensor:
    """Concatenated hop embeddings c(1) || ... || c(K), shape n x K*D."""
    f = T.Tensor(features(g, params, table))
    adj = g.adjacency()
    hops = []
    gated = T.linear(f, params.hops[0])
    hops.append(gated)
    prev = gated
    for k in range(1, params.K):
        prev = T.mul(T.linear(f, params.hops[k]), _aggregate(prev, adj))
        hops.append(prev)
    return T.concat(hops, axis=1) if len(hops) > 1 else hops[0]


def posterior(g: MolecularGraph, params: EncoderParams,
              table: ValenceTable | None = None) -> Posterior:
    """Per-node posterior moments; softplus keeps every sigma positive."""
    if g.n < 1:
        raise ValueError("cannot encode an empty graph")
    code = embed(g, params, table)
    hidden = T.softplus(T.add(T.linear(code, params.w_hidden), params.b_hidden))
    mu = T.softplus(T.add(T.linear(hidden, params.w_mu), params.b_mu))
    sigma = T.softplus(T.add(T.linear(hidden, params.w_sigma), params.b_sigma))
    return Posterior(mu, sigma)


def sample_latent(mu, sigma, rng: np.random.Generator):
    """Reparameterized draw Z = mu + sigma * eps with eps ~ N(0, I).

    The one posterior draw: on Tensors (training) it records two tape ops,
    a product and a sum, so gradients reach mu and sigma; on arrays (the
    CLI, the BO decoder) it is plain numpy.  Either way it consumes
    mu.shape standard normals from ``rng``.
    """
    return mu + sigma * rng.standard_normal(mu.shape)
