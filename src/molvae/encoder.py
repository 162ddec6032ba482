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
float noise.  The same holds across a batch: graphs of one size stacked
along a leading axis get, row for row, the values each gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .molgraph import DEFAULT_TABLE, GraphBatch, MolecularGraph, ValenceTable


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

    mu: T.Tensor     # n x D, or B x n x D for a batch
    sigma: T.Tensor  # n x D, or B x n x D for a batch


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


def _graphs(g) -> tuple[tuple[MolecularGraph, ...], tuple[int, ...]]:
    """The graphs of ``g`` and the leading shape of their stacked arrays:
    () for one MolecularGraph, (B,) for a GraphBatch of B."""
    if isinstance(g, GraphBatch):
        return tuple(g), (len(g),)
    return (g,), ()


def features(g, params: EncoderParams,
             table: ValenceTable | None = None) -> np.ndarray:
    """One-hot atom types zero-padded to D columns (table order fixes
    slots), shape (n, D), or (B, n, D) for a GraphBatch."""
    table = table or DEFAULT_TABLE
    symbols = table.symbols
    if len(symbols) != params.n_types:
        raise ValueError("valence table alphabet does not match encoder n_types")
    graphs, lead = _graphs(g)
    slots = [symbols.index(sym) for gr in graphs for sym in gr.atom_types]
    out = np.zeros((len(slots), params.D))
    out[np.arange(len(slots)), slots] = 1.0
    return out.reshape(lead + (g.n, params.D))


class Neighbors:
    """Bond-weighted neighbor entries of a batch's block-diagonal graph.

    Node u of graph b is row b n + u.  Entry i says that row ``dst[i]``
    receives ``weight[i]`` times row ``src[i]``; entries are sorted by
    ``dst``, then ``src``.
    """

    def __init__(self, graphs):
        n = graphs[0].n
        dst, src, weight = [], [], []
        for b, g in enumerate(graphs):
            for u, v, order in g.bonds:
                dst += (b * n + u, b * n + v)
                src += (b * n + v, b * n + u)
                weight += (order, order)
        self.rows = len(graphs) * n
        by_dst = np.lexsort((src, dst))
        self.dst = np.asarray(dst, dtype=np.intp)[by_dst]
        self.src = np.asarray(src, dtype=np.intp)[by_dst]
        self.weight = np.asarray(weight, dtype=np.float64)[by_dst, None]


def _aggregate(c_prev: T.Tensor, nbrs: Neighbors) -> T.Tensor:
    """Sum of bond-weighted neighbor embeddings, accumulated canonically.

    One op for a whole batch: the bond-weighted neighbor rows are sorted
    by receiving node, then lexicographically, and one unbuffered
    ``np.add.at`` adds them one by one in that order.  So any relabeling
    that preserves the multiset of neighbor vectors produces the
    identical float result, whatever else the batch holds.  Nodes without
    neighbors aggregate to the zero vector.
    """
    shape = c_prev.data.shape
    cd = c_prev.data.reshape(nbrs.rows, shape[-1])
    rows = nbrs.weight * cd[nbrs.src]
    canonical = np.lexsort(tuple(rows[:, ::-1].T) + (nbrs.dst,))
    out = np.zeros_like(cd)
    np.add.at(out, nbrs.dst[canonical], rows[canonical])

    def backward(g_out):
        # the adjacency is symmetric: row v gets weight times g_out[u] for
        # every entry u -> v, added in entry order
        g_in = np.zeros_like(cd)
        np.add.at(g_in, nbrs.dst, nbrs.weight * g_out.reshape(cd.shape)[nbrs.src])
        return (g_in.reshape(shape),)

    return T.custom_op("aggregate", (c_prev,), out.reshape(shape), backward)


def embed(g, params: EncoderParams,
          table: ValenceTable | None = None) -> T.Tensor:
    """Concatenated hop embeddings c(1) || ... || c(K), shape (n, K*D), or
    (B, n, K*D) for a GraphBatch."""
    f = T.Tensor(features(g, params, table))
    nbrs = Neighbors(_graphs(g)[0])
    hops = [T.linear(f, params.hops[0])]
    for k in range(1, params.K):
        hops.append(T.mul(T.linear(f, params.hops[k]), _aggregate(hops[-1], nbrs)))
    return T.concat(hops, axis=-1)


def posterior(g, params: EncoderParams,
              table: ValenceTable | None = None) -> Posterior:
    """Per-node posterior moments; softplus keeps every sigma positive.

    ``g`` is one graph, giving (n, D) moments, or a GraphBatch, giving
    (B, n, D) moments in one stacked pass whose rows equal each graph's
    own posterior bit for bit.
    """
    if g.n < 1:
        raise ValueError("cannot encode an empty graph")
    code = embed(g, params, table)
    hidden = T.softplus(T.add(T.linear(code, params.w_hidden), params.b_hidden))
    mu = T.softplus(T.add(T.linear(hidden, params.w_mu), params.b_mu))
    sigma = T.softplus(T.add(T.linear(hidden, params.w_sigma), params.b_sigma))
    return Posterior(mu, sigma)


def sample_latent(mu, sigma, rng: np.random.Generator):
    """Reparameterized draw Z = mu + sigma * eps with eps ~ N(0, I).

    On Tensors it records two tape ops, a product and a sum, so gradients
    reach mu and sigma; on arrays (the CLI, the BO decoder) it is plain
    numpy.  Either way it consumes mu.shape standard normals from ``rng``.
    ``training.elbo`` applies the same formula to a batch, with each
    graph's noise drawn in turn between its other random choices.
    """
    return mu + sigma * rng.standard_normal(mu.shape)
