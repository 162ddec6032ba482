"""Sequential masked graph decoder.

Given per-node latents Z, the decoder factorizes a labeled graph as: atom
types (per-node softmax), an edge count (Poisson with a permutation-invariant
log rate), then one (edge, bond-order) pair per step, each a masked softmax
over the surviving candidates.  The same log-probability code serves taped
training (exact or negative-sampled edge partitions) and untaped scoring.

Sampling does not go through the tape.  The edge and bond-order heads are
linear in z_u + z_v, so ``draw_heads`` evaluates every head once per draw
in plain numpy from one projection per node, and each step only indexes
those arrays at its candidates.

Sampling with a mask state guarantees the masked property by construction:
masked pairs and orders are never proposed, a pair with no allowed order is
rejected and never proposed again, and generation stops early once no
candidate remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .masks import BOND_ORDERS, MaskState, make_state
from .molgraph import DEFAULT_TABLE, MolecularGraph, ValenceTable


@dataclass
class DecoderParams:
    """Softplus heads over latents: types, edge rate, edge logits, orders."""

    w_type: T.Tensor       # n_types x D
    b_type: T.Tensor       # n_types
    w_count: T.Tensor      # D x D   per-node transform, summed over nodes
    b_count: T.Tensor      # D
    w_count_out: T.Tensor  # 1 x D   linear head to the scalar log rate
    b_count_out: T.Tensor  # scalar
    w_edge: T.Tensor       # 1 x D   symmetric pair combine z_u + z_v
    b_edge: T.Tensor       # scalar
    w_order: T.Tensor      # 3 x D
    b_order: T.Tensor      # 3
    D: int
    n_types: int

    def tensors(self) -> list[tuple[str, T.Tensor]]:
        return [("dec.w_type", self.w_type), ("dec.b_type", self.b_type),
                ("dec.w_count", self.w_count), ("dec.b_count", self.b_count),
                ("dec.w_count_out", self.w_count_out), ("dec.b_count_out", self.b_count_out),
                ("dec.w_edge", self.w_edge), ("dec.b_edge", self.b_edge),
                ("dec.w_order", self.w_order), ("dec.b_order", self.b_order)]


@dataclass
class GenerationTrace:
    """Every random choice of one decode, with its log-probability."""

    n: int
    atoms: tuple[str, ...]
    edge_count: int
    edges: list[tuple[int, int, int]]
    steps: list[tuple[str, object, float]] = field(default_factory=list)
    early_stopped: bool = False
    z: np.ndarray | None = None

    @property
    def total_logprob(self) -> float:
        return float(sum(logp for _, _, logp in self.steps))


def init_decoder(rng: np.random.Generator, D: int, n_types: int = 4) -> DecoderParams:
    def mat(rows, cols):
        return T.Tensor(rng.normal(scale=1.0 / np.sqrt(cols), size=(rows, cols)))

    return DecoderParams(
        w_type=mat(n_types, D), b_type=T.Tensor(np.zeros(n_types)),
        w_count=mat(D, D), b_count=T.Tensor(np.zeros(D)),
        w_count_out=mat(1, D), b_count_out=T.Tensor(0.0),
        w_edge=mat(1, D), b_edge=T.Tensor(0.0),
        w_order=mat(3, D), b_order=T.Tensor(np.zeros(3)),
        D=D, n_types=n_types,
    )


# ---------------------------------------------------------------------------
# heads

def type_logits(z: T.Tensor, params: DecoderParams) -> T.Tensor:
    """Positive atom-type logits, one row per node: softplus(W z_u + b)."""
    return T.softplus(T.add(T.matmul(z, T.transpose(params.w_type)), params.b_type))


def edge_count_dist(z: T.Tensor, params: DecoderParams) -> tuple[T.Tensor, T.Tensor]:
    """(rate, log rate) of the Poisson edge count; invariant to node order.

    Per-node softplus features are summed over nodes before the linear
    scalar head, so any node relabeling leaves the rate unchanged.
    """
    h = T.softplus(T.add(T.matmul(z, T.transpose(params.w_count)), params.b_count))
    pooled = T.reshape(T.sum_axis(h, axis=0), (1, -1))
    log_rate = T.reshape(T.matmul(pooled, T.transpose(params.w_count_out)), ()) + params.b_count_out
    return T.exp(log_rate), log_rate


def poisson_logpmf(k: int, rate, log_rate):
    """log Poisson(k; rate), for Tensors or plain floats alike."""
    return float(k) * log_rate - rate - math.lgamma(k + 1)


def edge_logits(z: T.Tensor, pairs, params: DecoderParams) -> T.Tensor:
    """Scalar logit per candidate pair from the symmetric combine z_u + z_v."""
    us = np.fromiter((p[0] for p in pairs), dtype=np.intp, count=len(pairs))
    vs = np.fromiter((p[1] for p in pairs), dtype=np.intp, count=len(pairs))
    x = T.add(T.gather_rows(z, us), T.gather_rows(z, vs))
    out = T.add(T.matmul(x, T.transpose(params.w_edge)), params.b_edge)
    return T.reshape(T.softplus(out), (-1,))


def order_logits(z: T.Tensor, pair, params: DecoderParams) -> T.Tensor:
    """Bond-order logits (length 3) for one pair."""
    u, v = pair
    x = T.add(T.gather_rows(z, np.array([u])), T.gather_rows(z, np.array([v])))
    out = T.add(T.matmul(x, T.transpose(params.w_order)), params.b_order)
    return T.reshape(T.softplus(out), (-1,))


# ---------------------------------------------------------------------------
# log-probability terms

def feature_logprob(g: MolecularGraph, z: T.Tensor, params: DecoderParams,
                    table: ValenceTable | None = None) -> T.Tensor:
    """Sum over nodes of log softmax(type logits)[atom type]."""
    table = table or DEFAULT_TABLE
    logits = type_logits(z, params)
    idx = np.array([table.index(sym) for sym in g.atom_types], dtype=np.intp)
    flat = T.reshape(logits, (-1,))
    own = T.gather_rows(flat, idx + np.arange(g.n) * params.n_types)
    norm = T.logsumexp(logits, axis=1)
    return T.sum_all(own) - T.sum_all(norm)


def edge_step_logprob(z: T.Tensor, state: MaskState, pair, params: DecoderParams,
                      partition: str = "exact", L: int = 10,
                      rng: np.random.Generator | None = None) -> T.Tensor:
    """Log-probability that the next edge is ``pair``.

    ``exact`` normalizes over every unmasked candidate.  ``negative_sampled``
    estimates the partition as exp(true logit) + (pool/L) * sum of L distinct
    uniformly drawn other candidates; with L at least the pool size this
    reduces to the exact sum.
    """
    pair = (min(pair), max(pair))
    if not state.edge_mask(pair):
        raise ValueError(f"edge {pair} is masked or already used")
    if partition == "exact":
        cands = state.candidates()
        logits = edge_logits(z, cands, params)
        true_idx = cands.index(pair)
        true = T.gather_rows(logits, np.array([true_idx]))
        return T.reshape(true, ()) - T.logsumexp(logits)
    if partition != "negative_sampled":
        raise ValueError(f"unknown partition mode {partition!r}")
    if rng is None:
        raise ValueError("negative_sampled partition needs an rng")
    pool = state.candidate_count(exclude=pair)
    negs = state.sample_candidates(rng, L, exclude=pair)
    logits = edge_logits(z, [pair] + negs, params)
    if not negs:
        return T.Tensor(0.0)
    true = T.reshape(T.gather_rows(logits, np.array([0])), ())
    offset = math.log(pool / len(negs))
    terms = T.concat([T.reshape(true, (1,)), T.gather_rows(logits, np.arange(1, len(negs) + 1)) + offset])
    return true - T.logsumexp(terms)


def weight_step_logprob(z: T.Tensor, state: MaskState, pair, order: int,
                        params: DecoderParams) -> T.Tensor:
    """Log-probability of the bond order under the masked order softmax."""
    allowed = state.allowed_orders(pair)
    if order not in allowed:
        raise ValueError(f"order {order} masked for pair {pair} (allowed {allowed})")
    logits = order_logits(z, pair, params)
    idx = np.array([m - 1 for m in allowed], dtype=np.intp)
    visible = T.gather_rows(logits, idx)
    own = T.reshape(T.gather_rows(logits, np.array([order - 1])), ())
    return own - T.logsumexp(visible)


def graph_logprob(g: MolecularGraph, z: T.Tensor, edge_sequence,
                  params: DecoderParams, partition: str = "exact", L: int = 10,
                  mask_kind: str = "none", table: ValenceTable | None = None,
                  rng: np.random.Generator | None = None) -> T.Tensor:
    """Log-likelihood of a graph under one edge generation order.

    ``edge_sequence`` lists (u, v) pairs covering g.bonds exactly once, in
    the order the decoder is charged for them.
    """
    table = table or DEFAULT_TABLE
    seq = [(min(u, v), max(u, v)) for u, v in edge_sequence]
    bond_orders = {(u, v): o for u, v, o in g.bonds}
    if sorted(seq) != sorted(bond_orders):
        raise ValueError("edge_sequence must cover the graph's bonds exactly once")
    total = feature_logprob(g, z, params, table)
    rate, log_rate = edge_count_dist(z, params)
    total = total + poisson_logpmf(len(seq), rate, log_rate)
    state = make_state(mask_kind, atom_types=g.atom_types, table=table)
    for pair in seq:
        total = total + edge_step_logprob(z, state, pair, params, partition, L, rng)
        total = total + weight_step_logprob(z, state, pair, bond_orders[pair], params)
        state.commit(pair, bond_orders[pair])
    return total


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class DrawHeads:
    """Every head of one draw as a plain array."""

    types: np.ndarray   # n x n_types: row u is type_logits row u
    rate: float         # edge_count_dist
    log_rate: float
    edges: np.ndarray   # n x n: [u, v] is edge_logits of (u, v)
    orders: np.ndarray  # n x n x 3: [u, v] is order_logits of (u, v)


def _check_finite(head: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite {head} head in sample_graph")


def draw_heads(z: np.ndarray, params: DecoderParams) -> DrawHeads:
    """``type_logits``, ``edge_count_dist``, ``edge_logits`` and
    ``order_logits`` for every node and pair of ``z``, off the tape.

    The pair heads are linear in z_u + z_v, so they come from one projection
    per node: softplus(a_u + a_v + b) with a = z w^T.  Each array is checked
    once for finite values (a FloatingPointError names the head), and the
    rate's exp raises on overflow as ``T.exp`` does.
    """
    softplus = T.softplus_array
    types = softplus(z @ params.w_type.data.T + params.b_type.data)
    _check_finite("type", types)
    h = softplus(z @ params.w_count.data.T + params.b_count.data)
    pooled = h.sum(axis=0).reshape(1, -1)
    log_rate = (pooled @ params.w_count_out.data.T).reshape(()) + params.b_count_out.data
    _check_finite("edge count", log_rate)
    rate = T.exp_array(log_rate)
    a = z @ params.w_edge.data[0]
    edges = softplus(a[:, None] + a[None, :] + params.b_edge.data)
    _check_finite("edge", edges)
    o = z @ params.w_order.data.T
    orders = softplus(o[:, None, :] + o[None, :, :] + params.b_order.data)
    _check_finite("bond order", orders)
    return DrawHeads(types, float(rate), float(log_rate), edges, orders)


def _softmax_choice(rng: np.random.Generator, logits: np.ndarray) -> tuple[int, float]:
    """Draw from softmax(logits) by inverse CDF: the arithmetic of
    ``rng.choice(len(p), p=p)``, so seeded draws match it."""
    shifted = logits - logits.max()
    p = np.exp(shifted)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    idx = int(cdf.searchsorted(rng.random(), side="right"))
    return idx, float(np.log(p[idx]))


def sample_graph(params: DecoderParams, rng: np.random.Generator, *,
                 lambda_n: float | None = None, n: int | None = None,
                 z: np.ndarray | None = None, mask_kind: str = "valence",
                 table: ValenceTable | None = None) -> tuple[MolecularGraph, GenerationTrace]:
    """Draw one graph: node count, latents, atoms, edge count, edge steps.

    Provide ``z`` (and implicitly n) to decode a fixed latent set, ``n`` to
    fix the size only, or ``lambda_n`` to draw n from a zero-truncated
    Poisson.  The trace records every choice with its log-probability.
    The heads come from ``draw_heads``, once per draw and without the tape;
    a non-finite head, including one from a non-finite ``z``, raises
    FloatingPointError.
    """
    table = table or DEFAULT_TABLE
    steps: list[tuple[str, object, float]] = []
    if z is not None:
        z = np.asarray(z, dtype=np.float64)
        if n is not None and n != z.shape[0]:
            raise ValueError("n disagrees with z row count")
        n = z.shape[0]
    elif n is None:
        if lambda_n is None:
            raise ValueError("need one of z, n, lambda_n")
        # zero-truncated Poisson: resample while n == 0
        while True:
            n = int(rng.poisson(lambda_n))
            if n >= 1:
                break
        logp0 = -lambda_n  # log P(N=0)
        logp = n * math.log(lambda_n) - lambda_n - math.lgamma(n + 1) \
            - math.log1p(-math.exp(logp0))
        steps.append(("node_count", n, logp))
    if n < 1:
        raise ValueError("cannot sample an empty graph")
    if z is None:
        z = rng.standard_normal((n, params.D))
    heads = draw_heads(z, params)

    symbols = table.symbols
    atoms = []
    for u in range(n):
        idx, logp = _softmax_choice(rng, heads.types[u])
        atoms.append(symbols[idx])
        steps.append(("feature", (u, symbols[idx]), logp))
    atoms = tuple(atoms)

    l = int(rng.poisson(heads.rate))
    steps.append(("edge_count", l, poisson_logpmf(l, heads.rate, heads.log_rate)))

    state = make_state(mask_kind, atom_types=atoms, table=table)
    edges: list[tuple[int, int, int]] = []
    early = False
    while len(edges) < l:
        cands = state.candidates()
        if not cands:
            early = True
            steps.append(("stop", len(edges), 0.0))
            break
        el = heads.edges.take([u * n + v for u, v in cands])
        idx, logp = _softmax_choice(rng, el)
        pair = cands[idx]
        allowed = state.allowed_orders(pair)
        if not allowed:
            state.reject(pair)
            steps.append(("reject", pair, logp))
            continue
        steps.append(("edge", pair, logp))
        oidx, ologp = _softmax_choice(rng, heads.orders[pair][[m - 1 for m in allowed]])
        order = allowed[oidx]
        steps.append(("order", (pair, order), ologp))
        state.commit(pair, order)
        edges.append((pair[0], pair[1], order))

    graph = MolecularGraph(atoms, tuple(edges))
    trace = GenerationTrace(n=n, atoms=atoms, edge_count=l, edges=edges,
                            steps=steps, early_stopped=early, z=z)
    return graph, trace
