"""Sequential masked graph decoder.

Given per-node latents Z, the decoder factorizes a labeled graph as: atom
types (per-node softmax), an edge count (Poisson with a permutation-invariant
log rate), then one (edge, bond-order) pair per step, each a masked softmax
over the surviving candidates.  The same log-probability code serves taped
training (exact or negative-sampled edge partitions) and untaped scoring.

Every head is defined once, in ``heads``, and evaluated once per graph:
the edge and bond-order heads are linear in z_u + z_v, so one projection
per node scores every pair.  The likelihood scores the whole edge sequence
as one tape op over those score arrays: its forward pass walks the mask
state step by step, and its backward pass scatters every step's one-hot
minus softmax into one gradient array per score array.  It equals the
composition of the per-step ``edge_step_logprob`` and
``weight_step_logprob``.  The sampler reads the same scores untaped.

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
from .masks import MaskState, make_state
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


@dataclass(frozen=True)
class Heads:
    """Every head of one decode; pair (u, v) scores at flat index u n + v."""

    types: T.Tensor     # n x n_types, from type_logits
    rate: T.Tensor      # scalar, from edge_count_dist
    log_rate: T.Tensor  # scalar
    edges: T.Tensor     # n * n
    orders: T.Tensor    # n * n * 3: order m of a pair at 3 (u n + v) + m - 1


def heads(z: T.Tensor, params: DecoderParams) -> Heads:
    """Every head for the nodes of ``z``, evaluated once per graph.

    The edge and bond-order heads are linear in z_u + z_v, so each comes
    from one projection per node, summed over all pairs by broadcasting:
    softplus(a_u + a_v + b) with a = z w^T.
    """
    n = z.shape[0]
    types = type_logits(z, params)
    rate, log_rate = edge_count_dist(z, params)
    a = T.matmul(z, T.transpose(params.w_edge))
    edges = T.softplus(T.add(T.add(a, T.transpose(a)), params.b_edge))
    o = T.matmul(z, T.transpose(params.w_order))
    pair_o = T.add(T.reshape(o, (n, 1, 3)), T.reshape(o, (1, n, 3)))
    orders = T.softplus(T.add(pair_o, params.b_order))
    return Heads(types, rate, log_rate, T.reshape(edges, (-1,)),
                 T.reshape(orders, (-1,)))


def _edge_index(pairs, n: int) -> list[int]:
    return [u * n + v for u, v in pairs]


def _order_index(pair, n: int, orders) -> list[int]:
    base = (pair[0] * n + pair[1]) * 3 - 1
    return [base + m for m in orders]


# ---------------------------------------------------------------------------
# log-probability terms

def feature_logprob(g: MolecularGraph, h: Heads,
                    table: ValenceTable | None = None) -> T.Tensor:
    """Sum over nodes of log softmax(type logits)[atom type]."""
    table = table or DEFAULT_TABLE
    idx = np.array([table.index(sym) for sym in g.atom_types], dtype=np.intp)
    flat = T.reshape(h.types, (-1,))
    own = T.gather_rows(flat, idx + np.arange(g.n) * h.types.shape[1])
    norm = T.logsumexp(h.types, axis=1)
    return T.sum_all(own) - T.sum_all(norm)


def _edge_terms(state: MaskState, pair, n: int, partition: str, L: int,
                rng: np.random.Generator | None):
    """Flat edge-score indices of one edge step's softmax terms, with the
    constant added to each term (None for ``exact``); (None, None) when
    negative sampling finds no other candidate, a certain step."""
    if not state.edge_mask(pair):
        raise ValueError(f"edge {pair} is masked or already used")
    if partition == "exact":
        return _edge_index(state.candidates(), n), None
    if partition != "negative_sampled":
        raise ValueError(f"unknown partition mode {partition!r}")
    if rng is None:
        raise ValueError("negative_sampled partition needs an rng")
    pool = state.candidate_count(exclude=pair)
    negs = state.sample_candidates(rng, L, exclude=pair)
    if not negs:
        return None, None
    offset = np.full(len(negs) + 1, math.log(pool / len(negs)))
    offset[0] = 0.0
    return _edge_index([pair] + negs, n), offset


def _order_terms(state: MaskState, pair, order: int, n: int) -> tuple[list[int], int]:
    """Flat order-score indices of the pair's allowed orders, and the
    position of ``order`` among them."""
    allowed = state.allowed_orders(pair)
    if order not in allowed:
        raise ValueError(f"order {order} masked for pair {pair} (allowed {allowed})")
    return _order_index(pair, n, allowed), allowed.index(order)


def edge_step_logprob(h: Heads, state: MaskState, pair,
                      partition: str = "exact", L: int = 10,
                      rng: np.random.Generator | None = None) -> T.Tensor:
    """Log-probability that the next edge is ``pair``.

    ``exact`` normalizes over every unmasked candidate.  ``negative_sampled``
    estimates the partition as exp(true logit) + (pool/L) * sum of L distinct
    uniformly drawn other candidates; with L at least the pool size this
    reduces to the exact sum.
    """
    pair = (min(pair), max(pair))
    n = h.types.shape[0]
    idx, offset = _edge_terms(state, pair, n, partition, L, rng)
    if idx is None:
        return T.Tensor(0.0)
    terms = T.gather_rows(h.edges, idx)
    if offset is not None:
        terms = terms + offset
    return T.gather_rows(h.edges, pair[0] * n + pair[1]) - T.logsumexp(terms)


def weight_step_logprob(h: Heads, state: MaskState, pair, order: int) -> T.Tensor:
    """Log-probability of the bond order under the masked order softmax."""
    idx, k = _order_terms(state, pair, order, h.types.shape[0])
    visible = T.gather_rows(h.orders, idx)
    return T.gather_rows(visible, k) - T.logsumexp(visible)


_ONE = np.ones(1)  # the true term's +1 in a step's one-hot minus softmax


def _scatter(like: np.ndarray, steps_idx, steps_val, g) -> np.ndarray:
    """g times every step's (index, value) pairs summed into zeros, last
    step first: the order in which the per-step composition's backward
    adds them, so the sums round alike."""
    out = np.zeros_like(like)
    if steps_idx:
        np.add.at(out, np.concatenate(steps_idx[::-1]),
                  g * np.concatenate(steps_val[::-1]))
    return out


def _sequence_logprob(total: T.Tensor, h: Heads, state: MaskState, seq,
                      bond_orders, partition: str, L: int,
                      rng: np.random.Generator | None) -> T.Tensor:
    """``total`` plus every edge and bond-order step of ``seq``, one tape op.

    The forward pass makes the mask calls of ``edge_step_logprob`` and
    ``weight_step_logprob`` in their order, so it draws the same negatives,
    and adds each step's score[true] - logsumexp(terms) to the running total
    as their composition does, so the value is bit-identical.  Under a tape
    the backward pass scatters every step's one-hot minus softmax into one
    gradient array per score array, in the composition's order, so the
    gradients are bit-identical too.  Untaped, nothing is kept for it.
    """
    n = h.types.shape[0]
    edges, orders = h.edges.data, h.orders.data
    taped = T.recording()
    # per step: indices and values of the one-hot minus softmax, the +1
    # first for an edge step and last for an order step, as the
    # composition's backward adds them
    e_idx: list[np.ndarray] = []
    e_val: list[np.ndarray] = []
    o_idx: list[np.ndarray] = []
    o_val: list[np.ndarray] = []
    out = total.data
    for pair in seq:
        true = pair[0] * n + pair[1]
        idx, offset = _edge_terms(state, pair, n, partition, L, rng)
        if idx is not None:
            terms = edges[idx] if offset is None else edges[idx] + offset
            lse = T.logsumexp_array(terms)
            out = out + (edges[true] - lse)
            if taped:
                e_idx.append(np.array([true] + idx, dtype=np.intp))
                e_val.append(np.concatenate((_ONE, -np.exp(terms - lse))))
        order = bond_orders[pair]
        idx, k = _order_terms(state, pair, order, n)
        visible = orders[idx]
        lse = T.logsumexp_array(visible)
        out = out + (visible[k] - lse)
        if taped:
            o_idx.append(np.array(idx + [idx[k]], dtype=np.intp))
            o_val.append(np.concatenate((-np.exp(visible - lse), _ONE)))
        state.commit(pair, order)

    def backward(g):
        return g, _scatter(edges, e_idx, e_val, g), _scatter(orders, o_idx, o_val, g)

    return T.custom_op("edge_sequence", (total, h.edges, h.orders), out, backward)


def graph_logprob(g: MolecularGraph, z: T.Tensor, edge_sequence,
                  params: DecoderParams, partition: str = "exact", L: int = 10,
                  mask_kind: str = "none", table: ValenceTable | None = None,
                  rng: np.random.Generator | None = None) -> T.Tensor:
    """Log-likelihood of a graph under one edge generation order.

    ``edge_sequence`` lists (u, v) pairs covering g.bonds exactly once, in
    the order the decoder is charged for them.  The edge and bond-order
    steps are one tape op, equal to the composition of ``edge_step_logprob``
    and ``weight_step_logprob`` over the sequence.
    """
    table = table or DEFAULT_TABLE
    seq = [(min(u, v), max(u, v)) for u, v in edge_sequence]
    bond_orders = {(u, v): o for u, v, o in g.bonds}
    if sorted(seq) != sorted(bond_orders):
        raise ValueError("edge_sequence must cover the graph's bonds exactly once")
    h = heads(z, params)
    total = feature_logprob(g, h, table)
    total = total + poisson_logpmf(len(seq), h.rate, h.log_rate)
    state = make_state(mask_kind, atom_types=g.atom_types, table=table)
    return _sequence_logprob(total, h, state, seq, bond_orders, partition, L, rng)


# ---------------------------------------------------------------------------
# sampling

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


_LN2 = math.log(2.0)


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0, accurate at both ends."""
    return math.log(-math.expm1(-x)) if x < _LN2 else math.log1p(-math.exp(-x))


def _zero_truncated_poisson(rng: np.random.Generator, lam: float) -> int:
    """Draw n >= 1 from Poisson(lam) conditioned on n > 0.

    Resamples while n == 0, up to 64 tries; after that (likely only for a
    small rate) draws exactly: the first arrival time T of a rate-lam
    process on [0, 1], given one arrives, by inverse CDF, then
    n = 1 + Poisson(lam (1 - T)) for the arrivals after it.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda_n must be finite and positive, got {lam!r}")
    for _ in range(64):
        n = int(rng.poisson(lam))
        if n >= 1:
            return n
    t = -math.log1p(rng.random() * math.expm1(-lam)) / lam
    return 1 + int(rng.poisson(lam * max(0.0, 1.0 - t)))


def sample_graph(params: DecoderParams, rng: np.random.Generator, *,
                 lambda_n: float | None = None, n: int | None = None,
                 z: np.ndarray | None = None, mask_kind: str = "valence",
                 table: ValenceTable | None = None) -> tuple[MolecularGraph, GenerationTrace]:
    """Draw one graph: node count, latents, atoms, edge count, edge steps.

    Provide ``z`` (and implicitly n) to decode a fixed latent set, ``n`` to
    fix the size only, or ``lambda_n`` (finite and positive) to draw n
    from a zero-truncated Poisson.  The trace records every choice with its log-probability.
    The heads come from ``heads``, once per draw; each step only indexes
    them.  A non-finite head, including one from a non-finite ``z``, raises
    FloatingPointError naming the op.  An edge-count rate above numpy's
    Poisson limit (about 9.2e18) requests one edge more than there are
    pairs, which is every such count's draw, at log-probability 0.
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
        n = _zero_truncated_poisson(rng, lambda_n)
        logp = poisson_logpmf(n, lambda_n, math.log(lambda_n)) \
            - _log1mexp(lambda_n)  # over P(N > 0)
        steps.append(("node_count", n, logp))
    if n < 1:
        raise ValueError("cannot sample an empty graph")
    if z is None:
        z = rng.standard_normal((n, params.D))
    h = heads(T.Tensor(z), params)

    symbols = table.symbols
    atoms = []
    for u in range(n):
        idx, logp = _softmax_choice(rng, h.types.data[u])
        atoms.append(symbols[idx])
        steps.append(("feature", (u, symbols[idx]), logp))
    atoms = tuple(atoms)

    rate = h.rate.item()
    try:
        l = int(rng.poisson(rate))
    except ValueError:
        # numpy draws no Poisson variate above about 9.2e18.  Every count
        # above the n(n-1)/2 pairs decodes alike, and at such a rate
        # log P(count > pairs) is 0 to double precision.
        l, logp = n * (n - 1) // 2 + 1, 0.0
    else:
        logp = poisson_logpmf(l, rate, h.log_rate.item())
    steps.append(("edge_count", l, logp))

    state = make_state(mask_kind, atom_types=atoms, table=table)
    edges: list[tuple[int, int, int]] = []
    early = False
    while len(edges) < l:
        cands = state.candidates()
        if not cands:
            early = True
            steps.append(("stop", len(edges), 0.0))
            break
        idx, logp = _softmax_choice(rng, h.edges.data.take(_edge_index(cands, n)))
        pair = cands[idx]
        allowed = state.allowed_orders(pair)
        if not allowed:
            state.reject(pair)
            steps.append(("reject", pair, logp))
            continue
        steps.append(("edge", pair, logp))
        oidx, ologp = _softmax_choice(rng, h.orders.data.take(_order_index(pair, n, allowed)))
        order = allowed[oidx]
        steps.append(("order", (pair, order), ologp))
        state.commit(pair, order)
        edges.append((pair[0], pair[1], order))

    graph = MolecularGraph(atoms, tuple(edges))
    trace = GenerationTrace(n=n, atoms=atoms, edge_count=l, edges=edges,
                            steps=steps, early_stopped=early, z=z)
    return graph, trace
