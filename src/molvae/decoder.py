"""Sequential masked graph decoder.

Given per-node latents Z, the decoder factorizes a labeled graph as: atom
types (per-node softmax), an edge count (Poisson with a permutation-invariant
log rate), then one (edge, bond-order) pair per step, each a masked softmax
over the surviving candidates.  The same log-probability code serves taped
training (exact or negative-sampled edge partitions) and untaped scoring.

Every head is defined once, in ``heads``, and evaluated once per graph:
the edge and bond-order heads are linear in z_u + z_v, so one projection
per node scores every pair.  Scoring an edge sequence has two halves.
``plan_edges`` walks the mask state along the sequence and records which
scores every softmax step reads; it needs no score, so a training batch
plans every sequence before any value is computed.  Then
``graph_logprob`` scores the planned sequences of a graph or a batch as
one tape op over one score vector per graph (edge scores, then order
scores).  Bond-order steps and negative-sampled edge steps are rows of one
step table.  Exact edge steps are not listed step by step: under every
built-in mask kind a pair that leaves the candidate set never returns, so the walk
lists the candidates once and records the step at which each one closes,
and one sort by close step plus one reverse log-sum-exp gives every
step's partition.  The tests check each value and gradient against their
own per-step reference, a separate walk of the mask state that charges
one masked softmax per step: bit for bit for negative-sampled sequences,
within 1e-12 relative for exact ones.  The sampler reads the same scores
untaped.

Sampling with a mask state guarantees the masked property by construction:
masked pairs and orders are never proposed, and generation stops early
once no candidate remains.  Under every built-in mask kind a proposable
pair admits a single bond, so each edge step is followed by an order step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import tensor as T
from .masks import MaskState, make_state
from .molgraph import (DEFAULT_TABLE, GraphBatch, MolecularGraph, ValenceTable,
                       choice_cdf, draw_index)


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

    edge_count: int
    edges: list[tuple[int, int, int]]
    steps: list[tuple[str, object, float]] = field(default_factory=list)
    early_stopped: bool = False

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
    return T.softplus(T.add(T.linear(z, params.w_type), params.b_type))


def edge_count_dist(z: T.Tensor, params: DecoderParams) -> tuple[T.Tensor, T.Tensor]:
    """(rate, log rate) of the Poisson edge count, one per graph of ``z``;
    invariant to node order.

    Per-node softplus features are summed over nodes before the linear
    scalar head, so any node relabeling leaves the rate unchanged.
    """
    h = T.softplus(T.add(T.linear(z, params.w_count), params.b_count))
    pooled = T.sum_axis(h, axis=-2)
    log_rate = T.reshape(T.linear(pooled, params.w_count_out), z.shape[:-2]) \
        + params.b_count_out
    return T.exp(log_rate), log_rate


def _log_factorial(k):
    """log k! of a count, or elementwise of a 1-D array of counts."""
    if np.ndim(k) == 0:
        return math.lgamma(k + 1)
    return np.array([math.lgamma(c + 1) for c in k])


def poisson_logpmf(k, rate, log_rate):
    """log Poisson(k; rate), for Tensors or plain floats alike; with
    Tensors, ``k`` may be an array of counts shaped like ``rate``."""
    return log_rate * k - rate - _log_factorial(k)


@dataclass(frozen=True)
class Heads:
    """Every head of one decode; pair (u, v) scores at flat index u n + v.

    The shapes are those of one graph; heads of a batch of B graphs carry
    a leading axis of length B.
    """

    types: T.Tensor     # n x n_types, from type_logits
    rate: T.Tensor      # scalar, from edge_count_dist
    log_rate: T.Tensor  # scalar
    edges: T.Tensor     # n * n
    orders: T.Tensor    # n * n * 3: order m of a pair at 3 (u n + v) + m - 1


def heads(z: T.Tensor, params: DecoderParams) -> Heads:
    """Every head for the nodes of ``z`` (n x D, or B x n x D for a batch),
    evaluated once per graph.

    The edge and bond-order heads are linear in z_u + z_v, so each comes
    from one projection per node, summed over all pairs by broadcasting:
    softplus(a_u + a_v + b) with a = z w^T.
    """
    lead, n = z.shape[:-2], z.shape[-2]
    types = type_logits(z, params)
    rate, log_rate = edge_count_dist(z, params)
    a = T.linear(z, params.w_edge)
    edges = T.softplus(T.add(T.add(a, T.reshape(a, lead + (1, n))), params.b_edge))
    o = T.linear(z, params.w_order)
    pair_o = T.add(T.reshape(o, lead + (n, 1, 3)), T.reshape(o, lead + (1, n, 3)))
    orders = T.softplus(T.add(pair_o, params.b_order))
    return Heads(types, rate, log_rate, T.reshape(edges, lead + (-1,)),
                 T.reshape(orders, lead + (-1,)))


def _edge_index(pairs, n: int) -> list[int]:
    return [u * n + v for u, v in pairs]


def _order_index(pair, n: int, orders) -> list[int]:
    base = (pair[0] * n + pair[1]) * 3 - 1
    return [base + m for m in orders]


# ---------------------------------------------------------------------------
# log-probability terms

def feature_logprob(g, h: Heads,
                    table: ValenceTable | None = None) -> T.Tensor:
    """Sum over nodes of log softmax(type logits)[atom type]: one value,
    or one per graph of a GraphBatch."""
    table = table or DEFAULT_TABLE
    graphs = g if isinstance(g, GraphBatch) else (g,)
    lead, n_types = h.types.shape[:-2], h.types.shape[-1]
    idx = np.array([table.index(sym) for gr in graphs for sym in gr.atom_types],
                   dtype=np.intp)
    flat = T.reshape(h.types, (-1,))
    own = T.gather_rows(flat, idx + np.arange(idx.size) * n_types)
    norm = T.logsumexp(h.types, axis=-1)
    return T.sum_axis(T.reshape(own, lead + (g.n,)), -1) - T.sum_axis(norm, -1)


def _edge_terms(state: MaskState, pair, n: int, L: int,
                rng: np.random.Generator):
    """Flat edge-score indices of one negative-sampled edge step's softmax
    terms, the true pair first, with the constant added to each term;
    (None, None) when no other candidate remains, a certain step."""
    pool, negs = state.sample_candidates(rng, L, exclude=pair)
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


def _close_steps(state: MaskState, steps) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The candidates before the first of ``steps``, in ``candidates()``
    order, and the step at which each one closes.

    ``steps`` yields the (pair, order) commits of one edge sequence; each
    is committed to ``state`` here, and then only the candidates still
    open are tested again.  A candidate's close step is the first step at
    which it is no longer proposable (the number of steps if none): the
    pair generated at step t closes at t + 1.  Under every built-in mask
    kind a pair that leaves the candidate set never returns, so the
    candidates of step t are those whose close step exceeds t, in the same
    order.
    """
    cands = state.candidates()
    close = np.zeros(len(cands), dtype=np.intp)
    live, at = cands, np.arange(len(cands))
    t = 0
    for t, (pair, order) in enumerate(steps, 1):
        state.commit(pair, order)
        keep = np.fromiter(map(state.edge_mask, live), dtype=bool, count=len(live))
        close[at[~keep]] = t
        live, at = list(compress(live, keep)), at[keep]
    close[at] = t
    return cands, close


@dataclass(frozen=True)
class EdgePlan:
    """The value-free half of scoring one edge sequence of one graph of
    ``n`` nodes: its edge and bond-order softmax steps.

    One walk of the mask state along the sequence, drawing any negatives,
    fixes which scores every step reads; the scores themselves enter only
    in ``graph_logprob``.  Indices address the graph's score vector,
    ``Heads.edges`` followed by ``Heads.orders`` (an order score at n^2
    plus its ``Heads.orders`` index).

    Bond-order steps and negative-sampled edge steps form a step table, in
    sequence order.  Step i charges score ``true[i]`` against the
    ``size[i]`` terms at the next ``size[i]`` entries of ``idx``;
    ``offset[i]`` is added to every term but the first, and ``edge[i]``
    tells an edge step from an order step.  A negative-sampled edge step
    estimates the partition as exp(true score) + (pool/L) * the sum over L
    distinct uniformly drawn other candidates (the exact sum when L covers
    the pool): it lists the true pair first, with offset log(pool / L); a
    step with no other candidate is certain and has no entry.  An order
    step normalizes over the pair's allowed orders, with offset 0.0.

    Exact edge steps normalize over every unmasked candidate and are kept
    by close step instead, in O(n^2) per sequence: ``cand`` holds the edge
    score of each candidate of the first step, ``close[p]`` the first step
    at which candidate p is no longer proposable, and ``hit[t]`` the edge
    score of step t's true pair.  Step t's candidates are those with
    ``close > t``.  A negative-sampled plan has none of these entries.
    """

    n: int
    true: np.ndarray
    size: np.ndarray
    idx: np.ndarray
    offset: np.ndarray
    edge: np.ndarray
    cand: np.ndarray
    close: np.ndarray
    hit: np.ndarray

    @classmethod
    def of(cls, n: int, steps, cand=(), close=(), hit=()) -> "EdgePlan":
        """From the table's (true, term indices, offset, is edge) tuples
        and the exact edge steps' candidates, close steps and hits."""
        true, idx, offset, edge = zip(*steps) if steps else ((),) * 4
        return cls(n, np.array(true, dtype=np.intp),
                   np.array([len(i) for i in idx], dtype=np.intp),
                   np.fromiter((t for i in idx for t in i), dtype=np.intp),
                   np.array(offset, dtype=np.float64),
                   np.array(edge, dtype=bool),
                   np.array(cand, dtype=np.intp), np.array(close, dtype=np.intp),
                   np.array(hit, dtype=np.intp))

    @staticmethod
    def stack(plans, bases: np.ndarray):
        """The table steps of every plan, all of one n, the indices of plan
        p shifted by ``bases[p]``; with the plan each step belongs to."""
        owner = np.repeat(np.arange(len(plans)), [p.true.size for p in plans])
        terms = np.repeat(bases, [p.idx.size for p in plans])
        none = np.zeros(0, dtype=np.intp)
        steps = EdgePlan(
            plans[0].n,
            np.concatenate([p.true for p in plans]) + bases[owner],
            np.concatenate([p.size for p in plans]),
            np.concatenate([p.idx for p in plans]) + terms,
            np.concatenate([p.offset for p in plans]),
            np.concatenate([p.edge for p in plans]), none, none, none)
        return steps, owner

    def logprobs(self, scores: np.ndarray, taped: bool):
        """Each table step's scores[true] - logsumexp(terms) and, when
        taped, the softmax over each step's terms (else None).

        Steps with the same number of terms are evaluated together, one
        row each; a row's log-sum-exp rounds as that of the step's terms
        alone, so every value matches the per-step ops bit for bit.
        """
        start = np.cumsum(self.size) - self.size
        out = np.empty(self.size.size)
        soft = np.empty(self.idx.size) if taped else None
        for m in np.unique(self.size):
            sel = np.flatnonzero(self.size == m)
            cols = start[sel, None] + np.arange(m)
            terms = scores[self.idx[cols]]
            terms[:, 1:] += self.offset[sel, None]
            lse = T.logsumexp_array(terms, axis=1)
            out[sel] = scores[self.true[sel]] - lse
            if taped:
                soft[cols] = np.exp(terms - lse[:, None])
        return out, soft

    def one_hot_minus_softmax(self, soft: np.ndarray, owner: np.ndarray):
        """(score index, value, plan) of every table step's one-hot minus
        softmax, last step first and, within a step, the +1 of the true
        term first for an edge step and last for an order step: the order
        in which the per-step composition's backward adds them, so the
        sums round alike."""
        at = np.cumsum(self.size) - np.where(self.edge, self.size, 0)
        idx = np.insert(self.idx, at, self.true)
        val = np.insert(-soft, at, 1.0)
        step = np.repeat(np.arange(self.size.size), self.size + 1)
        last_first = np.argsort(-step, kind="stable")
        return idx[last_first], val[last_first], owner[step[last_first]]

    def exact_logprob(self, edges: np.ndarray, taped: bool):
        """The exact edge steps' summed log-probability under the graph's
        edge scores ``edges`` and, when taped, its gradient with respect
        to each candidate's score (else None); the hits' +1 is not in it.

        Step t charges edges[hit[t]] - LSE_t, with LSE_t the log-sum-exp
        over the candidates whose close step exceeds t.  Sorted by close
        step, those are a suffix, so one reverse ``np.logaddexp.accumulate``
        gives every LSE_t.  Candidate p's softmax mass summed over the
        steps it is open, sum over t < close[p] of exp(s_p - LSE_t), is
        exp(s_p + G[close[p]]) with G the prefix log-sum-exp of -LSE.
        """
        s = edges[self.cand]
        by_close = np.argsort(self.close, kind="stable")
        suffix = np.logaddexp.accumulate(s[by_close][::-1])[::-1]
        steps = np.arange(self.hit.size)
        lse = suffix[np.searchsorted(self.close[by_close], steps, side="right")]
        value = np.sum(edges[self.hit] - lse)
        if not taped:
            return value, None
        prefix = np.concatenate(([-np.inf], np.logaddexp.accumulate(-lse)))
        return value, -np.exp(s + prefix[self.close])


def plan_edges(g: MolecularGraph, edge_sequence, partition: str = "exact",
               L: int = 10, mask_kind: str = "none",
               table: ValenceTable | None = None,
               rng: np.random.Generator | None = None) -> EdgePlan:
    """Walk the mask along ``edge_sequence``, the (u, v) pairs covering
    g.bonds exactly once in the order the decoder is charged for them.

    Per pair: ``edge_mask``, then, negative-sampled, ``sample_candidates``
    from ``rng`` (which counts the pool once), then ``allowed_orders`` and
    ``commit``; the per-step reference in ``tests/test_decoder.py`` makes
    the same calls in the same order, so it draws the same negatives.
    Exact, ``candidates`` runs once, before the first commit, and
    ``_close_steps`` tests the still open candidates with ``edge_mask``
    after each commit.  A masked pair or order, an unknown partition, or
    negative sampling without ``rng`` raises ValueError.
    """
    table = table or DEFAULT_TABLE
    if partition not in ("exact", "negative_sampled"):
        raise ValueError(f"unknown partition mode {partition!r}")
    if partition == "negative_sampled" and rng is None:
        raise ValueError("negative_sampled partition needs an rng")
    seq = [(min(u, v), max(u, v)) for u, v in edge_sequence]
    bond_orders = {(u, v): o for u, v, o in g.bonds}
    if sorted(seq) != sorted(bond_orders):
        raise ValueError("edge_sequence must cover the graph's bonds exactly once")
    n = g.n
    state = make_state(mask_kind, atom_types=g.atom_types, table=table)
    steps = []

    def walk():
        for pair in seq:
            if not state.edge_mask(pair):
                raise ValueError(f"edge {pair} is masked or already used")
            if partition == "negative_sampled":
                idx, offset = _edge_terms(state, pair, n, L, rng)
                if idx is not None:
                    steps.append((idx[0], idx, offset[1], True))
            order = bond_orders[pair]
            idx, k = _order_terms(state, pair, order, n)
            idx = [n * n + i for i in idx]
            steps.append((idx[k], idx, 0.0, False))
            yield pair, order

    if partition == "exact" and seq:
        cands, close = _close_steps(state, walk())
        return EdgePlan.of(n, steps, _edge_index(cands, n), close,
                           _edge_index(seq, n))
    for pair, order in walk():
        state.commit(pair, order)
    return EdgePlan.of(n, steps)


def _sequence_logprob(total: T.Tensor, h: Heads, plans) -> T.Tensor:
    """Each plan's starting total plus every step it charges, one tape op.

    Plan p scores graph p mod B of the B graphs of ``h`` and ``total``
    (B = 1 and a scalar result for one graph), over the graphs' score
    vectors concatenated.  One unbuffered ``np.add.at`` adds each table
    step's score[true] - logsumexp(terms) to its plan's starting total,
    one step at a time in sequence order, as the tests' per-step reference
    does, so a negative-sampled sequence is bit-identical to it; then each
    plan's exact edge steps add their sum from ``EdgePlan.exact_logprob``,
    computed from that plan alone, so a graph of a batch scores as it does
    alone, bit for bit.  A plan without steps keeps its starting total.
    Under a tape the backward pass scatters every step's one-hot minus
    softmax into one gradient array: each plan's table steps in the order
    the reference's backward adds them, so a lone negative-sampled plan's
    gradients are bit-identical too, then each candidate's summed softmax
    mass and each exact hit's +1.  Untaped, nothing is kept for it.
    """
    graphs = total.data.size
    slot = np.arange(len(plans)) % graphs
    n2 = h.edges.shape[-1]
    scores = np.concatenate((h.edges.data.reshape(graphs, -1),
                             h.orders.data.reshape(graphs, -1)), axis=1).reshape(-1)
    per_graph = scores.size // graphs
    taped = T.recording()
    bases = slot * per_graph
    steps, owner = EdgePlan.stack(plans, bases)
    logp, soft = steps.logprobs(scores, taped)
    out = total.data.reshape(-1)[slot]
    np.add.at(out, owner, logp)
    back = [steps.one_hot_minus_softmax(soft, owner)] if taped else []
    for p, plan in enumerate(plans):
        if not plan.hit.size:
            continue
        value, grad = plan.exact_logprob(scores[bases[p]:bases[p] + n2], taped)
        out[p] += value
        if taped:
            idx = np.concatenate((plan.cand, plan.hit)) + bases[p]
            back.append((idx, np.concatenate((grad, np.ones(plan.hit.size))),
                         np.full(idx.size, p)))
    back = ([np.concatenate(part) for part in zip(*back)] if taped
            else (np.zeros(0, dtype=np.intp),) * 3)

    def backward(g):
        idx, val, seq = back
        g_plan = np.reshape(g, -1)
        g_total = np.bincount(slot, weights=g_plan, minlength=graphs)
        g_scores = np.bincount(idx, weights=g_plan[seq] * val,
                               minlength=graphs * per_graph).reshape(graphs, -1)
        return (g_total.reshape(total.data.shape),
                g_scores[:, :n2].reshape(h.edges.shape),
                g_scores[:, n2:].reshape(h.orders.shape))

    return T.custom_op("edge_sequence", (total, h.edges, h.orders),
                       out.reshape(-1 if total.data.ndim else ()), backward)


def graph_logprob(g, z: T.Tensor, plans, params: DecoderParams,
                  partition: str = "exact",
                  table: ValenceTable | None = None) -> T.Tensor:
    """Log-likelihood of a graph under the edge sequences that ``plans``,
    from ``plan_edges``, walked; one value per plan.

    A lone graph takes one plan and gives a scalar.  For a GraphBatch of B
    graphs, ``z`` is B x n x D and plan p scores graph p mod B; each value
    is bit-identical to scoring its graph alone.  The edge and bond-order
    steps of every plan are one tape op.  ``partition`` only labels the
    call (the plans were walked under theirs); no score depends on it.
    A plan walked for another node count, or charging another number of
    bond orders than its graph has bonds, raises ValueError.
    """
    table = table or DEFAULT_TABLE
    plans = list(plans)
    if isinstance(g, GraphBatch):
        graphs, bonds = list(g), np.array([len(gr.bonds) for gr in g])
        if not plans or len(plans) % len(graphs):
            raise ValueError(f"{len(plans)} plans do not cover a batch of"
                             f" {len(graphs)} graphs equally")
    else:
        graphs, bonds = [g], len(g.bonds)
        if len(plans) != 1:
            raise ValueError(f"a lone graph takes one plan, got {len(plans)}")
    for p, plan in enumerate(plans):
        gr = graphs[p % len(graphs)]
        orders = plan.edge.size - np.count_nonzero(plan.edge)
        if plan.n != gr.n or orders != len(gr.bonds):
            raise ValueError(f"plan {p} was walked for {plan.n} nodes and"
                             f" {orders} bonds; its graph has {gr.n} nodes"
                             f" and {len(gr.bonds)} bonds")
    h = heads(z, params)
    total = feature_logprob(g, h, table)
    total = total + poisson_logpmf(bonds, h.rate, h.log_rate)
    return _sequence_logprob(total, h, plans)


# ---------------------------------------------------------------------------
# sampling

def _softmax_choice(rng: np.random.Generator, logits: np.ndarray) -> tuple[int, float]:
    """Draw from softmax(logits) with ``molgraph.draw_index``, the inverse-CDF
    draw ``random_molecule`` uses too: the arithmetic of
    ``rng.choice(len(p), p=p)``, so seeded draws match it bit for bit."""
    shifted = logits - logits.max()
    p = np.exp(shifted)
    p = p / p.sum()
    idx = draw_index(rng, choice_cdf(p))
    return idx, float(np.log(p[idx]))


_LN2 = math.log(2.0)


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0, accurate at both ends."""
    return math.log(-math.expm1(-x)) if x < _LN2 else math.log1p(-math.exp(-x))


def node_count_logpmf(n: int, lambda_n: float) -> float:
    """log P(N = n) under the zero-truncated Poisson node-count law, n >= 1:
    the law ``sample_graph`` draws n from and ``training.elbo`` charges."""
    return poisson_logpmf(n, lambda_n, math.log(lambda_n)) - _log1mexp(lambda_n)


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
                 lambda_n: float | None = None,
                 z: np.ndarray | None = None, mask_kind: str = "valence",
                 table: ValenceTable | None = None) -> tuple[MolecularGraph, GenerationTrace]:
    """Draw one graph: node count, latents, atoms, edge count, edge steps.

    Provide ``z`` (and implicitly n) to decode a fixed latent set, or
    ``lambda_n`` (finite and positive) to draw n from a zero-truncated
    Poisson and then z from a standard normal.  The trace records every
    choice with its log-probability.  The heads come from ``heads``, once
    per draw; each step only indexes them.  A non-finite head, including one from a non-finite ``z``, raises
    FloatingPointError naming the op.  An edge-count rate above numpy's
    Poisson limit (about 9.2e18) requests one edge more than there are
    pairs, which is every such count's draw, at log-probability 0.
    """
    table = table or DEFAULT_TABLE
    steps: list[tuple[str, object, float]] = []
    if z is not None:
        z = np.asarray(z, dtype=np.float64)
        n = z.shape[0]
        if n < 1:
            raise ValueError("cannot sample an empty graph")
    elif lambda_n is None:
        raise ValueError("need one of z, lambda_n")
    else:
        n = _zero_truncated_poisson(rng, lambda_n)
        steps.append(("node_count", n, node_count_logpmf(n, lambda_n)))
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
        steps.append(("edge", pair, logp))
        oidx, ologp = _softmax_choice(rng, h.orders.data.take(_order_index(pair, n, allowed)))
        order = allowed[oidx]
        steps.append(("order", (pair, order), ologp))
        state.commit(pair, order)
        edges.append((pair[0], pair[1], order))

    graph = MolecularGraph(atoms, tuple(edges))
    trace = GenerationTrace(edge_count=l, edges=edges, steps=steps,
                            early_stopped=early)
    return graph, trace
