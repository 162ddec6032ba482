"""Decoder heads, trace accounting, masked sampling, partition estimates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molvae import decoder
from molvae import tensor as T
from molvae.decoder import (edge_count_dist, feature_logprob, graph_logprob,
                            heads, init_decoder, plan_edges, poisson_logpmf,
                            sample_graph, type_logits)
from molvae.masks import MASK_KINDS, MaskState, make_state
from molvae.molgraph import (DEFAULT_TABLE, GraphBatch, MolecularGraph,
                             random_molecule, valence_ok)


def _params(D=4, seed=0, n_types=4):
    return init_decoder(np.random.default_rng(seed), D, n_types)


def _zt(n, D, seed=1):
    return T.Tensor(np.random.default_rng(seed).standard_normal((n, D)))


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _pair_scores(z, params):
    """Per-pair reference for the pair heads: softplus((z_u + z_v) w^T + b)
    for every ordered pair, one pair at a time."""
    z = z.data if isinstance(z, T.Tensor) else z
    n = z.shape[0]
    edges = np.zeros((n, n))
    orders = np.zeros((n, n, 3))
    for u in range(n):
        for v in range(n):
            x = z[u] + z[v]
            edges[u, v] = _softplus(params.w_edge.data @ x + params.b_edge.data)[0]
            orders[u, v] = _softplus(params.w_order.data @ x + params.b_order.data)
    return edges, orders


# ---------------------------------------------------------------------------
# normalization by enumeration


def _enumerate_edge_tree(scores, state, budget, acc=0.0):
    """Sum of probabilities over every edge-process outcome with ``budget``
    steps left."""
    if budget == 0:
        return math.exp(acc)
    cands = state.candidates()
    if not cands:
        return math.exp(acc)  # forced stop, probability one
    edges, orders = scores
    logits = np.array([edges[pair] for pair in cands])
    logp = logits - logits.max()
    logp = logp - math.log(np.exp(logp).sum())
    total = 0.0
    for i, pair in enumerate(cands):
        allowed = state.allowed_orders(pair)
        sub = np.array([orders[pair][m - 1] for m in allowed])
        op = sub - sub.max()
        op = op - math.log(np.exp(op).sum())
        for j, order in enumerate(allowed):
            saved = _snapshot(state)
            state.commit(pair, order)
            total += _enumerate_edge_tree(scores, state, budget - 1,
                                          acc + logp[i] + op[j])
            _restore(state, saved)
    return total


def _snapshot(state):
    import copy
    return copy.deepcopy(state.__dict__)


def _restore(state, saved):
    import copy
    state.__dict__.clear()
    state.__dict__.update(copy.deepcopy(saved))


@pytest.mark.parametrize("mask_kind,atoms,l", [
    ("none", ("C", "C", "C"), 2),
    ("valence", ("C", "O", "H"), 2),
    ("valence", ("O", "O", "H", "H"), 3),
    ("triangle_free", ("C", "C", "C", "C"), 3),
])
def test_edge_process_normalizes(mask_kind, atoms, l):
    params = _params(D=3, seed=5)
    z = _zt(len(atoms), 3, seed=7)
    state = make_state(mask_kind, atom_types=atoms, table=DEFAULT_TABLE)
    total = _enumerate_edge_tree(_pair_scores(z, params), state, l)
    assert abs(total - 1.0) < 1e-10


def test_type_distribution_normalizes():
    params = _params(D=3, seed=2)
    z = _zt(5, 3, seed=3)
    logits = type_logits(z, params).data
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = p / p.sum(axis=1, keepdims=True)
    assert np.allclose(p.sum(axis=1), 1.0)
    lp = feature_logprob(MolecularGraph(("C", "H", "N", "O", "C"), ()),
                         heads(z, params))
    hand = sum(math.log(p[u][DEFAULT_TABLE.index(s)])
               for u, s in enumerate(("C", "H", "N", "O", "C")))
    assert abs(lp.item() - hand) < 1e-9


# ---------------------------------------------------------------------------
# trace / graph_logprob agreement


def test_trace_logp_matches_graph_logprob():
    params = _params(D=4, seed=11)
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(20):
        z = rng.standard_normal((4, 4))
        g, trace = sample_graph(params, rng, z=z, mask_kind="valence")
        if trace.early_stopped or not trace.edges:
            continue
        hits += 1
        seq = [(u, v) for u, v, _ in trace.edges]
        plan = plan_edges(g, seq, "exact", mask_kind="valence")
        lp = graph_logprob(g, T.Tensor(z), [plan], params)
        assert abs(lp.item() - trace.total_logprob) < 1e-9
    assert hits >= 5


def test_sample_graph_reports_early_stop():
    params = _params(D=3, seed=3)
    # push the edge rate up so the valence mask saturates before l edges
    params.b_count_out = T.Tensor(3.0)
    rng = np.random.default_rng(7)
    stopped = 0
    for _ in range(30):
        g, trace = sample_graph(params, rng, z=rng.standard_normal((3, 3)),
                                mask_kind="valence")
        if trace.early_stopped:
            stopped += 1
            assert len(trace.edges) < trace.edge_count
            assert trace.steps[-1][0] == "stop"
    assert stopped > 0


# ---------------------------------------------------------------------------
# masked sampling guarantees


def test_valence_mask_holds_over_samples():
    params = _params(D=4, seed=13)
    params.b_count_out = T.Tensor(2.5)
    rng = np.random.default_rng(99)
    for _ in range(150):
        g, trace = sample_graph(params, rng, lambda_n=5.0, mask_kind="valence")
        assert valence_ok(g)
        pairs = [(u, v) for u, v, _ in g.bonds]
        assert len(pairs) == len(set(pairs))


def test_triangle_free_mask_holds_over_samples():
    params = _params(D=4, seed=17)
    params.b_count_out = T.Tensor(2.5)
    rng = np.random.default_rng(5)
    for _ in range(150):
        g, _ = sample_graph(params, rng, lambda_n=6.0, mask_kind="triangle_free")
        adj = {u: set() for u in range(g.n)}
        for u, v, _ in g.bonds:
            adj[u].add(v)
            adj[v].add(u)
        for u, v, _ in g.bonds:
            assert not (adj[u] & adj[v]), "triangle slipped through"


def test_zero_truncated_node_count():
    params = _params(D=3, seed=19)
    rng = np.random.default_rng(123)
    lam = 0.8
    counts = {}
    for _ in range(4000):
        g, trace = sample_graph(params, rng, lambda_n=lam, mask_kind="none")
        assert g.n >= 1
        counts[g.n] = counts.get(g.n, 0) + 1
        kind, n, logp = trace.steps[0]
        assert kind == "node_count"
        hand = (n * math.log(lam) - lam - math.lgamma(n + 1)
                - math.log1p(-math.exp(-lam)))
        assert abs(logp - hand) < 1e-12
    p1 = (lam * math.exp(-lam)) / (1 - math.exp(-lam))
    assert abs(counts[1] / 4000 - p1) < 0.035


def test_zero_truncated_node_count_small_rate_frequencies():
    """At rate 0.05 about 4% of draws (exp(-3.2)) fall back from resampling
    to the exact draw; the mixture must still be the zero-truncated Poisson."""
    from scipy.stats import chisquare

    params = _params(D=2, seed=19)
    lam = 0.05
    rng = np.random.default_rng(321)
    draws = 5000
    ones = sum(sample_graph(params, rng, lambda_n=lam, mask_kind="none")[0].n == 1
               for _ in range(draws))
    p1 = lam * math.exp(-lam) / -math.expm1(-lam)
    _, p_value = chisquare([ones, draws - ones], [draws * p1, draws * (1 - p1)])
    assert p_value > 1e-3


def test_zero_truncated_node_count_exact_draw():
    """The draw after 64 zero tries, forced here at a rate where it differs
    most from 1 + Poisson(lam), is the zero-truncated Poisson."""
    from scipy.stats import chisquare, poisson

    class ZerosFirst:
        def __init__(self, rng):
            self.rng, self.zeros = rng, 0

        def poisson(self, lam):
            self.zeros += 1
            return 0 if self.zeros <= 64 else self.rng.poisson(lam)

        def random(self):
            return self.rng.random()

    lam = 1.5
    rng = np.random.default_rng(17)
    draws = [decoder._zero_truncated_poisson(ZerosFirst(rng), lam)
             for _ in range(4000)]
    counts = np.bincount(draws, minlength=5)[1:]
    counts = np.append(counts[:3], counts[3:].sum())
    probs = poisson.pmf([1, 2, 3], lam) / -math.expm1(-lam)
    probs = np.append(probs, 1 - probs.sum())
    _, p_value = chisquare(counts, 4000 * probs)
    assert p_value > 1e-3


@pytest.mark.parametrize("lam", [1e-7, 1e-16, 1e-300])
def test_zero_truncated_node_count_tiny_rate(lam):
    params = _params(D=2, seed=19)
    rng = np.random.default_rng(5)
    for _ in range(50):
        _, trace = sample_graph(params, rng, lambda_n=lam, mask_kind="none")
        kind, n, logp = trace.steps[0]
        assert kind == "node_count" and n >= 1
        if n == 1:
            # log P(1 | N > 0) = -lam/2 + O(lam^2)
            assert abs(logp + lam / 2) <= 1e-14


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_zero_truncated_node_count_rejects_invalid_rate(lam):
    with pytest.raises(ValueError, match="lambda_n"):
        sample_graph(_params(D=2), np.random.default_rng(0), lambda_n=lam)


@pytest.mark.parametrize("lam", [0.05, 1.0, 7.7, 32.0])
def test_node_count_law_sums_to_one(lam):
    # n >= 1 only: the law is the Poisson conditioned on N > 0
    total = math.fsum(math.exp(decoder.node_count_logpmf(n, lam))
                      for n in range(1, 400))
    assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the sampler against the taped reference


def _taped_sample_graph(params, rng, *, lambda_n=None, z=None,
                        mask_kind="valence", table=None):
    """The sampler with its type and rate heads from the taped
    ``type_logits`` and ``edge_count_dist``, its pair heads from the
    per-pair ``_pair_scores``, and every choice drawn by ``rng.choice``."""
    def choice(logits):
        p = np.exp(logits - logits.max())
        p = p / p.sum()
        idx = int(rng.choice(len(p), p=p))
        return idx, float(np.log(p[idx]))

    table = table or DEFAULT_TABLE
    steps = []
    if z is not None:
        z = np.asarray(z, dtype=np.float64)
        n = z.shape[0]
    else:
        while True:
            n = int(rng.poisson(lambda_n))
            if n >= 1:
                break
        steps.append(("node_count", n, n * math.log(lambda_n) - lambda_n
                      - math.lgamma(n + 1) - math.log1p(-math.exp(-lambda_n))))
        z = rng.standard_normal((n, params.D))
    zt = T.Tensor(z)
    tl = type_logits(zt, params).data
    atoms = []
    for u in range(n):
        idx, logp = choice(tl[u])
        atoms.append(table.symbols[idx])
        steps.append(("feature", (u, table.symbols[idx]), logp))
    atoms = tuple(atoms)
    rate, log_rate = edge_count_dist(zt, params)
    l = int(rng.poisson(rate.item()))
    steps.append(("edge_count", l, poisson_logpmf(l, rate, log_rate).item()))
    scores, order_scores = _pair_scores(z, params)
    state = decoder.make_state(mask_kind, atom_types=atoms, table=table)
    edges = []
    early = False
    while len(edges) < l:
        cands = state.candidates()
        if not cands:
            early = True
            steps.append(("stop", len(edges), 0.0))
            break
        idx, logp = choice(np.array([scores[pair] for pair in cands]))
        pair = cands[idx]
        allowed = state.allowed_orders(pair)
        steps.append(("edge", pair, logp))
        ol = order_scores[pair]
        oidx, ologp = choice(np.array([ol[m - 1] for m in allowed]))
        steps.append(("order", (pair, allowed[oidx]), ologp))
        state.commit(pair, allowed[oidx])
        edges.append((pair[0], pair[1], allowed[oidx]))
    return MolecularGraph(atoms, tuple(edges)), steps, early


def _with_biases(params, seed):
    """Give every bias a nonzero value (init_decoder zeros them)."""
    rng = np.random.default_rng(seed)
    for name in ("b_type", "b_count", "b_count_out", "b_edge", "b_order"):
        bias = getattr(params, name)
        setattr(params, name, T.Tensor(rng.normal(size=bias.shape)))
    return params


class _NoOrderOnEveryThirdPair:
    """Stub rule under which some proposable pairs allow no order."""

    def edge_ok(self, state, pair):
        return True

    def weight_ok(self, state, pair, order):
        return sum(pair) % 3 != 0

    def on_commit(self, state, pair, order):
        pass

    def count_allowed(self, state, exclude):
        return len(state.candidates(exclude))


@pytest.mark.parametrize("mask_kind", MASK_KINDS)
@pytest.mark.parametrize("entry", ["lambda_n", "n", "z"])
def test_sampler_matches_taped_reference(mask_kind, entry):
    params = _with_biases(_params(D=4, seed=61), seed=62)
    params.b_count_out = T.Tensor(2.0)  # enough edges to saturate masks
    kinds = set()

    def size_source(rng, seed):
        if entry == "lambda_n":
            return {"lambda_n": 6.0}
        if entry == "n":  # a fixed size, z from the draw's own stream
            return {"z": rng.standard_normal((5, 4))}
        return {"z": np.random.default_rng(10_000 + seed).standard_normal((6, 4))}

    for seed in range(100):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        g, trace = sample_graph(params, rng, mask_kind=mask_kind,
                                **size_source(rng, seed))
        ref, ref_steps, ref_early = _taped_sample_graph(
            params, ref_rng, mask_kind=mask_kind, **size_source(ref_rng, seed))
        assert g == ref
        assert trace.early_stopped == ref_early
        assert [s[:2] for s in trace.steps] == [s[:2] for s in ref_steps]
        for (_, _, lp), (_, _, ref_lp) in zip(trace.steps, ref_steps):
            assert abs(lp - ref_lp) <= 1e-12
        kinds.update(kind for kind, _, _ in trace.steps)
    assert {"feature", "edge_count", "edge", "order"} <= kinds


def test_heads_match_per_pair_reference():
    params = _with_biases(_params(D=5, seed=67), seed=68)
    z = np.random.default_rng(3).standard_normal((9, 5))
    h = heads(T.Tensor(z), params)
    types = _softplus(z @ params.w_type.data.T + params.b_type.data)
    assert np.max(np.abs(h.types.data - types)) <= 1e-12
    pooled = _softplus(z @ params.w_count.data.T + params.b_count.data).sum(axis=0)
    log_rate = pooled @ params.w_count_out.data[0] + params.b_count_out.data
    assert abs(h.log_rate.item() - log_rate) <= 1e-12
    assert abs(h.rate.item() - math.exp(log_rate)) <= 1e-12 * math.exp(log_rate)
    edges, orders = _pair_scores(z, params)
    assert h.edges.shape == (81,) and h.orders.shape == (243,)
    assert np.max(np.abs(h.edges.data - edges.ravel())) <= 1e-12
    assert np.max(np.abs(h.orders.data - orders.ravel())) <= 1e-12


def test_sampler_rejects_non_finite_heads():
    params = _params(D=3, seed=71)
    z = np.zeros((4, 3))
    z[2, 1] = np.nan
    with pytest.raises(FloatingPointError,
                       match="non-finite value produced by op 'linear'"):
        with np.errstate(invalid="ignore"):
            sample_graph(params, np.random.default_rng(0), z=z)
    params.w_edge = T.Tensor(np.full((1, 3), 1e308))
    with pytest.raises(FloatingPointError,
                       match="non-finite value produced by op 'linear'"):
        with np.errstate(over="ignore", invalid="ignore"):
            sample_graph(params, np.random.default_rng(0), z=np.ones((4, 3)))
    params = _params(D=3, seed=71)
    params.b_count_out = T.Tensor(800.0)
    with pytest.raises(FloatingPointError, match="overflow in op 'exp'"):
        sample_graph(params, np.random.default_rng(0),
                     z=np.random.default_rng(0).standard_normal((4, 3)))


@pytest.mark.parametrize("mask_kind", ["none", "valence"])
@pytest.mark.parametrize("b_count_out", [44.0, 50.0])
def test_sampler_edge_rate_above_poisson_limit(mask_kind, b_count_out):
    """numpy draws no Poisson variate above a rate of about 9.2e18; such a
    draw requests one edge more than the 15 pairs of six nodes."""
    params = init_decoder(np.random.default_rng(4), 4)
    params.b_count_out = T.Tensor(b_count_out)
    above = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g, trace = sample_graph(params, rng, z=rng.standard_normal((6, 4)),
                                mask_kind=mask_kind)
        assert trace.steps[-1][0] == "stop" and trace.early_stopped
        if mask_kind == "valence":
            assert valence_ok(g)
        else:
            assert len(g.bonds) == 15
        if trace.edge_count == 16:
            above += 1
            assert ("edge_count", 16, 0.0) in trace.steps
    assert above > 0


def test_sampler_emits_only_the_heads(monkeypatch):
    calls = []
    emit = T._emit

    def counting_emit(*args):
        calls.append(args[0])
        return emit(*args)

    monkeypatch.setattr(T, "_emit", counting_emit)
    params = _params(D=4, seed=61)
    params.b_count_out = T.Tensor(2.0)
    heads(T.Tensor(np.zeros((2, 4))), params)
    per_heads = list(calls)
    assert per_heads
    step_counts = set()
    for seed in range(8):
        calls.clear()
        _, trace = sample_graph(params, np.random.default_rng(seed),
                                lambda_n=6.0)
        assert calls == per_heads
        step_counts.add(len(trace.steps))
    assert len(step_counts) > 1


# ---------------------------------------------------------------------------
# partition estimates


def _one_bond(n, pair):
    return MolecularGraph(("C",) * n, ((*pair, 1),))


def test_negative_sampled_matches_exact_when_pool_covered():
    params = _params(D=4, seed=23)
    z = _zt(5, 4, seed=2)
    g = _one_bond(5, (0, 1))
    exact = plan_edges(g, [(0, 1)], "exact")
    est = plan_edges(g, [(0, 1)], "negative_sampled", L=50,
                     rng=np.random.default_rng(0))
    assert est.size[0] == exact.cand.size == 10
    assert abs(graph_logprob(g, z, [exact], params).item()
               - graph_logprob(g, z, [est], params).item()) < 1e-12


def test_negative_sampled_single_candidate_is_certain():
    params = _params(D=3, seed=29)
    z = _zt(2, 3, seed=4)
    g = _one_bond(2, (0, 1))
    est = plan_edges(g, [(0, 1)], "negative_sampled", L=10,
                     rng=np.random.default_rng(1))
    assert not est.edge.any()  # no edge step: it is certain
    exact = plan_edges(g, [(0, 1)], "exact")
    assert (graph_logprob(g, z, [est], params).item()
            == graph_logprob(g, z, [exact], params).item())


def test_negative_sampled_mean_brackets_exact():
    # E[log Zhat] <= log Z by Jensen, so the estimated log-prob sits at or
    # above the exact one on average; it should also sit close by.
    params = _params(D=4, seed=31)
    z = _zt(8, 4, seed=6)
    g = _one_bond(8, (2, 5))
    exact = graph_logprob(g, z, [plan_edges(g, [(2, 5)], "exact")],
                          params).item()
    rng = np.random.default_rng(7)
    plans = [plan_edges(g, [(2, 5)], "negative_sampled", L=6, rng=rng)
             for _ in range(3000)]
    draws = graph_logprob(GraphBatch([g]), T.Tensor(z.data[None]), plans,
                          params).data
    mean = float(np.mean(draws))
    se = float(np.std(draws)) / math.sqrt(len(draws))
    assert mean >= exact - 4 * se
    assert abs(mean - exact) < 0.05


# ---------------------------------------------------------------------------
# gradients


def test_graph_logprob_gradients_exact():
    params = _params(D=3, seed=37)
    g = MolecularGraph(("C", "N", "C"), ((0, 1, 1), (1, 2, 2)))
    z0 = np.random.default_rng(8).standard_normal((3, 3))
    plist = [t for _, t in params.tensors()] + [T.Tensor(z0)]
    plan = plan_edges(g, [(0, 1), (1, 2)], "exact", mask_kind="valence")

    def loss_fn():
        return graph_logprob(g, plist[-1], [plan], params)

    err = T.finite_diff_check(loss_fn, plist)
    assert err < 1e-6


def test_graph_logprob_gradients_negative_sampled():
    params = _params(D=3, seed=41)
    g = MolecularGraph(("C", "C", "C", "C"),
                       ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    z0 = np.random.default_rng(9).standard_normal((4, 3))
    plist = [t for _, t in params.tensors()] + [T.Tensor(z0)]
    # the plan pins the negative draws, so the loss is a fixed smooth function
    plan = plan_edges(g, [(0, 1), (1, 2), (2, 3), (0, 3)], "negative_sampled",
                      L=2, rng=np.random.default_rng(3))

    def loss_fn():
        return graph_logprob(g, plist[-1], [plan], params,
                             partition="negative_sampled")

    err = T.finite_diff_check(loss_fn, plist)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# the fused edge-sequence op against the per-step composition


def edge_step_logprob(h, state, pair, partition="exact", L=10, rng=None):
    """Reference: log-probability that the next edge is ``pair``, one
    masked softmax of gathered tape ops, from its own walk of ``state``.

    ``exact`` normalizes over every unmasked candidate.  ``negative_sampled``
    normalizes over the true pair and L distinct uniformly drawn other
    candidates, each of those weighted by pool / L; a step with no other
    candidate is certain.
    """
    n = h.types.shape[0]
    assert state.edge_mask(pair)
    if partition == "exact":
        terms = T.gather_rows(h.edges, [u * n + v for u, v in state.candidates()])
    else:
        pool = state.candidate_count(exclude=pair)
        negs = state.sample_candidates(rng, L, exclude=pair)
        if not negs:
            return T.Tensor(0.0)
        offset = np.full(len(negs) + 1, math.log(pool / len(negs)))
        offset[0] = 0.0
        terms = T.gather_rows(h.edges, [u * n + v for u, v in [pair] + negs]) + offset
    return T.gather_rows(h.edges, pair[0] * n + pair[1]) - T.logsumexp(terms, axis=0)


def weight_step_logprob(h, state, pair, order):
    """Reference: log-probability of the bond order under the masked order
    softmax; order m of pair (u, v) scores at 3 (u n + v) + m - 1."""
    allowed = state.allowed_orders(pair)
    base = (pair[0] * h.types.shape[0] + pair[1]) * 3 - 1
    visible = T.gather_rows(h.orders, [base + m for m in allowed])
    return T.gather_rows(visible, allowed.index(order)) - T.logsumexp(visible, axis=0)


def _composed_logprob(g, z, seq, params, partition, L, mask_kind, rng):
    """graph_logprob as a composition of the per-step reference ops."""
    h = heads(z, params)
    total = feature_logprob(g, h) + poisson_logpmf(len(seq), h.rate, h.log_rate)
    state = decoder.make_state(mask_kind, atom_types=g.atom_types,
                               table=DEFAULT_TABLE)
    orders = {(u, v): o for u, v, o in g.bonds}
    for pair in seq:
        total = total + edge_step_logprob(h, state, pair, partition, L, rng)
        total = total + weight_step_logprob(h, state, pair, orders[pair])
        state.commit(pair, orders[pair])
    return total


def _taped(fn, plist):
    with T.Tape() as tape:
        out = fn()
    return out.item(), tape.gradients(out, plist)


def _assert_matches_reference(partition, value, grads, ref, ref_grads):
    """Negative-sampled: bit for bit, as the fused backward sums in the
    composition's order.  Exact: within 1e-12 relative, since the close-step
    log-sum-exp sums every step's partition in another order."""
    if partition == "negative_sampled":
        assert value == ref
        for ga, gb in zip(grads, ref_grads):
            assert np.array_equal(ga, gb)
        return
    assert abs(value - ref) <= 1e-12 * abs(ref)
    for ga, gb in zip(grads, ref_grads):
        np.testing.assert_allclose(ga, gb, rtol=1e-12,
                                   atol=1e-12 * np.abs(gb).max())


@pytest.mark.parametrize("mask_kind", MASK_KINDS + ("rejecting",))
@pytest.mark.parametrize("partition", ["exact", "negative_sampled"])
def test_graph_logprob_equals_step_composition(monkeypatch, mask_kind, partition):
    sample_kind = mask_kind
    if mask_kind == "rejecting":
        monkeypatch.setattr(decoder, "make_state", lambda kind, atom_types, table:
                            MaskState(len(atom_types), [_NoOrderOnEveryThirdPair()]))
        sample_kind = "none"  # make_state is patched; the kind is unused
    params = _with_biases(_params(D=4, seed=73), seed=74)
    params.b_count_out = T.Tensor(9.0)  # a few edges per graph, up to 15
    rng = np.random.default_rng(75)
    scored = 0
    for seed in range(30):
        z0 = rng.standard_normal((int(rng.integers(2, 11)), 4))
        if mask_kind == "rejecting":
            # the sampler cannot decode a pair the stub gives no order
            g, seq = _walkable_molecule(rng, len(z0), sample_kind)
        else:
            g, trace = sample_graph(params, rng, z=z0, mask_kind=sample_kind)
            seq = [(u, v) for u, v, _ in trace.edges]
        seq = [seq[i] for i in rng.permutation(len(seq))]
        plist = [t for _, t in params.tensors()] + [T.Tensor(z0)]
        fused_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        plan = plan_edges(g, seq, partition, 3, sample_kind, rng=fused_rng)
        value, grads = _taped(lambda: graph_logprob(
            g, plist[-1], [plan], params, partition=partition), plist)
        ref, ref_grads = _taped(lambda: _composed_logprob(
            g, plist[-1], seq, params, partition, 3, sample_kind, ref_rng), plist)
        _assert_matches_reference(partition, value, grads, ref, ref_grads)
        assert fused_rng.random() == ref_rng.random()
        scored += len(seq) >= 2
    assert scored >= 10


def _walkable_molecule(rng, n, mask_kind):
    """A random molecule of n atoms, with each bond in a random order kept
    if the mask (``decoder.make_state``) still proposes it; the kept bonds
    and their order."""
    g = random_molecule(rng, n)
    while g.n != n:  # random_molecule stops early when valence saturates
        g = random_molecule(rng, n)
    state = decoder.make_state(mask_kind, atom_types=g.atom_types,
                               table=DEFAULT_TABLE)
    bonds = []
    for i in rng.permutation(len(g.bonds)):
        u, v, order = g.bonds[i]
        if state.edge_mask((u, v)) and order in state.allowed_orders((u, v)):
            state.commit((u, v), order)
            bonds.append((u, v, order))
    return MolecularGraph(g.atom_types, tuple(bonds)), [(u, v) for u, v, _ in bonds]


@settings(max_examples=100)
@given(mask_kind=st.sampled_from(MASK_KINDS), n=st.integers(2, 20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_close_steps_match_candidates_at_every_step(mask_kind, n, seed):
    """The close-step walk against brute force: at every step t, the
    candidates whose close step lies beyond t are exactly what
    ``candidates()`` lists at t, in the same order."""
    g, seq = _walkable_molecule(np.random.default_rng(seed), n, mask_kind)
    steps = [((u, v), order) for u, v, order in g.bonds]  # in seq's order
    cands, close = decoder._close_steps(
        make_state(mask_kind, atom_types=g.atom_types), iter(steps))
    assert close.shape == (len(cands),)
    ref = make_state(mask_kind, atom_types=g.atom_types)
    assert cands == ref.candidates()
    for t, (pair, order) in enumerate(steps):
        assert [c for c, k in zip(cands, close) if k > t] == ref.candidates()
        assert close[cands.index(pair)] == t + 1
        ref.commit(pair, order)
    assert close.max(initial=0) <= len(seq)


@pytest.mark.parametrize("mask_kind", MASK_KINDS + ("rejecting",))
@pytest.mark.parametrize("n", [24, 64])
def test_exact_sequences_match_composition_up_to_64_atoms(monkeypatch,
                                                          mask_kind, n):
    if mask_kind == "rejecting":
        monkeypatch.setattr(decoder, "make_state", lambda kind, atom_types, table:
                            MaskState(len(atom_types), [_NoOrderOnEveryThirdPair()]))
        mask_kind = "none"  # make_state is patched; the kind is unused
    params = _with_biases(_params(D=4, seed=101), seed=102)
    rng = np.random.default_rng(n)
    g, seq = _walkable_molecule(rng, n, mask_kind)
    assert len(seq) >= n // 2
    plist = [t for _, t in params.tensors()] + [T.Tensor(rng.standard_normal((n, 4)))]
    plan = plan_edges(g, seq, "exact", mask_kind=mask_kind)
    # O(n^2) per sequence: each candidate once, and only order steps listed
    assert plan.cand.size <= n * (n - 1) // 2
    assert plan.idx.size <= 3 * len(seq) and not plan.edge.any()

    def fused():
        return graph_logprob(g, plist[-1], [plan], params)

    def composed():
        return _composed_logprob(g, plist[-1], seq, params, "exact", 0,
                                 mask_kind, None)

    untaped, ref_untaped = fused().item(), composed().item()
    value, grads = _taped(fused, plist)
    ref, ref_grads = _taped(composed, plist)
    assert untaped == value and ref_untaped == ref
    _assert_matches_reference("exact", value, grads, ref, ref_grads)


def test_exact_partition_of_a_128_atom_molecule():
    params = _with_biases(_params(D=4, seed=103), seed=104)
    rng = np.random.default_rng(105)
    g, seq = _walkable_molecule(rng, 128, "valence")
    assert valence_ok(g) and len(seq) == len(g.bonds) >= 127
    plist = [t for _, t in params.tensors()] + [
        T.Tensor(rng.standard_normal((128, 4)))]
    tracemalloc.start()
    try:
        plan = plan_edges(g, seq, "exact", mask_kind="valence")
        value = graph_logprob(g, plist[-1], [plan], params).item()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20  # per-step candidate lists held 28 MB
    ref = _composed_logprob(g, plist[-1], seq, params, "exact", 0, "valence",
                            None).item()
    assert abs(value - ref) <= 1e-12 * abs(ref)
    with T.Tape() as tape:
        taped = graph_logprob(g, plist[-1], [plan], params)
    grads = tape.gradients(taped, plist)
    assert taped.item() == value
    assert all(np.all(np.isfinite(grad)) for grad in grads)


@pytest.mark.parametrize("mask_kind", ["none", "valence"])
def test_batch_sequences_with_certain_steps_equal_composition(mask_kind):
    params = _with_biases(_params(D=4, seed=89), seed=90)
    batch = GraphBatch([
        MolecularGraph(("C",) * 3, ((0, 1, 1), (1, 2, 2), (0, 2, 1))),
        MolecularGraph(("C", "N", "O"), ((0, 1, 2), (1, 2, 1))),
        MolecularGraph(("C", "O", "C"), ((0, 2, 1),)),
    ])
    # plan p scores graph p mod 3; closing the triangle last leaves its
    # edge step no other candidate to sample: a certain step, no entry
    seqs = [[(1, 2), (0, 1), (0, 2)], [(1, 2), (0, 1)], [(0, 2)],
            [(0, 2), (0, 1), (1, 2)], [(0, 1), (1, 2)], [(0, 2)]]
    plans = [plan_edges(batch[p % len(batch)], seq, "negative_sampled", 3,
                        mask_kind, rng=np.random.default_rng(p))
             for p, seq in enumerate(seqs)]
    assert len({p.true.size for p in plans}) > 1
    assert sum(len(seq) - int(p.edge.sum()) for p, seq in zip(plans, seqs)) >= 2
    z0 = np.random.default_rng(91).standard_normal((len(batch), 3, 4))
    plist = [t for _, t in params.tensors()] + [T.Tensor(z0)]
    weights = np.linspace(-1.0, 2.0, len(seqs))  # a misrouted gradient shows
    with T.Tape() as tape:
        values = graph_logprob(batch, plist[-1], plans, params)
        loss = T.sum_all(values * weights)
    grads = tape.gradients(loss, plist)
    apart = [np.zeros_like(t.data) for t in plist]
    for p, (seq, w) in enumerate(zip(seqs, weights)):
        b = p % len(batch)
        zb = T.Tensor(z0[b])
        ref, ref_grads = _taped(lambda: _composed_logprob(
            batch[b], zb, seq, params, "negative_sampled", 3, mask_kind,
            np.random.default_rng(p)), plist[:-1] + [zb])
        assert values.data[p] == ref
        for acc, grad in zip(apart[:-1], ref_grads[:-1]):
            acc += w * grad
        apart[-1][b] += w * ref_grads[-1]
    for a, b in zip(grads, apart):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("partition", ["exact", "negative_sampled"])
def test_batch_with_a_bond_free_graph_equals_composition(partition):
    params = _with_biases(_params(D=4, seed=93), seed=94)
    batch = GraphBatch([
        MolecularGraph(("C", "O", "N"), ()),
        MolecularGraph(("C", "N", "O"), ((0, 1, 2), (1, 2, 1))),
        MolecularGraph(("C", "O", "C"), ((0, 2, 1),)),
    ])
    # plans 0 and 3 score the bond-free graph: they have no steps at all
    seqs = [[], [(1, 2), (0, 1)], [(0, 2)], [], [(0, 1), (1, 2)], [(0, 2)]]
    plans = [plan_edges(batch[p % len(batch)], seq, partition, 3, "valence",
                        rng=np.random.default_rng(p))
             for p, seq in enumerate(seqs)]
    assert [p.true.size for p in plans][::3] == [0, 0]
    z0 = np.random.default_rng(95).standard_normal((len(batch), 3, 4))
    plist = [t for _, t in params.tensors()] + [T.Tensor(z0)]
    weights = np.linspace(-1.0, 2.0, len(seqs))  # a misrouted gradient shows
    with T.Tape() as tape:
        values = graph_logprob(batch, plist[-1], plans, params)
        loss = T.sum_all(values * weights)
    grads = tape.gradients(loss, plist)
    apart = [np.zeros_like(t.data) for t in plist]
    for p, (seq, w) in enumerate(zip(seqs, weights)):
        b = p % len(batch)
        zb = T.Tensor(z0[b])
        ref, ref_grads = _taped(lambda: _composed_logprob(
            batch[b], zb, seq, params, partition, 3, "valence",
            np.random.default_rng(p)), plist[:-1] + [zb])
        # a graph of a batch scores as it does alone, bit for bit
        assert values.data[p] == graph_logprob(batch[b], zb, [plans[p]],
                                               params).item()
        if partition == "exact":
            assert abs(values.data[p] - ref) <= 1e-12 * abs(ref)
        else:
            assert values.data[p] == ref
        for acc, grad in zip(apart[:-1], ref_grads[:-1]):
            acc += w * grad
        apart[-1][b] += w * ref_grads[-1]
    for a, b in zip(grads, apart):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_graph_logprob_tape_length_is_independent_of_bonds():
    params = _params(D=4, seed=79)
    z = _zt(6, 4, seed=13)
    sparse = MolecularGraph(("C",) * 6, ((0, 1, 1), (2, 3, 1)))
    dense = MolecularGraph(("C",) * 6, tuple((u, u + 1, 1) for u in range(5))
                           + ((0, 5, 1),))
    lengths = []
    for g in (sparse, dense):
        for partition in ("exact", "negative_sampled"):
            plan = plan_edges(g, [(u, v) for u, v, _ in g.bonds], partition,
                              mask_kind="valence", rng=np.random.default_rng(0))
            with T.Tape() as tape:
                graph_logprob(g, z, [plan], params, partition=partition)
            lengths.append(len(tape))
    assert len(set(lengths)) == 1


def test_graph_logprob_untaped_keeps_no_backward_buffers(monkeypatch):
    params = _params(D=4, seed=83)
    z = _zt(5, 4, seed=14)
    g = MolecularGraph(("C", "C", "O", "N", "C"),
                       ((0, 1, 2), (1, 2, 1), (1, 3, 1), (3, 4, 1)))
    plan = plan_edges(g, [(0, 1), (1, 2), (1, 3), (3, 4)], mask_kind="valence")
    backwards = []
    custom_op = T.custom_op

    def capturing_op(name, inputs, out_data, backward):
        if name == "edge_sequence":
            backwards.append(backward)
        return custom_op(name, inputs, out_data, backward)

    monkeypatch.setattr(T, "custom_op", capturing_op)
    with T.Tape() as tape:
        taped = graph_logprob(g, z, [plan], params)
    untaped = graph_logprob(g, z, [plan], params)
    assert untaped.item() == taped.item()
    assert len(tape) > 0 and not T.recording()
    (_, ge_taped, go_taped), (_, ge, go) = (b(np.ones(())) for b in backwards)
    assert np.any(ge_taped) and np.any(go_taped)
    assert not np.any(ge) and not np.any(go)


# ---------------------------------------------------------------------------
# invariances and errors


def test_graph_logprob_invariant_under_relabeling():
    params = _params(D=4, seed=43)
    g = MolecularGraph(("C", "O", "N", "C"), ((0, 1, 1), (1, 2, 1), (2, 3, 2)))
    z = np.random.default_rng(10).standard_normal((4, 4))
    seq = [(0, 1), (1, 2), (2, 3)]
    plan = plan_edges(g, seq, mask_kind="valence")
    base = graph_logprob(g, T.Tensor(z), [plan], params).item()
    rng = np.random.default_rng(11)
    for _ in range(10):
        perm = rng.permutation(4)
        g2 = g.relabel(perm)
        z2 = np.empty_like(z)
        for old in range(4):
            z2[perm[old]] = z[old]
        plan2 = plan_edges(g2, [(perm[u], perm[v]) for u, v in seq],
                           mask_kind="valence")
        val = graph_logprob(g2, T.Tensor(z2), [plan2], params).item()
        assert abs(val - base) < 1e-9


def test_edge_count_invariant_under_row_permutation():
    params = _params(D=5, seed=47)
    z = np.random.default_rng(12).standard_normal((7, 5))
    r1, _ = edge_count_dist(T.Tensor(z), params)
    r2, _ = edge_count_dist(T.Tensor(z[::-1].copy()), params)
    assert abs(r1.item() - r2.item()) < 1e-12


def test_poisson_logpmf_matches_scipy():
    from scipy.stats import poisson

    rate = T.Tensor(2.7)
    log_rate = T.log(rate)
    for k in (0, 1, 5, 19):
        ours = poisson_logpmf(k, rate, log_rate).item()
        assert abs(ours - poisson.logpmf(k, 2.7)) < 1e-12


def test_error_paths():
    g = MolecularGraph(("C", "C"), ((0, 1, 1),))
    with pytest.raises(ValueError, match="exactly once"):
        plan_edges(g, [])  # sequence misses the bond
    with pytest.raises(ValueError, match="exactly once"):
        plan_edges(g, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="order 3 masked"):
        plan_edges(MolecularGraph(("H", "H"), ((0, 1, 3),)), [(0, 1)],
                   mask_kind="valence")  # H-H triple bond
    with pytest.raises(ValueError, match="partition"):
        plan_edges(g, [(0, 1)], partition="bogus")
    with pytest.raises(ValueError, match="needs an rng"):
        plan_edges(g, [(0, 1)], partition="negative_sampled")
    params = _params(D=3, seed=53)
    with pytest.raises(ValueError, match="need one of"):
        sample_graph(params, np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty graph"):
        sample_graph(params, np.random.default_rng(0), z=np.zeros((0, 3)))


def _path(n):
    return MolecularGraph(("C",) * n, tuple((u, u + 1, 1) for u in range(n - 1)))


def test_graph_logprob_rejects_a_plan_of_another_graph():
    params = _params(D=3, seed=97)
    z = _zt(6, 3, seed=15)
    g = _path(6)  # five bonds
    seq = [(u, u + 1) for u in range(5)]
    assert np.isfinite(graph_logprob(g, z, [plan_edges(g, seq)], params).item())
    ring5 = MolecularGraph(("C",) * 5, _path(5).bonds + ((0, 4, 1),))
    five = plan_edges(ring5, seq[:4] + [(0, 4)])  # five bonds, but n = 5
    with pytest.raises(ValueError, match="plan 0 was walked for 5 nodes and"
                                         " 5 bonds; its graph has 6 nodes"):
        graph_logprob(g, z, [five], params)
    one_bond = plan_edges(_one_bond(6, (0, 1)), [(0, 1)])
    with pytest.raises(ValueError, match="plan 0 .* 1 bonds; its graph has 6"
                                         " nodes and 5 bonds"):
        graph_logprob(g, z, [one_bond], params)
    with pytest.raises(ValueError, match="one plan, got 2"):
        graph_logprob(g, z, [plan_edges(g, seq)] * 2, params)
    with pytest.raises(ValueError, match="one plan, got 0"):
        graph_logprob(g, z, [], params)


def test_graph_logprob_rejects_plans_that_do_not_fit_a_batch():
    params = _params(D=3, seed=98)
    batch = GraphBatch([_path(4), _one_bond(4, (1, 3))])
    z = T.Tensor(np.random.default_rng(16).standard_normal((2, 4, 3)))
    plans = [plan_edges(_path(4), [(0, 1), (1, 2), (2, 3)]),
             plan_edges(_one_bond(4, (1, 3)), [(1, 3)])]
    assert graph_logprob(batch, z, plans * 2, params).shape == (4,)
    with pytest.raises(ValueError, match="3 plans do not cover a batch of 2"):
        graph_logprob(batch, z, plans + plans[:1], params)
    with pytest.raises(ValueError, match="0 plans"):
        graph_logprob(batch, z, [], params)
    with pytest.raises(ValueError, match="plan 1 was walked for 4 nodes and 3"
                                         " bonds; its graph has 4 nodes and 1"):
        graph_logprob(batch, z, plans[:1] * 2, params)
