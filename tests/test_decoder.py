"""Decoder heads, trace accounting, masked sampling, partition estimates."""

import math

import numpy as np
import pytest

from molvae import decoder
from molvae import tensor as T
from molvae.decoder import (edge_count_dist, edge_step_logprob,
                            feature_logprob, graph_logprob, heads,
                            init_decoder, poisson_logpmf, sample_graph,
                            type_logits, weight_step_logprob)
from molvae.masks import MASK_KINDS, MaskState, make_state
from molvae.molgraph import (DEFAULT_TABLE, MolecularGraph, valence_ok)


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
    steps left.  Rejections do not consume budget, matching the sampler."""
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
        if not allowed:
            saved = _snapshot(state)
            state.reject(pair)
            total += _enumerate_edge_tree(scores, state, budget, acc + logp[i])
            _restore(state, saved)
            continue
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
        lp = graph_logprob(g, T.Tensor(z), seq, params, partition="exact",
                           mask_kind="valence")
        assert abs(lp.item() - trace.total_logprob) < 1e-9
    assert hits >= 5


def test_trace_rejection_path_via_stub_rule():
    """A pair can pass the edge mask yet allow no order; the sampler must
    reject it, log the choice, and never propose it again."""

    class NoOrderOnFirstPair:
        def edge_ok(self, state, pair):
            return True

        def weight_ok(self, state, pair, order):
            return pair != (0, 1)

        def on_commit(self, state, pair, order):
            pass

        def on_reject(self, state, pair):
            pass

        def count_allowed(self, state, exclude):
            return len(state.candidates(exclude))

    params = _params(D=3, seed=1)
    rng = np.random.default_rng(0)
    saw_reject = False
    for seed in range(40):
        state = MaskState(3, rules=(NoOrderOnFirstPair(),))
        z = np.random.default_rng(seed).standard_normal((3, 3))
        scores, _ = _pair_scores(z, params)
        edges = []
        steps = []
        local = np.random.default_rng(seed)
        while len(edges) < 2:
            cands = state.candidates()
            if not cands:
                break
            logits = np.array([scores[pair] for pair in cands])
            p = np.exp(logits - logits.max())
            p /= p.sum()
            idx = int(local.choice(len(p), p=p))
            pair = cands[idx]
            if not state.allowed_orders(pair):
                state.reject(pair)
                steps.append(("reject", pair))
                saw_reject = True
                assert pair not in state.candidates()
                continue
            state.commit(pair, 1)
            edges.append(pair)
        assert (0, 1) not in edges
    assert saw_reject


def test_sample_graph_reports_early_stop():
    params = _params(D=3, seed=3)
    # push the edge rate up so the valence mask saturates before l edges
    params.b_count_out = T.Tensor(3.0)
    rng = np.random.default_rng(7)
    stopped = 0
    for _ in range(30):
        g, trace = sample_graph(params, rng, n=3, mask_kind="valence")
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
        assert trace.n >= 1
        counts[trace.n] = counts.get(trace.n, 0) + 1
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
    ones = sum(sample_graph(params, rng, lambda_n=lam, mask_kind="none")[1].n == 1
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


# ---------------------------------------------------------------------------
# the sampler against the taped reference


def _taped_sample_graph(params, rng, *, lambda_n=None, n=None, z=None,
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
    elif n is None:
        while True:
            n = int(rng.poisson(lambda_n))
            if n >= 1:
                break
        steps.append(("node_count", n, n * math.log(lambda_n) - lambda_n
                      - math.lgamma(n + 1) - math.log1p(-math.exp(-lambda_n))))
    if z is None:
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
        if not allowed:
            state.reject(pair)
            steps.append(("reject", pair, logp))
            continue
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
    """Stub rule under which some proposed pairs allow no order."""

    def edge_ok(self, state, pair):
        return True

    def weight_ok(self, state, pair, order):
        return sum(pair) % 3 != 0

    def on_commit(self, state, pair, order):
        pass

    def on_reject(self, state, pair):
        pass

    def count_allowed(self, state, exclude):
        return len(state.candidates(exclude))


@pytest.mark.parametrize("mask_kind", MASK_KINDS + ("rejecting",))
@pytest.mark.parametrize("entry", ["lambda_n", "n", "z"])
def test_sampler_matches_taped_reference(monkeypatch, mask_kind, entry):
    if mask_kind == "rejecting":
        monkeypatch.setattr(decoder, "make_state", lambda kind, atom_types, table:
                            MaskState(len(atom_types), [_NoOrderOnEveryThirdPair()]))
    params = _with_biases(_params(D=4, seed=61), seed=62)
    params.b_count_out = T.Tensor(2.0)  # enough edges to saturate masks
    kinds = set()
    for seed in range(100):
        kw = {"lambda_n": {"lambda_n": 6.0}, "n": {"n": 5},
              "z": {"z": np.random.default_rng(10_000 + seed)
                    .standard_normal((6, 4))}}[entry]
        g, trace = sample_graph(params, np.random.default_rng(seed),
                                mask_kind=mask_kind, **kw)
        ref, ref_steps, ref_early = _taped_sample_graph(
            params, np.random.default_rng(seed), mask_kind=mask_kind, **kw)
        assert g == ref
        assert trace.early_stopped == ref_early
        assert [s[:2] for s in trace.steps] == [s[:2] for s in ref_steps]
        for (_, _, lp), (_, _, ref_lp) in zip(trace.steps, ref_steps):
            assert abs(lp - ref_lp) <= 1e-12
        kinds.update(kind for kind, _, _ in trace.steps)
    assert {"feature", "edge_count", "edge", "order"} <= kinds
    if mask_kind == "rejecting":
        assert "reject" in kinds


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
                       match="non-finite value produced by op 'matmul'"):
        with np.errstate(invalid="ignore"):
            sample_graph(params, np.random.default_rng(0), z=z)
    params.w_edge = T.Tensor(np.full((1, 3), 1e308))
    with pytest.raises(FloatingPointError,
                       match="non-finite value produced by op 'matmul'"):
        with np.errstate(over="ignore", invalid="ignore"):
            sample_graph(params, np.random.default_rng(0), z=np.ones((4, 3)))
    params = _params(D=3, seed=71)
    params.b_count_out = T.Tensor(800.0)
    with pytest.raises(FloatingPointError, match="overflow in op 'exp'"):
        sample_graph(params, np.random.default_rng(0), n=4)


@pytest.mark.parametrize("mask_kind", ["none", "valence"])
@pytest.mark.parametrize("b_count_out", [44.0, 50.0])
def test_sampler_edge_rate_above_poisson_limit(mask_kind, b_count_out):
    """numpy draws no Poisson variate above a rate of about 9.2e18; such a
    draw requests one edge more than the 15 pairs of six nodes."""
    params = init_decoder(np.random.default_rng(4), 4)
    params.b_count_out = T.Tensor(b_count_out)
    above = 0
    for seed in range(20):
        g, trace = sample_graph(params, np.random.default_rng(seed), n=6,
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


def test_negative_sampled_matches_exact_when_pool_covered():
    params = _params(D=4, seed=23)
    z = _zt(5, 4, seed=2)
    state = make_state("none", n=5)
    rng = np.random.default_rng(0)
    h = heads(z, params)
    exact = edge_step_logprob(h, state, (0, 1), partition="exact")
    est = edge_step_logprob(h, state, (0, 1),
                            partition="negative_sampled", L=50, rng=rng)
    assert abs(exact.item() - est.item()) < 1e-12


def test_negative_sampled_single_candidate_is_certain():
    params = _params(D=3, seed=29)
    z = _zt(2, 3, seed=4)
    state = make_state("none", n=2)
    est = edge_step_logprob(heads(z, params), state, (0, 1),
                            partition="negative_sampled", L=10,
                            rng=np.random.default_rng(1))
    assert est.item() == 0.0


def test_negative_sampled_mean_brackets_exact():
    # E[log Zhat] <= log Z by Jensen, so the estimated log-prob sits at or
    # above the exact one on average; it should also sit close by.
    params = _params(D=4, seed=31)
    z = _zt(8, 4, seed=6)
    state = make_state("none", n=8)
    h = heads(z, params)
    exact = edge_step_logprob(h, state, (2, 5), partition="exact").item()
    rng = np.random.default_rng(7)
    draws = [edge_step_logprob(h, state, (2, 5),
                               partition="negative_sampled", L=6,
                               rng=rng).item()
             for _ in range(3000)]
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

    def loss_fn():
        return graph_logprob(g, plist[-1], [(0, 1), (1, 2)], params,
                             partition="exact", mask_kind="valence")

    err = T.finite_diff_check(loss_fn, plist)
    assert err < 1e-6


def test_graph_logprob_gradients_negative_sampled():
    params = _params(D=3, seed=41)
    g = MolecularGraph(("C", "C", "C", "C"),
                       ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    z0 = np.random.default_rng(9).standard_normal((4, 3))
    plist = [t for _, t in params.tensors()] + [T.Tensor(z0)]

    def loss_fn():
        # pin the negative draws so the loss is a fixed smooth function
        return graph_logprob(g, plist[-1], [(0, 1), (1, 2), (2, 3), (0, 3)],
                             params, partition="negative_sampled", L=2,
                             mask_kind="none", rng=np.random.default_rng(3))

    err = T.finite_diff_check(loss_fn, plist)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# the fused edge-sequence op against the per-step composition


def _composed_logprob(g, z, seq, params, partition, L, mask_kind, rng):
    """graph_logprob as a composition of the per-step tape ops."""
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
        g, trace = sample_graph(params, rng, z=z0, mask_kind=sample_kind)
        seq = [(u, v) for u, v, _ in trace.edges]
        seq = [seq[i] for i in rng.permutation(len(seq))]
        plist = [t for _, t in params.tensors()] + [T.Tensor(z0)]
        fused_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        value, grads = _taped(lambda: graph_logprob(
            g, plist[-1], seq, params, partition=partition, L=3,
            mask_kind=sample_kind, rng=fused_rng), plist)
        ref, ref_grads = _taped(lambda: _composed_logprob(
            g, plist[-1], seq, params, partition, 3, sample_kind, ref_rng), plist)
        # bit for bit: the fused backward sums in the composition's order
        assert value == ref
        for ga, gb in zip(grads, ref_grads):
            assert np.array_equal(ga, gb)
        assert fused_rng.random() == ref_rng.random()
        scored += len(seq) >= 2
    assert scored >= 10


def test_graph_logprob_tape_length_is_independent_of_bonds():
    params = _params(D=4, seed=79)
    z = _zt(6, 4, seed=13)
    sparse = MolecularGraph(("C",) * 6, ((0, 1, 1), (2, 3, 1)))
    dense = MolecularGraph(("C",) * 6, tuple((u, u + 1, 1) for u in range(5))
                           + ((0, 5, 1),))
    lengths = []
    for g in (sparse, dense):
        for partition in ("exact", "negative_sampled"):
            with T.Tape() as tape:
                graph_logprob(g, z, [(u, v) for u, v, _ in g.bonds], params,
                              partition=partition, mask_kind="valence",
                              rng=np.random.default_rng(0))
            lengths.append(len(tape))
    assert len(set(lengths)) == 1


def test_graph_logprob_untaped_keeps_no_backward_buffers(monkeypatch):
    params = _params(D=4, seed=83)
    z = _zt(5, 4, seed=14)
    g = MolecularGraph(("C", "C", "O", "N", "C"),
                       ((0, 1, 2), (1, 2, 1), (1, 3, 1), (3, 4, 1)))
    seq = [(0, 1), (1, 2), (1, 3), (3, 4)]
    backwards = []
    custom_op = T.custom_op

    def capturing_op(name, inputs, out_data, backward):
        if name == "edge_sequence":
            backwards.append(backward)
        return custom_op(name, inputs, out_data, backward)

    monkeypatch.setattr(T, "custom_op", capturing_op)
    with T.Tape() as tape:
        taped = graph_logprob(g, z, seq, params, mask_kind="valence")
    untaped = graph_logprob(g, z, seq, params, mask_kind="valence")
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
    base = graph_logprob(g, T.Tensor(z), seq, params, mask_kind="valence").item()
    rng = np.random.default_rng(11)
    for _ in range(10):
        perm = rng.permutation(4)
        g2 = g.relabel(perm)
        z2 = np.empty_like(z)
        for old in range(4):
            z2[perm[old]] = z[old]
        seq2 = [(perm[u], perm[v]) for u, v in seq]
        val = graph_logprob(g2, T.Tensor(z2), seq2, params,
                            mask_kind="valence").item()
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
    params = _params(D=3, seed=53)
    g = MolecularGraph(("C", "C"), ((0, 1, 1),))
    z = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        graph_logprob(g, z, [], params)  # sequence misses the bond
    with pytest.raises(ValueError):
        graph_logprob(g, z, [(0, 1), (0, 1)], params)
    state = make_state("valence", atom_types=("H", "H"), table=DEFAULT_TABLE)
    with pytest.raises(ValueError):
        weight_step_logprob(heads(z, params), state, (0, 1), 3)  # H-H triple bond
    with pytest.raises(ValueError):
        edge_step_logprob(heads(z, params), state, (0, 1), partition="bogus")
    with pytest.raises(ValueError):
        edge_step_logprob(heads(z, params), state, (0, 1),
                          partition="negative_sampled")
    with pytest.raises(ValueError):
        sample_graph(params, np.random.default_rng(0))  # no size source
