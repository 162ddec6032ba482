"""BFS orders, KL, ELBO (incl. a quadrature upper-bound oracle), train loop,
checkpoint round trips."""

import json
import math
import os

import numpy as np
import pytest

from molvae import tensor as T
from molvae import training
from molvae.decoder import (graph_logprob, node_count_logpmf, plan_edges,
                            sample_graph)
from molvae.encoder import Posterior
from molvae.molgraph import (DEFAULT_TABLE, GraphBatch, MolecularGraph, ValenceTable,
                             random_molecule)
from molvae.training import (Checkpoint, Hyperparams, ModelParams, bfs_edge_order,
                             elbo, fit_lambda_n, init_model, kl_term,
                             load_checkpoint, make_batches, sample_source,
                             save_checkpoint, train)


# ---------------------------------------------------------------------------
# BFS edge orders


def test_bfs_path_is_deterministic():
    g = MolecularGraph(("C", "C", "C"), ((0, 1, 1), (1, 2, 1)))
    for seed in range(10):
        assert bfs_edge_order(g, 0, np.random.default_rng(seed)) == [(0, 1), (1, 2)]


def test_bfs_star_tie_breaking_is_uniform():
    g = MolecularGraph(("C", "H", "H", "H"), ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    rng = np.random.default_rng(0)
    counts = {}
    trials = 10_000
    for _ in range(trials):
        seq = tuple(bfs_edge_order(g, 0, rng))
        counts[seq] = counts.get(seq, 0) + 1
    assert len(counts) == 6
    p = 1.0 / 6.0
    band = 3.0 * math.sqrt(p * (1 - p) / trials)
    for c in counts.values():
        assert abs(c / trials - p) < band


def test_bfs_cycle_emits_nontree_edge_last():
    g = MolecularGraph(("C",) * 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    rng = np.random.default_rng(1)
    for _ in range(200):
        seq = bfs_edge_order(g, 0, rng)
        assert len(seq) == 4
        assert sorted(seq) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert set(seq[:2]) == {(0, 1), (0, 3)}
        assert 2 in seq[3], "the non-tree edge closes at the far node"


def test_bfs_covers_every_edge_once():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_molecule(rng, int(rng.integers(2, 10)))
        src = int(rng.integers(g.n))
        seq = bfs_edge_order(g, src, rng)
        assert sorted(seq) == sorted((u, v) for u, v, _ in g.bonds)


def test_bfs_restarts_on_disconnected_graph():
    g = MolecularGraph(("C",) * 5,
                       ((0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1)))
    rng = np.random.default_rng(3)
    for _ in range(100):
        seq = bfs_edge_order(g, 0, rng)
        assert sorted(seq) == [(0, 1), (0, 2), (1, 2), (3, 4)]
    # starting inside the small component also covers everything
    seq = bfs_edge_order(g, 4, np.random.default_rng(0))
    assert sorted(seq) == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_source_distributions():
    g = MolecularGraph(("C", "C", "C"), ((0, 2, 1), (1, 2, 1)))  # degrees 1,1,2
    rng = np.random.default_rng(4)
    trials = 20_000
    hits = np.zeros(3)
    for _ in range(trials):
        hits[sample_source(g, "degree", rng)] += 1
    for u, expect in enumerate((0.25, 0.25, 0.5)):
        band = 3.0 * math.sqrt(expect * (1 - expect) / trials)
        assert abs(hits[u] / trials - expect) < band
    hits = np.zeros(3)
    for _ in range(trials):
        hits[sample_source(g, "uniform", rng)] += 1
    assert np.all(np.abs(hits / trials - 1 / 3) < 0.02)
    for _ in range(20):
        assert sample_source(g, "max_degree", rng) == 2
    # no edges: degree weighting falls back to uniform instead of dividing by 0
    bare = MolecularGraph(("C", "C"), ())
    seen = {sample_source(bare, "degree", rng) for _ in range(50)}
    assert seen == {0, 1}


def test_max_degree_breaks_ties_uniformly():
    g = MolecularGraph(("C", "C", "C", "C"),
                       ((0, 1, 1), (2, 3, 1)))  # all degree 1
    rng = np.random.default_rng(5)
    hits = np.zeros(4)
    for _ in range(8000):
        hits[sample_source(g, "max_degree", rng)] += 1
    assert np.all(np.abs(hits / 8000 - 0.25) < 0.025)


# ---------------------------------------------------------------------------
# KL


def test_kl_zero_for_standard_normal_posterior():
    post = Posterior(T.Tensor(np.zeros((3, 4))), T.Tensor(np.ones((3, 4))))
    assert kl_term(post, 4).item() == 0.0


def test_kl_hand_value():
    post = Posterior(T.Tensor(np.array([[1.0, 0.0]])), T.Tensor(np.ones((1, 2))))
    assert abs(kl_term(post, 2).item() - 0.5) < 1e-12


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(6)
    mu = rng.uniform(0.1, 1.5, size=(2, 3))
    sigma = rng.uniform(0.4, 1.6, size=(2, 3))
    closed = kl_term(Posterior(T.Tensor(mu), T.Tensor(sigma)), 3).item()
    eps = rng.standard_normal((1_000_000, 2, 3))
    z = mu + sigma * eps
    logq = (-0.5 * eps ** 2 - np.log(sigma) - 0.5 * math.log(2 * math.pi)).sum(axis=(1, 2))
    logp = (-0.5 * z ** 2 - 0.5 * math.log(2 * math.pi)).sum(axis=(1, 2))
    mc = float(np.mean(logq - logp))
    assert abs(mc - closed) / abs(closed) < 0.01


def test_kl_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.0, 1.0, size=(5, 3))
    sigma = rng.uniform(0.5, 1.5, size=(5, 3))
    a = kl_term(Posterior(T.Tensor(mu), T.Tensor(sigma)), 3).item()
    perm = rng.permutation(5)
    b = kl_term(Posterior(T.Tensor(mu[perm]), T.Tensor(sigma[perm])), 3).item()
    assert abs(a - b) < 1e-9


# ---------------------------------------------------------------------------
# ELBO


def _tiny_hyper(**kw):
    base = dict(D=4, K=2, L=5, lr=0.01, S=1, batch_size=8, iterations=0,
                seed=0, mask_kind="valence", source_kind="uniform",
                partition="negative_sampled")
    base.update(kw)
    return Hyperparams(**base)


def test_elbo_deterministic_under_fixed_seed():
    hyper = _tiny_hyper()
    model = init_model(np.random.default_rng(0), hyper, lambda_n=4.0)
    g = MolecularGraph(("C", "O", "C", "H"), ((0, 1, 1), (1, 2, 1), (0, 3, 1)))
    a = elbo(g, model, hyper, np.random.default_rng(11)).item()
    b = elbo(g, model, hyper, np.random.default_rng(11)).item()
    c = elbo(g, model, hyper, np.random.default_rng(12)).item()
    assert a == b
    assert a != c


def test_elbo_gradients_match_finite_differences():
    hyper = _tiny_hyper(partition="exact", L=3)
    model = init_model(np.random.default_rng(1), hyper, lambda_n=4.0)
    g = MolecularGraph(("C", "N", "O", "H"), ((0, 1, 2), (1, 2, 1), (0, 3, 1)))
    params = [t for _, t in model.tensors()]

    def loss_fn():
        return elbo(g, model, hyper, np.random.default_rng(21))

    assert T.finite_diff_check(loss_fn, params) < 1e-6


def test_elbo_statistically_invariant_under_relabeling():
    hyper = _tiny_hyper(partition="exact")
    model = init_model(np.random.default_rng(2), hyper, lambda_n=4.0)
    g = MolecularGraph(("C", "C", "O", "H"), ((0, 1, 1), (1, 2, 1), (1, 3, 1)))
    perm = np.array([3, 0, 2, 1])
    g2 = g.relabel(perm)
    diffs = []
    for seed in range(300):
        a = elbo(g, model, hyper, np.random.default_rng(seed)).item()
        b = elbo(g2, model, hyper, np.random.default_rng(10_000 + seed)).item()
        diffs.append(a - b)
    mean = float(np.mean(diffs))
    se = float(np.std(diffs)) / math.sqrt(len(diffs))
    assert abs(mean) < 3.0 * se + 1e-9


# ---------------------------------------------------------------------------
# one stacked pass per same-size batch


def _batch_of(n, count, seed):
    """``count`` triangle-free random molecules of exactly n atoms, so
    every mask kind accepts their bonds."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g = random_molecule(rng, n)
        adj = [set(v for v, _ in nbrs) for nbrs in g.adjacency()]
        if g.n == n and not any(adj[u] & adj[v] for u, v, _ in g.bonds):
            out.append(g)
    return GraphBatch(out)


@pytest.mark.parametrize("S", [1, 2])
@pytest.mark.parametrize("partition", ["exact", "negative_sampled"])
@pytest.mark.parametrize("mask_kind", ["none", "valence", "triangle_free"])
def test_batch_elbo_equals_graph_by_graph(mask_kind, partition, S):
    hyper = _tiny_hyper(mask_kind=mask_kind, partition=partition, S=S, L=2,
                        D=5, K=3)
    model = init_model(np.random.default_rng(3), hyper, lambda_n=6.0)
    batch = _batch_of(7, 5, seed=4)
    batch_rng, lone_rng = np.random.default_rng(5), np.random.default_rng(5)
    values = elbo(batch, model, hyper, batch_rng)
    lone = [elbo(g, model, hyper, lone_rng) for g in batch]
    assert values.shape == (len(batch),)
    # graph b sees the generator state graph-by-graph scoring reaches at b
    assert values.data.tolist() == [v.item() for v in lone]
    assert batch_rng.random() == lone_rng.random()


@pytest.mark.parametrize("partition", ["exact", "negative_sampled"])
def test_batch_gradient_is_the_sum_of_graph_gradients(partition):
    hyper = _tiny_hyper(partition=partition, S=2, L=2, D=5, K=3)
    model = init_model(np.random.default_rng(6), hyper, lambda_n=6.0)
    params = [t for _, t in model.tensors()]
    batch = _batch_of(6, 4, seed=7)
    weights = np.array([1.0, -0.5, 2.0, 0.25])  # each graph's own weight
    with T.Tape() as tape:
        values = elbo(batch, model, hyper, np.random.default_rng(8))
        loss = T.sum_all(values * weights)
    together = tape.gradients(loss, params)
    rng = np.random.default_rng(8)
    apart = [np.zeros_like(p.data) for p in params]
    for g, w in zip(batch, weights):
        with T.Tape() as tape:
            value = elbo(g, model, hyper, rng)
        for acc, grad in zip(apart, tape.gradients(value, params)):
            acc += w * grad
    for a, b in zip(together, apart):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_train_takes_one_backward_pass_per_iteration(monkeypatch):
    calls = []
    gradients = T.Tape.gradients

    def counting(tape, loss, params):
        calls.append(loss.shape)
        return gradients(tape, loss, params)

    monkeypatch.setattr(T.Tape, "gradients", counting)
    rng = np.random.default_rng(9)
    corpus = [random_molecule(rng, 5 + i % 3) for i in range(30)]
    train(corpus, _tiny_hyper(iterations=4, batch_size=8))
    assert calls == [()] * 4


def _softplus_np(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _path3_log_joint(model, z0, z1, z2):
    """Vectorized log p(path graph, both edge sequences | latents) for the
    one-symbol, one-latent-dimension model, written directly from the head
    formulas rather than through the tensor library."""
    dec = model.decoder
    wc = dec.w_count.data[0, 0]
    bc = dec.b_count.data[0]
    wco = dec.w_count_out.data[0, 0]
    bco = dec.b_count_out.item()
    we = dec.w_edge.data[0, 0]
    be = dec.b_edge.item()
    wo = dec.w_order.data[:, 0]
    bo = dec.b_order.data

    h = (_softplus_np(wc * z0 + bc) + _softplus_np(wc * z1 + bc)
         + _softplus_np(wc * z2 + bc))
    log_rate = wco * h + bco
    log_pois2 = 2.0 * log_rate - np.exp(log_rate) - math.lgamma(3)

    def elog(za, zb):
        return _softplus_np(we * (za + zb) + be)

    def worder1(za, zb):
        # log-probability of bond order 1 among the three unmasked orders
        s = za + zb
        w = _softplus_np(wo[None, :] * s[:, None] + bo[None, :])
        m = w.max(axis=1)
        return w[:, 0] - (m + np.log(np.exp(w - m[:, None]).sum(axis=1)))

    def lse(*cols):
        a = np.stack(cols, axis=1)
        m = a.max(axis=1)
        return m + np.log(np.exp(a - m[:, None]).sum(axis=1))

    l01, l02, l12 = elog(z0, z1), elog(z0, z2), elog(z1, z2)
    w01, w12 = worder1(z0, z1), worder1(z1, z2)
    s1 = l01 - lse(l01, l02, l12) + w01 + l12 - lse(l02, l12) + w12
    s2 = l12 - lse(l01, l02, l12) + w12 + l01 - lse(l01, l02) + w01
    return log_pois2 + np.logaddexp(s1, s2)


def _log_marginal_by_quadrature(model, n_pts):
    """Brute-force log p(3-node path) by Gauss-Hermite over the latents."""
    x, w = np.polynomial.hermite.hermgauss(n_pts)
    pts = math.sqrt(2.0) * x
    logw = np.log(w) - 0.5 * math.log(math.pi)
    Z0, Z1, Z2 = np.meshgrid(pts, pts, pts, indexing="ij")
    lw = (logw[:, None, None] + logw[None, :, None]
          + logw[None, None, :]).ravel()
    vals = lw + _path3_log_joint(model, Z0.ravel(), Z1.ravel(), Z2.ravel())
    m = vals.max()
    integral = float(m + np.log(np.exp(vals - m).sum()))
    return integral + node_count_logpmf(3, model.lambda_n)


def test_elbo_lower_bounds_log_marginal():
    """On a fully enumerable model (one atom symbol, one latent dimension,
    three nodes) the average ELBO must sit at or below the exact log
    marginal computed by quadrature."""
    table = ValenceTable({"X": 4})
    hyper = Hyperparams(D=1, K=2, L=3, S=1, seed=0, mask_kind="valence",
                        source_kind="uniform", partition="exact")
    model = init_model(np.random.default_rng(3), hyper, table, lambda_n=3.0)
    g = MolecularGraph(("X", "X", "X"), ((0, 1, 1), (1, 2, 1)))

    # the hand-written integrand must agree with the library's sequential
    # likelihood before we trust it as an oracle
    spot = np.random.default_rng(30).standard_normal((5, 3))
    for z0, z1, z2 in spot:
        zt = T.Tensor(np.array([[z0], [z1], [z2]]))
        lps = [graph_logprob(g, zt, [plan_edges(g, seq, "exact",
                                                mask_kind="valence",
                                                table=table)],
                             model.decoder, table=table).item()
               for seq in ([(0, 1), (1, 2)], [(1, 2), (0, 1)])]
        hand = _path3_log_joint(model, np.array([z0]), np.array([z1]),
                                np.array([z2]))[0]
        assert abs(hand - np.logaddexp(*lps)) < 1e-10

    lm_hi = _log_marginal_by_quadrature(model, 96)
    lm_lo = _log_marginal_by_quadrature(model, 64)
    assert abs(lm_hi - lm_lo) < 1e-6, "quadrature has not converged"
    draws = [elbo(g, model, hyper, np.random.default_rng(seed)).item()
             for seed in range(400)]
    mean = float(np.mean(draws))
    se = float(np.std(draws)) / math.sqrt(len(draws))
    assert mean <= lm_hi + 3.0 * se
    assert lm_hi - mean < 10.0, "bound is unreasonably loose"


def test_elbo_node_term_is_the_sampler_law(monkeypatch):
    """The ELBO charges the node count what the sampler's trace records
    for drawing it: one law, the zero-truncated Poisson."""
    hyper = Hyperparams(D=4, K=2, L=3, S=1, seed=0, partition="exact")
    model = init_model(np.random.default_rng(21), hyper, lambda_n=0.7)
    rng = np.random.default_rng(22)
    while True:
        drawn, trace = sample_graph(model.decoder, rng, lambda_n=model.lambda_n,
                                    mask_kind="none")
        if drawn.n == 3:
            break
    (kind, n, sampler_logp), = [s for s in trace.steps if s[0] == "node_count"]
    assert (kind, n) == ("node_count", 3)
    g = MolecularGraph(("C", "C", "O"), ((0, 1, 1), (1, 2, 1)))
    full = elbo(g, model, hyper, np.random.default_rng(5)).item()
    monkeypatch.setattr(training, "node_count_logpmf", lambda n, lam: 0.0)
    rest = elbo(g, model, hyper, np.random.default_rng(5)).item()
    assert abs((full - rest) - sampler_logp) <= 1e-12 * max(1.0, abs(full))


# ---------------------------------------------------------------------------
# fitting and batching


def _atoms(n):
    return MolecularGraph(("C",) * n, tuple((u, u + 1, 1) for u in range(n - 1)))


def test_fit_lambda_n():
    # the zero-truncated Poisson MLE: lambda / (1 - exp(-lambda)) = mean
    assert abs(fit_lambda_n([_atoms(2)]) - 1.5936242600400) <= 1e-12
    for sizes in ([1, 2], [1, 1, 1, 2], [2, 4], [7, 8], [1] * 99 + [2],
                  [60, 70]):
        mean = float(np.mean(sizes))
        lam = fit_lambda_n([_atoms(n) for n in sizes])
        assert lam <= mean
        assert abs(lam / -math.expm1(-lam) - mean) <= 1e-12
    assert fit_lambda_n([_atoms(1)] * 3) == training.LAMBDA_FLOOR
    with pytest.raises(ValueError):
        fit_lambda_n([])


def test_one_atom_corpus_trains_and_samples_one_atom():
    corpus = [MolecularGraph((sym,), ()) for sym in "CCNOH"]
    hyper = Hyperparams(D=4, K=2, L=3, batch_size=5, iterations=3, seed=2)
    model = train(corpus, hyper).model
    assert model.lambda_n == training.LAMBDA_FLOOR
    rng = np.random.default_rng(3)
    for _ in range(200):
        g, _ = sample_graph(model.decoder, rng, lambda_n=model.lambda_n,
                            mask_kind="valence", table=model.table)
        assert g.n == 1


def test_batches_have_uniform_node_count():
    rng = np.random.default_rng(8)
    corpus = [random_molecule(rng, int(rng.integers(3, 8))) for _ in range(57)]
    batches = make_batches(corpus, 10)
    seen = []
    for batch in batches:
        assert 1 <= len(batch) <= 10
        assert len({g.n for g in batch}) == 1
        seen.extend(batch)
    assert sorted(map(id, seen)) == sorted(map(id, corpus))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(D=0)
    with pytest.raises(ValueError):
        Hyperparams(mask_kind="nope")
    with pytest.raises(ValueError):
        Hyperparams(source_kind="nope")
    with pytest.raises(ValueError):
        Hyperparams(partition="nope")
    with pytest.raises(ValueError):
        init_model(np.random.default_rng(0), Hyperparams(D=2))  # 4 atom types


# ---------------------------------------------------------------------------
# training loop


def test_training_improves_elbo():
    rng = np.random.default_rng(9)
    corpus = [random_molecule(rng, int(rng.integers(4, 8))) for _ in range(40)]
    hyper = _tiny_hyper(iterations=120, batch_size=16, lr=0.01, L=5, seed=1)
    records = []
    ckpt = train(corpus, hyper, log_fn=records.append)
    assert ckpt.iteration == 120
    assert len(records) == 120
    first = np.mean([r["elbo"] for r in records[:10]])
    last = np.mean([r["elbo"] for r in records[-10:]])
    assert last > first
    assert all(math.isfinite(r["elbo"]) for r in records)


def test_training_is_deterministic():
    rng = np.random.default_rng(10)
    corpus = [random_molecule(rng, 5) for _ in range(12)]
    hyper = _tiny_hyper(iterations=8, batch_size=6, seed=7)
    rec_a, rec_b = [], []
    ck_a = train(corpus, hyper, log_fn=rec_a.append)
    ck_b = train(corpus, hyper, log_fn=rec_b.append)
    assert [r["elbo"] for r in rec_a] == [r["elbo"] for r in rec_b]
    for (na, ta), (nb, tb) in zip(ck_a.model.tensors(), ck_b.model.tensors()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_training_failure_names_iteration():
    rng = np.random.default_rng(11)
    corpus = [random_molecule(rng, 5) for _ in range(8)]
    hyper = _tiny_hyper(iterations=50, batch_size=8, lr=1e6, seed=0)
    with pytest.raises(FloatingPointError, match="iteration"):
        train(corpus, hyper)


def test_train_rejects_empty_corpus():
    with pytest.raises(ValueError):
        train([], _tiny_hyper(iterations=1))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    corpus = [random_molecule(rng, 5) for _ in range(10)]
    hyper = _tiny_hyper(iterations=4, batch_size=5, seed=3)
    ckpt = train(corpus, hyper)
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.iteration == ckpt.iteration
    assert loaded.model.lambda_n == ckpt.model.lambda_n
    assert loaded.hyper.as_dict() == ckpt.hyper.as_dict()
    assert loaded.model.table.limits == ckpt.model.table.limits
    for (na, ta), (nb, tb) in zip(ckpt.model.tensors(), loaded.model.tensors()):
        assert na == nb
        assert ta.data.shape == tb.data.shape
        assert np.array_equal(ta.data, tb.data)
    g = corpus[0]
    a = elbo(g, ckpt.model, hyper, np.random.default_rng(5)).item()
    b = elbo(g, loaded.model, hyper, np.random.default_rng(5)).item()
    assert a == b


def test_benchmark_fixture_checkpoint_rewrites_byte_for_byte(tmp_path):
    """The benchmark's checkpoint reads and writes back unchanged, so the
    reader and writer have not drifted from the format it was made in."""
    fixture = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "fixture", "checkpoint.bin")
    path = os.path.join(tmp_path, "checkpoint.bin")
    save_checkpoint(path, load_checkpoint(fixture))
    with open(fixture, "rb") as a, open(path, "rb") as b:
        assert a.read() == b.read()


def test_checkpoint_rejects_foreign_files(tmp_path):
    p = os.path.join(tmp_path, "junk.bin")
    with open(p, "wb") as fh:
        fh.write(b"\x00\x01binary nonsense\n more bytes")
    with pytest.raises(ValueError):
        load_checkpoint(p)
    p2 = os.path.join(tmp_path, "wrong.json")
    with open(p2, "w") as fh:
        fh.write('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_checkpoint(p2)


def _damaged_checkpoint(tmp_path, damage):
    """Save a tiny checkpoint, let ``damage`` edit its JSON header in place."""
    hyper = _tiny_hyper()
    model = init_model(np.random.default_rng(14), hyper, lambda_n=4.0)
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, Checkpoint(model, hyper, 0))
    with open(path, "rb") as fh:
        header_line, _, blob = fh.read().partition(b"\n")
    header = json.loads(header_line)
    damage(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + blob)
    return path


def _drop_tensor(header, name):
    header["tensors"] = [e for e in header["tensors"] if e["name"] != name]


def test_checkpoint_rejects_unknown_hyperparameter(tmp_path):
    path = _damaged_checkpoint(
        tmp_path, lambda h: h["hyper"].update(bogus=1))
    with pytest.raises(ValueError, match="unknown hyperparameter 'bogus'") as exc:
        load_checkpoint(path)
    assert path in str(exc.value)


def test_checkpoint_rejects_missing_tensor(tmp_path):
    path = _damaged_checkpoint(
        tmp_path, lambda h: _drop_tensor(h, "enc.hop1"))
    with pytest.raises(ValueError, match="missing tensor 'enc.hop1'") as exc:
        load_checkpoint(path)
    assert path in str(exc.value)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    # a wider latent space than the stored tensors were trained with
    path = _damaged_checkpoint(tmp_path, lambda h: h["hyper"].update(D=5))
    with pytest.raises(ValueError, match=r"tensor 'enc.hop1' has shape \[4, 4\]"
                       r", hyper and alphabet imply \[5, 5\]") as exc:
        load_checkpoint(path)
    assert path in str(exc.value)


def test_checkpoint_detects_truncation(tmp_path):
    hyper = _tiny_hyper()
    model = init_model(np.random.default_rng(13), hyper, lambda_n=4.0)
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, Checkpoint(model, hyper, 0))
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)
