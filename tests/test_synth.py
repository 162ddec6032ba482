"""Synthetic generators against hand likelihoods and rank-metric oracles."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from molvae.masks import make_state
from molvae.synth import (BASample, KroneckerSpec, as_molecule, gen_ba,
                          gen_kronecker, gen_triangle_free,
                          kronecker_probabilities, loglik_ba,
                          loglik_kronecker, precision_top_bottom, spearman)

THETA1 = ((0.9, 0.6), (0.3, 0.2))


# ---------------------------------------------------------------------------
# Kronecker


def test_kronecker_uniform_initiator_probability():
    spec = KroneckerSpec(((0.6, 0.6), (0.6, 0.6)), 2)
    p = kronecker_probabilities(spec)
    off = p[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.36)


def test_kronecker_all_ones_gives_complete_graph():
    spec = KroneckerSpec(((1.0, 1.0), (1.0, 1.0)), 2)
    g = gen_kronecker(spec, np.random.default_rng(0))
    assert len(g.bonds) == 6


def test_kronecker_probabilities_match_tensor_power():
    spec = KroneckerSpec(THETA1, 3)
    theta = np.array(THETA1)
    raw = np.kron(np.kron(theta, theta), theta)
    assert np.allclose(kronecker_probabilities(spec), 0.5 * (raw + raw.T))


def test_kronecker_edge_frequencies_match_probabilities():
    spec = KroneckerSpec(THETA1, 2)
    p = kronecker_probabilities(spec)
    rng = np.random.default_rng(1)
    trials = 10_000
    hits = np.zeros((4, 4))
    for _ in range(trials):
        g = gen_kronecker(spec, rng)
        for u, v, _ in g.bonds:
            hits[u, v] += 1
    for u in range(4):
        for v in range(u + 1, 4):
            expect = p[u, v]
            band = 3.0 * math.sqrt(expect * (1 - expect) / trials) + 1e-9
            assert abs(hits[u, v] / trials - expect) < band


def test_kronecker_loglik_hand_summation():
    spec = KroneckerSpec(THETA1, 2)
    p = kronecker_probabilities(spec)
    rng = np.random.default_rng(2)
    for _ in range(25):
        g = gen_kronecker(spec, rng)
        adj = {(u, v) for u, v, _ in g.bonds}
        hand = 0.0
        for u in range(4):
            for v in range(u + 1, 4):
                hand += math.log(p[u, v] if (u, v) in adj else 1.0 - p[u, v])
        assert loglik_kronecker(g, spec) == hand


def test_kronecker_loglik_edge_contribution():
    spec = KroneckerSpec(((0.6, 0.6), (0.6, 0.6)), 2)
    with_edge = as_molecule(4, [(0, 1)])
    without = as_molecule(4, [])
    delta = loglik_kronecker(with_edge, spec) - loglik_kronecker(without, spec)
    assert abs(delta - (math.log(0.36) - math.log(0.64))) < 1e-12


def test_kronecker_loglik_degenerate_probabilities():
    zero = KroneckerSpec(((0.0, 0.0), (0.0, 0.0)), 1)
    assert loglik_kronecker(as_molecule(2, []), zero) == 0.0
    assert loglik_kronecker(as_molecule(2, [(0, 1)]), zero) == float("-inf")
    ones = KroneckerSpec(((1.0, 1.0), (1.0, 1.0)), 1)
    assert loglik_kronecker(as_molecule(2, []), ones) == float("-inf")


def test_kronecker_validation():
    with pytest.raises(ValueError):
        KroneckerSpec(((0.5, 1.2), (0.3, 0.2)), 2)
    with pytest.raises(ValueError):
        KroneckerSpec(THETA1, 0)
    with pytest.raises(ValueError):
        loglik_kronecker(as_molecule(3, []), KroneckerSpec(THETA1, 2))


# ---------------------------------------------------------------------------
# preferential attachment


def test_ba_m1_is_a_tree():
    rng = np.random.default_rng(3)
    for n in (2, 5, 30):
        sample = gen_ba(n, 1, rng)
        assert len(sample.graph.bonds) == n - 1
        assert len(sample.attachments) == n - 1


def test_ba_three_node_outcome_probabilities():
    rng = np.random.default_rng(4)
    trials = 10_000
    star = 0
    for _ in range(trials):
        sample = gen_ba(3, 1, rng)
        pairs = {(u, v) for u, v, _ in sample.graph.bonds}
        if pairs == {(0, 1), (0, 2)}:
            star += 1
        else:
            assert pairs == {(0, 1), (1, 2)}
    p = 2.0 / 3.0
    assert abs(star / trials - p) < 3.0 * math.sqrt(p * (1 - p) / trials)


def test_ba_three_node_likelihoods():
    star = BASample(as_molecule(3, [(0, 1), (0, 2)]), ((1, 0), (2, 0)), 1)
    path = BASample(as_molecule(3, [(0, 1), (1, 2)]), ((1, 0), (2, 1)), 1)
    assert abs(loglik_ba(star) - math.log(2.0 / 3.0)) < 1e-12
    assert abs(loglik_ba(path) - math.log(1.0 / 3.0)) < 1e-12
    two = BASample(as_molecule(2, [(0, 1)]), ((1, 0),), 1)
    assert loglik_ba(two) == 0.0


def test_ba_four_node_outcomes_sum_to_one():
    total = 0.0
    for t2 in (0, 1):
        for t3 in (0, 1, 2):
            attachments = ((1, 0), (2, t2), (3, t3))
            pairs = [(min(a, b), max(a, b)) for a, b in attachments]
            sample = BASample(as_molecule(4, pairs), attachments, 1)
            total += math.exp(loglik_ba(sample))
    assert abs(total - 1.0) < 1e-12


def test_ba_degree_distribution_is_heavier_tailed_than_er():
    rng = np.random.default_rng(5)
    sample = gen_ba(400, 1, rng)
    ba_deg = np.array(sample.graph.degrees())
    n_edges = len(sample.graph.bonds)
    all_pairs = [(u, v) for u in range(400) for v in range(u + 1, 400)]
    idx = rng.choice(len(all_pairs), size=n_edges, replace=False)
    er_deg = np.zeros(400)
    for i in idx:
        u, v = all_pairs[i]
        er_deg[u] += 1
        er_deg[v] += 1
    stat = ks_2samp(ba_deg, er_deg).statistic
    assert stat > 0.15
    assert ba_deg.max() > er_deg.max()


def test_ba_loglik_requires_arrival_order():
    with pytest.raises(ValueError):
        loglik_ba(as_molecule(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError):
        gen_ba(3, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gen_ba(2, 2, np.random.default_rng(0))


def test_ba_loglik_matches_generation_frequency():
    # likelihood of a fixed 4-node outcome vs its empirical frequency
    rng = np.random.default_rng(6)
    trials = 20_000
    target = ((1, 0), (2, 0), (3, 0))
    hits = 0
    for _ in range(trials):
        if gen_ba(4, 1, rng).attachments == target:
            hits += 1
    pairs = [(0, 1), (0, 2), (0, 3)]
    p = math.exp(loglik_ba(BASample(as_molecule(4, pairs), target, 1)))
    assert abs(hits / trials - p) < 3.0 * math.sqrt(p * (1 - p) / trials)


# ---------------------------------------------------------------------------
# triangle-free corpora


def _has_triangle(g):
    adj = {u: set() for u in range(g.n)}
    for u, v, _ in g.bonds:
        adj[u].add(v)
        adj[v].add(u)
    return any(adj[u] & adj[v] for u, v, _ in g.bonds)


def test_triangle_free_generator():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = gen_triangle_free(rng, int(rng.integers(3, 25)))
        assert not _has_triangle(g)
        assert set(g.atom_types) == {"C"}


def test_triangle_free_maximal_augmentation():
    rng = np.random.default_rng(8)
    g = gen_triangle_free(rng, 12, p=0.2, maximal=True)
    assert not _has_triangle(g)
    adj = {u: set() for u in range(g.n)}
    for u, v, _ in g.bonds:
        adj[u].add(v)
        adj[v].add(u)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v not in adj[u]:
                assert adj[u] & adj[v], "a free pair could still be added"


def _adjacency_set_triangle_free(rng, n, p=0.3, maximal=False):
    """The generator with its own adjacency sets, as written before it
    took the triangle rule from the mask."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(all_pairs)) < p
    chosen = [pr for pr, k in zip(all_pairs, keep) if k]
    rest = [pr for pr, k in zip(all_pairs, keep) if not k]
    adj = {u: set() for u in range(n)}
    edges = []

    def try_add(u, v):
        if not adj[u] & adj[v]:
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v))

    for i in rng.permutation(len(chosen)):
        try_add(*chosen[i])
    if maximal:
        for i in rng.permutation(len(rest)):
            try_add(*rest[i])
    return as_molecule(n, edges)


@pytest.mark.parametrize("maximal", [False, True])
def test_triangle_free_matches_adjacency_set_reference(maximal):
    for seed in range(200):
        n = 1 + seed % 24
        g = gen_triangle_free(np.random.default_rng(seed), n, maximal=maximal)
        ref = _adjacency_set_triangle_free(np.random.default_rng(seed), n,
                                           maximal=maximal)
        assert g.bonds == ref.bonds, seed
        if maximal:
            state = make_state("triangle_free", n=n)
            for u, v, _ in g.bonds:
                state.commit((u, v), 1)
            assert not [pr for pr in ((u, v) for u in range(n)
                                      for v in range(u + 1, n))
                        if state.edge_mask(pr)], seed


def test_generators_reproducible_under_seed():
    a = gen_triangle_free(np.random.default_rng(9), 15)
    b = gen_triangle_free(np.random.default_rng(9), 15)
    assert a.bonds == b.bonds
    sa = gen_ba(20, 1, np.random.default_rng(10))
    sb = gen_ba(20, 1, np.random.default_rng(10))
    assert sa.attachments == sb.attachments
    ka = gen_kronecker(KroneckerSpec(THETA1, 3), np.random.default_rng(11))
    kb = gen_kronecker(KroneckerSpec(THETA1, 3), np.random.default_rng(11))
    assert ka.bonds == kb.bonds


# ---------------------------------------------------------------------------
# rank agreement


def test_spearman_endpoints():
    ids = list(range(30))
    assert spearman(ids, ids) == 1.0
    assert abs(spearman(ids, ids[::-1]) + 1.0) < 1e-12
    assert spearman(ids, ids[::-1]) == spearman(ids[::-1], ids)


def test_spearman_matches_classic_formula():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        ids = [f"g{i}" for i in range(n)]
        a = [ids[i] for i in rng.permutation(n)]
        b = [ids[i] for i in rng.permutation(n)]
        pa = {x: r for r, x in enumerate(a)}
        pb = {x: r for r, x in enumerate(b)}
        d2 = sum((pa[x] - pb[x]) ** 2 for x in ids)
        classic = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        assert abs(spearman(a, b) - classic) < 1e-12


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1], [1])
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 3])
    with pytest.raises(ValueError):
        spearman([1, 1, 2], [1, 2, 1])


def test_precision_endpoints():
    ids = list(range(40))
    assert precision_top_bottom(ids, ids) == (1.0, 1.0)
    assert precision_top_bottom(ids, ids[::-1]) == (0.0, 0.0)


def test_precision_hand_built_lists():
    true = list(range(20))  # top slice {0,1}, bottom slice {18,19}
    model = [0, 19] + list(range(2, 18)) + [1, 18]
    # model top half: {0,19,2..9}; contains 0 but not 1 -> 0.5 up
    # model bottom half: {10..17,1,18}; contains 18 but not 19 -> 0.5 down
    up, down = precision_top_bottom(true, model)
    assert up == 0.5
    assert down == 0.5


def test_precision_validation():
    with pytest.raises(ValueError):
        precision_top_bottom(list(range(5)), list(range(5)))
    with pytest.raises(ValueError):
        precision_top_bottom(list(range(10)), list(range(1, 11)))
