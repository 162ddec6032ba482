"""Encoder: hand-computed hops, exact permutation invariance, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molvae import encoder as E
from molvae import tensor as T
from molvae.molgraph import DEFAULT_TABLE, GraphBatch, MolecularGraph, ValenceTable


def _params(rng, D=5, K=3, n_types=4):
    return E.init_encoder(rng, D=D, K=K, n_types=n_types)


def test_features_one_hot_padded():
    params = _params(np.random.default_rng(0), D=6)
    g = MolecularGraph(("C", "O", "H"))
    f = E.features(g, params)
    assert f.shape == (3, 6)
    # table order C,H,N,O fixes the slots
    assert f[0].tolist() == [1, 0, 0, 0, 0, 0]
    assert f[1].tolist() == [0, 0, 0, 1, 0, 0]
    assert f[2].tolist() == [0, 1, 0, 0, 0, 0]


def test_embed_hand_computed_path():
    # 3-node path C-C-C with orders 2 and 3, identity hop matrices:
    # c1_u = e_C;  c2_u = e_C * sum_v y_uv e_C, so slot 0 holds the
    # weighted degree and all other slots are zero
    D, K = 4, 2
    params = _params(np.random.default_rng(1), D=D, K=K)
    for k in range(K):
        params.hops[k] = T.Tensor(np.eye(D))
    g = MolecularGraph(("C", "C", "C"), ((0, 1, 2), (1, 2, 3)))
    code = E.embed(g, params).data
    assert code.shape == (3, K * D)
    expected_c1 = np.zeros((3, D))
    expected_c1[:, 0] = 1.0
    expected_c2 = np.zeros((3, D))
    expected_c2[:, 0] = [2.0, 5.0, 3.0]  # weighted degrees
    assert np.array_equal(code[:, :D], expected_c1)
    assert np.array_equal(code[:, D:], expected_c2)


def test_isolated_node_aggregates_to_zero():
    params = _params(np.random.default_rng(2), K=4)
    g = MolecularGraph(("C", "O", "N"), ((0, 1, 1),))
    code = E.embed(g, params).data
    # node 2 has no neighbors: every hop beyond the first is zero
    assert np.array_equal(code[2, params.D:], np.zeros((params.K - 1) * params.D))
    assert not np.array_equal(code[2, :params.D], np.zeros(params.D))


def test_posterior_shapes_and_positive_sigma():
    rng = np.random.default_rng(3)
    params = _params(rng)
    g = MolecularGraph(("C", "O", "N", "C"), ((0, 1, 1), (1, 2, 2), (2, 3, 1)))
    post = E.posterior(g, params)
    assert post.mu.shape == (4, 5) and post.sigma.shape == (4, 5)
    assert np.all(post.sigma.data > 0)


def test_zero_weight_head_collapses_to_log2():
    rng = np.random.default_rng(4)
    params = _params(rng)
    for t in (params.w_hidden, params.b_hidden, params.w_mu, params.b_mu,
              params.w_sigma, params.b_sigma):
        t.data[...] = 0.0
    g = MolecularGraph(("C", "O"), ((0, 1, 1),))
    post = E.posterior(g, params)
    assert np.allclose(post.mu.data, np.log(2.0))
    assert np.allclose(post.sigma.data, np.log(2.0))


def test_posterior_exactly_permutation_invariant():
    rng = np.random.default_rng(5)
    from molvae.molgraph import random_molecule
    params = _params(rng, D=5, K=5)
    for _ in range(40):
        g = random_molecule(rng, int(rng.integers(2, 13)))
        post = E.posterior(g, params)
        stacked = np.hstack([post.mu.data, post.sigma.data])
        perm = list(rng.permutation(g.n))
        post_p = E.posterior(g.relabel(perm), params)
        stacked_p = np.hstack([post_p.mu.data, post_p.sigma.data])
        # rows permuted bit-for-bit: node u lands at row perm[u]
        assert np.array_equal(stacked_p[perm], stacked)


def test_embed_deterministic_replay():
    rng = np.random.default_rng(6)
    params = _params(rng)
    g = MolecularGraph(("C", "N", "O"), ((0, 1, 3), (0, 2, 1)))
    a = E.embed(g, params).data
    b = E.embed(g, params).data
    assert np.array_equal(a, b)


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = _params(rng, D=4, K=2)
    g = MolecularGraph(("C", "O", "N"), ((0, 1, 2), (1, 2, 1)))
    tensors = [t for _, t in params.tensors()]

    def loss():
        post = E.posterior(g, params)
        return T.sum_all(T.square(post.mu)) + T.sum_all(T.square(post.sigma))

    err = T.finite_diff_check(loss, tensors)
    assert err < 1e-6, err


def test_sample_latent_moments():
    rng = np.random.default_rng(8)
    params = _params(rng)
    g = MolecularGraph(("C", "C"), ((0, 1, 1),))
    post = E.posterior(g, params)
    draws = np.stack([E.sample_latent(post.mu, post.sigma, rng).data for _ in range(100_000)])
    mean = draws.mean(axis=0)
    # sample mean within 4 standard errors of mu
    se = post.sigma.data / np.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - post.mu.data) < 4 * se + 1e-12)
    std = draws.std(axis=0)
    assert np.allclose(std, post.sigma.data, rtol=0.05)


def test_custom_alphabet_single_symbol():
    # D can drop to 1 when the alphabet is a single symbol
    table = ValenceTable({"C": 4})
    rng = np.random.default_rng(9)
    params = E.init_encoder(rng, D=1, K=2, n_types=1)
    g = MolecularGraph(("C", "C", "C"), ((0, 1, 1), (1, 2, 1)))
    post = E.posterior(g, params, table)
    assert post.mu.shape == (3, 1)


def test_alphabet_size_mismatch_raises():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        E.init_encoder(rng, D=3, K=2, n_types=4)
    params = _params(rng)
    g = MolecularGraph(("C",))
    with pytest.raises(ValueError):
        E.posterior(g, params, ValenceTable({"C": 4}))


def _aggregate_one_graph(cd, adj, g_out):
    """The per-graph aggregation and its backward pass: each node's
    bond-weighted neighbor rows sorted lexicographically, then summed;
    gradients scattered node by node."""
    out = np.zeros_like(cd)
    for u, nbrs in enumerate(adj):
        if nbrs:
            rows = np.stack([y * cd[v] for v, y in nbrs])
            out[u] = rows[np.lexsort(rows[:, ::-1].T)].sum(axis=0)
    grad = np.zeros_like(cd)
    for u, nbrs in enumerate(adj):
        for v, y in nbrs:
            grad[v] += y * g_out[u]
    return out, grad


@st.composite
def _batches(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        bonds = tuple((u, v, draw(st.integers(1, 3))) for u, v in chosen)
        graphs.append(MolecularGraph(("C",) * n, bonds))
    # few distinct values, so neighbor rows often tie in the sort
    values = draw(st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.1, 0.3, 2.0]),
                           min_size=len(graphs) * n * 3,
                           max_size=len(graphs) * n * 3))
    return GraphBatch(graphs), np.array(values).reshape(len(graphs), n, 3)


@settings(max_examples=200, deadline=None)
@given(_batches())
def test_block_diagonal_aggregate_equals_per_graph_op(case):
    batch, cd = case
    g_out = cd[:, ::-1] * 0.7 + 0.1
    c = T.Tensor(cd)
    with T.Tape() as tape:
        out = E._aggregate(c, E.Neighbors(batch))
        loss = T.sum_all(T.mul(out, T.Tensor(g_out)))
    (grad,) = tape.gradients(loss, [c])  # the aggregate's backward of g_out
    for b, g in enumerate(batch):
        want, want_grad = _aggregate_one_graph(cd[b], g.adjacency(), g_out[b])
        assert np.array_equal(out.data[b], want)
        assert np.array_equal(grad[b], want_grad)
