"""Mask soundness/completeness by enumeration, plus counting and sampling."""

import itertools

import numpy as np
import pytest

from molvae import masks as K
from molvae.molgraph import MolecularGraph, ValenceTable, valence_ok


def _commit_count_invariant(state, exclude=None):
    assert state.candidate_count(exclude=exclude) == len(state.candidates(exclude=exclude))


def test_none_kind_bookkeeping():
    s = K.make_state("none", n=4)
    assert s.candidate_count() == 6
    s.commit((0, 1), 3)
    assert not s.edge_mask((1, 0))
    assert s.candidate_count() == 5
    assert s.candidate_count(exclude=(0, 2)) == 4
    assert s.candidate_count(exclude=(0, 1)) == 5  # generated: no candidate
    _commit_count_invariant(s)
    with pytest.raises(ValueError):
        s.commit((0, 1), 1)  # already generated
    with pytest.raises(ValueError):
        s.reject((2, 3))  # no mask rejects a pair
    with pytest.raises(ValueError):
        s.edge_mask((1, 1))


def test_valence_masks_follow_remaining():
    s = K.make_state("valence", atom_types=("C", "O", "H"))
    assert s.edge_mask((0, 1)) and s.edge_mask((0, 2))
    assert s.allowed_orders((0, 1)) == [1, 2]  # O caps at 2
    assert s.allowed_orders((0, 2)) == [1]     # H caps at 1
    s.commit((0, 1), 2)
    assert not s.edge_mask((1, 2))  # O exhausted
    assert s.edge_mask((0, 2))
    s.commit((0, 2), 1)
    assert s.candidates() == []
    assert s.candidate_count() == 0


def test_valence_commit_of_masked_order_raises():
    s = K.make_state("valence", atom_types=("O", "O"))
    with pytest.raises(ValueError):
        s.commit((0, 1), 3)
    s.commit((0, 1), 2)


def test_triangle_free_masks():
    s = K.make_state("triangle_free", n=4)
    s.commit((0, 1), 1)
    s.commit((1, 2), 1)
    assert not s.edge_mask((0, 2))  # would close 0-1-2
    assert s.edge_mask((0, 3))
    assert s.allowed_orders((0, 2)) == [1, 2, 3]  # orders unconstrained
    s.commit((2, 3), 1)
    assert not s.edge_mask((1, 3))
    _commit_count_invariant(s)
    with pytest.raises(ValueError):
        s.commit((0, 2), 1)


def _random_decode(state, rng, orders=(1, 2, 3)):
    """Commit random unmasked pairs/orders until no candidate remains."""
    edges = []
    while True:
        cands = state.candidates()
        if not cands:
            return edges
        pair = cands[rng.integers(len(cands))]
        allowed = state.allowed_orders(pair)
        order = allowed[rng.integers(len(allowed))]
        state.commit(pair, order)
        edges.append((*pair, order))


def test_valence_soundness_exhaustive_random():
    # every mask-permitted decode yields a valence-respecting molecule
    rng = np.random.default_rng(0)
    for _ in range(150):
        n = int(rng.integers(2, 6))
        symbols = ("C", "H", "N", "O")
        atoms = tuple(symbols[i] for i in rng.integers(0, 4, size=n))
        state = K.make_state("valence", atom_types=atoms)
        edges = _random_decode(state, rng)
        g = MolecularGraph(atoms, tuple(edges))
        assert valence_ok(g)


def test_triangle_free_soundness_random():
    rng = np.random.default_rng(1)
    for _ in range(150):
        n = int(rng.integers(3, 6))
        state = K.make_state("triangle_free", n=n)
        edges = _random_decode(state, rng)
        adj = [set() for _ in range(n)]
        for u, v, _ in edges:
            assert not (adj[u] & adj[v])
            adj[u].add(v)
            adj[v].add(u)


def _has_triangle(n, pairs):
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return any(adj[u] & adj[v] for u, v in pairs)


def test_triangle_free_completeness_enumeration():
    # every triangle-free graph on <= 5 nodes is reachable: since subgraphs
    # of triangle-free graphs are triangle-free, any commit order must work
    for n in range(2, 6):
        all_pairs = list(itertools.combinations(range(n), 2))
        for bits in itertools.product([0, 1], repeat=len(all_pairs)):
            chosen = [p for p, b in zip(all_pairs, bits) if b]
            if _has_triangle(n, chosen):
                continue
            state = K.make_state("triangle_free", n=n)
            for pair in chosen:
                assert state.edge_mask(pair), (n, chosen, pair)
                state.commit(pair, 1)


def test_valence_completeness_enumeration():
    # every valence-respecting assignment on <= 4 nodes of C/O is reachable
    symbols = ("C", "O")
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for atoms in itertools.product(symbols, repeat=n):
            for orders in itertools.product([0, 1, 2], repeat=len(pairs)):
                chosen = [(u, v, o) for (u, v), o in zip(pairs, orders) if o]
                if not valence_ok(MolecularGraph(atoms, tuple(chosen))):
                    continue
                state = K.make_state("valence", atom_types=atoms)
                for u, v, o in chosen:
                    assert state.edge_mask((u, v))
                    assert state.weight_mask((u, v), o)
                    state.commit((u, v), o)


def test_candidate_count_matches_enumeration_under_churn():
    rng = np.random.default_rng(2)
    for kind in ("none", "valence", "triangle_free"):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            atoms = tuple(("C", "N", "O", "C", "C", "N")[:n])
            state = K.make_state(kind, atom_types=atoms)
            for _ in range(int(rng.integers(0, 6))):
                cands = state.candidates()
                if not cands:
                    break
                pair = cands[rng.integers(len(cands))]
                allowed = state.allowed_orders(pair)
                state.commit(pair, allowed[rng.integers(len(allowed))])
            _commit_count_invariant(state)
            cands = state.candidates()
            ex = cands[0] if cands else None
            _commit_count_invariant(state, exclude=ex)


def test_sample_candidates_uniform_and_distinct():
    rng = np.random.default_rng(3)
    state = K.make_state("none", n=30)
    state.commit((0, 1), 1)
    draws = state.sample_candidates(rng, 40, exclude=(2, 3))
    assert len(draws) == 40
    assert len(set(draws)) == 40
    assert (0, 1) not in draws and (2, 3) not in draws

    # frequencies over many small draws stay near uniform
    counts = {}
    trials = 4000
    for _ in range(trials):
        for pair in state.sample_candidates(rng, 3, exclude=(2, 3)):
            counts[pair] = counts.get(pair, 0) + 1
    pool = state.candidate_count(exclude=(2, 3))
    expected = trials * 3 / pool
    freqs = np.array([counts.get(p, 0) for p in state.candidates(exclude=(2, 3))])
    chi2 = np.sum((freqs - expected) ** 2 / expected)
    # chi-square with pool-1 dof: mean ~432, std ~29; 600 is a >5 sigma bound
    assert chi2 < 600, chi2


def test_sample_candidates_exhausts_small_pools():
    rng = np.random.default_rng(4)
    state = K.make_state("none", n=3)
    assert sorted(state.sample_candidates(rng, 10)) == [(0, 1), (0, 2), (1, 2)]
    state.commit((0, 1), 1)
    assert state.sample_candidates(rng, 10, exclude=(0, 2)) == [(1, 2)]


def test_conjunction_of_rules():
    state = K.MaskState(3, [K.ValenceRule(("C", "H", "H"), ValenceTable()),
                           K.TriangleFreeRule(3)])
    state.commit((0, 1), 1)
    state.commit((0, 2), 1)
    # (1,2) blocked by both rules: H exhausted and triangle closure
    assert not state.edge_mask((1, 2))
    assert state.candidate_count() == 0
    assert state.candidates() == []
    # a pair one rule allows and the other forbids is counted by neither
    state = K.MaskState(4, [K.ValenceRule(("C",) * 4, ValenceTable()),
                           K.TriangleFreeRule(4)])
    state.commit((0, 1), 1)
    state.commit((1, 2), 1)
    assert (0, 2) not in state.candidates()
    for ex in (None, (0, 3), (0, 2)):
        _commit_count_invariant(state, exclude=ex)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        K.make_state("ring", n=3)
