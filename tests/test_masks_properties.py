"""Property tests: MaskState's incremental bookkeeping against brute force.

Random commit/reject sequences drive each built-in mask kind; after every
step the O(1)/O(edges) counters must agree with explicit enumeration, and
every candidate pair must allow a single bond.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from molvae import masks as K

SETTINGS = settings(max_examples=100)


def _brute_masked_free(state, rule):
    """Free pairs whose endpoints already share a generated neighbour."""
    count = 0
    for u, v in itertools.combinations(range(state.n), 2):
        if (u, v) in state.generated or (u, v) in state.rejected:
            continue
        if rule.adj[u] & rule.adj[v]:
            count += 1
    return count


def _check_invariants(state, kind, data):
    pairs = list(itertools.combinations(range(state.n), 2))
    excludes = [None] + ([data.draw(st.sampled_from(pairs))] if pairs else [])
    for ex in excludes:
        cands = state.candidates(exclude=ex)
        assert state.candidate_count(exclude=ex) == len(cands)
        want = data.draw(st.integers(0, len(cands) + 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        drawn = state.sample_candidates(rng, want, exclude=ex)
        assert len(drawn) == min(want, len(cands))
        assert len(set(drawn)) == len(drawn)
        assert set(drawn) <= set(cands)
    if kind == "triangle_free":
        rule = state.rules[0]
        assert rule.masked_free == _brute_masked_free(state, rule)


@SETTINGS
@given(kind=st.sampled_from(K.MASK_KINDS),
       atoms=st.lists(st.sampled_from("CHNO"), min_size=2, max_size=9),
       data=st.data())
def test_mask_counters_match_enumeration(kind, atoms, data):
    state = K.make_state(kind, atom_types=atoms)
    _check_invariants(state, kind, data)
    for _ in range(data.draw(st.integers(0, 25))):
        cands = state.candidates()
        open_pairs = [p for p in itertools.combinations(range(state.n), 2)
                      if p not in state.generated]
        if not open_pairs:
            break
        if cands and data.draw(st.booleans()):
            pair = data.draw(st.sampled_from(cands))
            state.commit(pair, data.draw(st.sampled_from(
                state.allowed_orders(pair))))
        else:
            # any pair not yet generated may be rejected, masked or not
            state.reject(data.draw(st.sampled_from(open_pairs)))
        _check_invariants(state, kind, data)


@SETTINGS
@given(kind=st.sampled_from(K.MASK_KINDS),
       atoms=st.lists(st.sampled_from("CHNO"), min_size=2, max_size=9),
       data=st.data())
def test_every_candidate_admits_a_single_bond(kind, atoms, data):
    """Under the built-in masks a pair that passes the edge mask always
    allows a single bond, so the sampler's reject path is unreachable."""
    state = K.make_state(kind, atom_types=atoms)
    steps = data.draw(st.integers(0, 25))
    for step in range(steps + 1):
        cands = state.candidates()
        for pair in cands:
            assert 1 in state.allowed_orders(pair)
        if step == steps or not cands:
            break
        pair = data.draw(st.sampled_from(cands))
        state.commit(pair, data.draw(st.sampled_from(state.allowed_orders(pair))))
