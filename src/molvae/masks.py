"""Validity masks for the sequential graph decoder.

A MaskState tracks one decode in progress: which pairs have been
generated, plus the structural rule of its kind.  The built-in kinds are
``none`` (bookkeeping only), ``valence`` (edges need spare valence at both
endpoints, bond orders must fit the smaller remaining valence), and
``triangle_free`` (no edge may close a triangle).  Under each, a pair that
passes the edge mask admits a single bond.

A candidate count enumerates no pairs: O(1) under ``none``, O(generated
pairs) under ``valence``, O(sum of squared degrees) under ``triangle_free``.
Drawing L negatives from a pool above 3L takes O(L n^2 / pool) random pairs
in expectation (O(L) while the pool is a fixed share of all pairs), at most
30 L + 100, then enumerates any shortfall; a smaller pool is enumerated.
"""

from __future__ import annotations

import itertools

import numpy as np

from .molgraph import BOND_ORDERS, DEFAULT_TABLE, ValenceTable

MASK_KINDS = ("none", "valence", "triangle_free")


def _norm_pair(pair):
    u, v = int(pair[0]), int(pair[1])
    if u == v:
        raise ValueError(f"self pair ({u},{u})")
    return (u, v) if u < v else (v, u)


class ValenceRule:
    """Bond orders must keep every node within its maximum valence."""

    def __init__(self, atom_types, table: ValenceTable):
        self.remaining = np.array([table.max_valence(s) for s in atom_types])

    def edge_ok(self, state, pair) -> bool:
        u, v = pair
        return self.remaining[u] >= 1 and self.remaining[v] >= 1

    def max_order(self, state, pair) -> int:
        u, v = pair
        return min(self.remaining[u], self.remaining[v])

    def on_commit(self, state, pair, order) -> None:
        u, v = pair
        self.remaining[u] -= order
        self.remaining[v] -= order

    def count_allowed(self, state) -> int:
        open_nodes = self.remaining >= 1
        a = int(open_nodes.sum())
        count = a * (a - 1) // 2
        for (u, v) in state.generated:
            if open_nodes[u] and open_nodes[v]:
                count -= 1
        return count


class TriangleFreeRule:
    """An edge is allowed only if its endpoints share no generated neighbor."""

    def __init__(self, n: int):
        self.adj = [set() for _ in range(n)]

    def edge_ok(self, state, pair) -> bool:
        u, v = pair
        return not (self.adj[u] & self.adj[v])

    def max_order(self, state, pair) -> int:
        return BOND_ORDERS[-1]

    def on_commit(self, state, pair, order) -> None:
        u, v = pair
        self.adj[u].add(v)
        self.adj[v].add(u)

    def count_allowed(self, state) -> int:
        # the pairs two neighbours of one node form; a generated pair among
        # them would close a triangle, so none is generated
        shared = set().union(*(itertools.combinations(sorted(nbrs), 2)
                               for nbrs in self.adj if len(nbrs) > 1))
        return state.free_pair_count() - len(shared)


class MaskState:
    """Pair/order masks for one decode: the generated pairs and the rules
    of its kind, composed by conjunction (``make_state`` builds at most one)."""

    def __init__(self, n: int, rules=()):
        if n < 1:
            raise ValueError("mask state needs at least one node")
        self.n = n
        self.rules = list(rules)
        self.generated: dict[tuple[int, int], int] = {}

    # -- queries ------------------------------------------------------------

    def free_pair_count(self) -> int:
        return self.n * (self.n - 1) // 2 - len(self.generated)

    def edge_mask(self, pair) -> bool:
        """True when the pair may be proposed as the next edge."""
        pair = _norm_pair(pair)
        if pair in self.generated:
            return False
        return all(rule.edge_ok(self, pair) for rule in self.rules)

    def allowed_orders(self, pair) -> list[int]:
        """The bond orders up to the smallest of the rules' caps."""
        pair = _norm_pair(pair)
        cap = min((rule.max_order(self, pair) for rule in self.rules),
                  default=BOND_ORDERS[-1])
        return [m for m in BOND_ORDERS if m <= cap]

    def candidates(self, exclude=None) -> list[tuple[int, int]]:
        """All currently unmasked, non-generated pairs."""
        ex = _norm_pair(exclude) if exclude is not None else None
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (u, v) != ex and self.edge_mask((u, v)):
                    out.append((u, v))
        return out

    def candidate_count(self, exclude=None) -> int:
        """``len(candidates(exclude))``, enumerating no pairs unless the
        state holds several rules."""
        if len(self.rules) > 1:
            count = len(self.candidates())
        elif self.rules:
            count = self.rules[0].count_allowed(self)
        else:
            count = self.free_pair_count()
        # a pair leaves the pool exactly when it is a candidate
        if exclude is not None and self.edge_mask(exclude):
            count -= 1
        return count

    def sample_candidates(self, rng: np.random.Generator, count: int,
                          exclude=None) -> tuple[int, list[tuple[int, int]]]:
        """The pool size, ``candidate_count(exclude)``, and distinct uniform
        draws from that pool, ``count`` of them or the whole pool if smaller.

        Rejection-samples random pairs while the pool is large relative to
        the request, falling back to explicit enumeration otherwise.
        """
        pool = self.candidate_count(exclude=exclude)
        k = min(count, pool)
        if k <= 0:
            return pool, []
        if 3 * k >= pool:
            cands = self.candidates(exclude=exclude)
            idx = rng.choice(len(cands), size=k, replace=False)
            return pool, [cands[i] for i in sorted(idx)]
        ex = _norm_pair(exclude) if exclude is not None else None
        chosen: set[tuple[int, int]] = set()
        budget = 30 * k + 100
        while len(chosen) < k and budget > 0:
            budget -= 1
            u = int(rng.integers(self.n))
            v = int(rng.integers(self.n))
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair == ex or pair in chosen or not self.edge_mask(pair):
                continue
            chosen.add(pair)
        if len(chosen) < k:
            cands = [c for c in self.candidates(exclude=exclude) if c not in chosen]
            need = k - len(chosen)
            idx = rng.choice(len(cands), size=need, replace=False)
            chosen.update(cands[i] for i in idx)
        return pool, sorted(chosen)

    # -- updates ------------------------------------------------------------

    def commit(self, pair, order: int) -> None:
        """Record a generated edge; a masked pair or order raises."""
        pair = _norm_pair(pair)
        if not self.edge_mask(pair):
            raise ValueError(f"commit of masked or used pair {pair}")
        if order not in BOND_ORDERS:
            raise ValueError(f"bond order {order} not in {BOND_ORDERS}")
        if order not in self.allowed_orders(pair):
            raise ValueError(f"commit of masked order {order} on pair {pair}")
        for rule in self.rules:
            rule.on_commit(self, pair, order)
        self.generated[pair] = order

    def reject(self, pair) -> None:
        # No decode rejects a pair.  The name stays only because
        # perfbench/tracing.py wraps it (tests/test_bench_tracing.py checks
        # that it resolves); once that wrap goes, so does this stub.
        raise ValueError(f"no mask rejects a pair, got {pair}")


def make_state(kind: str, atom_types=None, n: int | None = None,
               table: ValenceTable | None = None) -> MaskState:
    """Build a MaskState for one of the built-in kinds.

    ``valence`` requires atom_types (the table defaults to CHNO);
    ``none`` and ``triangle_free`` accept either atom_types or an explicit n.
    """
    if kind not in MASK_KINDS:
        raise ValueError(f"unknown mask kind {kind!r}; expected one of {MASK_KINDS}")
    if n is None:
        if atom_types is None:
            raise ValueError("need atom_types or n")
        n = len(atom_types)
    if kind == "none":
        return MaskState(n)
    if kind == "triangle_free":
        return MaskState(n, [TriangleFreeRule(n)])
    if atom_types is None:
        raise ValueError("valence masks need atom_types")
    return MaskState(n, [ValenceRule(atom_types, table or DEFAULT_TABLE)])
