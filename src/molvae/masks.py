"""Validity masks for the sequential graph decoder.

A MaskState tracks one decode in progress: which pairs have been generated
or rejected, plus any structural rules.  Rules are composed by conjunction;
the built-in kinds are ``none`` (bookkeeping only), ``valence`` (edges need
spare valence at both endpoints, bond orders must fit the smaller remaining
valence), and ``triangle_free`` (no edge may close a triangle).

Candidate counting and uniform candidate sampling avoid enumerating the
O(n^2) pair universe in the common cases, which keeps likelihood evaluation
with negative sampling linear in the edge count.
"""

from __future__ import annotations

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

    def weight_ok(self, state, pair, order) -> bool:
        u, v = pair
        return order <= self.remaining[u] and order <= self.remaining[v]

    def on_commit(self, state, pair, order) -> None:
        u, v = pair
        self.remaining[u] -= order
        self.remaining[v] -= order

    def on_reject(self, state, pair) -> None:
        pass

    def count_allowed(self, state, exclude) -> int:
        open_nodes = self.remaining >= 1
        a = int(open_nodes.sum())
        count = a * (a - 1) // 2
        for (u, v) in state.generated:
            if open_nodes[u] and open_nodes[v]:
                count -= 1
        for (u, v) in state.rejected:
            if open_nodes[u] and open_nodes[v]:
                count -= 1
        if exclude is not None and open_nodes[exclude[0]] and open_nodes[exclude[1]] \
                and exclude not in state.generated and exclude not in state.rejected:
            count -= 1
        return count


class TriangleFreeRule:
    """An edge is allowed only if its endpoints share no generated neighbor."""

    def __init__(self, n: int):
        self.adj = [set() for _ in range(n)]
        self.common = {}       # free pair -> number of shared neighbors
        self.masked_free = 0   # free pairs with common > 0

    def edge_ok(self, state, pair) -> bool:
        u, v = pair
        return not (self.adj[u] & self.adj[v])

    def weight_ok(self, state, pair, order) -> bool:
        return True

    def _bump(self, state, pair) -> None:
        pair = _norm_pair(pair)
        c = self.common.get(pair, 0)
        self.common[pair] = c + 1
        if c == 0 and pair not in state.generated and pair not in state.rejected:
            self.masked_free += 1

    def on_commit(self, state, pair, order) -> None:
        u, v = pair
        for w in self.adj[u]:
            self._bump(state, (v, w))
        for w in self.adj[v]:
            self._bump(state, (u, w))
        if self.common.get(pair, 0) > 0:
            # pair leaves the free universe (state.generated gains it)
            self.masked_free -= 1
        self.adj[u].add(v)
        self.adj[v].add(u)

    def on_reject(self, state, pair) -> None:
        if self.common.get(pair, 0) > 0:
            self.masked_free -= 1

    def count_allowed(self, state, exclude) -> int:
        count = state.free_pair_count() - self.masked_free
        if exclude is not None:
            ex = _norm_pair(exclude)
            if ex not in state.generated and ex not in state.rejected \
                    and self.common.get(ex, 0) == 0:
                count -= 1
        return count


class MaskState:
    """Pair/order masks for one decode, composed from zero or more rules."""

    def __init__(self, n: int, rules=()):
        if n < 1:
            raise ValueError("mask state needs at least one node")
        self.n = n
        self.rules = list(rules)
        self.generated: dict[tuple[int, int], int] = {}
        self.rejected: set[tuple[int, int]] = set()

    # -- queries ------------------------------------------------------------

    def free_pair_count(self) -> int:
        return self.n * (self.n - 1) // 2 - len(self.generated) - len(self.rejected)

    def edge_mask(self, pair) -> bool:
        """True when the pair may be proposed as the next edge."""
        pair = _norm_pair(pair)
        if pair in self.generated or pair in self.rejected:
            return False
        return all(rule.edge_ok(self, pair) for rule in self.rules)

    def weight_mask(self, pair, order: int) -> bool:
        pair = _norm_pair(pair)
        if order not in BOND_ORDERS:
            raise ValueError(f"bond order {order} not in {BOND_ORDERS}")
        return all(rule.weight_ok(self, pair, order) for rule in self.rules)

    def allowed_orders(self, pair) -> list[int]:
        return [m for m in BOND_ORDERS if self.weight_mask(pair, m)]

    def candidates(self, exclude=None) -> list[tuple[int, int]]:
        """All currently unmasked, non-generated, non-rejected pairs."""
        ex = _norm_pair(exclude) if exclude is not None else None
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (u, v) != ex and self.edge_mask((u, v)):
                    out.append((u, v))
        return out

    def candidate_count(self, exclude=None) -> int:
        ex = _norm_pair(exclude) if exclude is not None else None
        if not self.rules:
            count = self.free_pair_count()
            if ex is not None and ex not in self.generated and ex not in self.rejected:
                count -= 1
            return count
        if len(self.rules) == 1:
            return self.rules[0].count_allowed(self, ex)
        return len(self.candidates(exclude=ex))

    def sample_candidates(self, rng: np.random.Generator, count: int,
                          exclude=None) -> list[tuple[int, int]]:
        """Distinct uniform draws from the candidate set, at most pool size.

        Rejection-samples random pairs while the pool is large relative to
        the request, falling back to explicit enumeration otherwise.
        """
        pool = self.candidate_count(exclude=exclude)
        k = min(count, pool)
        if k <= 0:
            return []
        if 3 * k >= pool:
            cands = self.candidates(exclude=exclude)
            idx = rng.choice(len(cands), size=k, replace=False)
            return [cands[i] for i in sorted(idx)]
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
        return sorted(chosen)

    # -- updates ------------------------------------------------------------

    def commit(self, pair, order: int) -> None:
        """Record a generated edge; rejects masked pairs and orders loudly."""
        pair = _norm_pair(pair)
        if not self.edge_mask(pair):
            raise ValueError(f"commit of masked or used pair {pair}")
        if not self.weight_mask(pair, order):
            raise ValueError(f"commit of masked order {order} on pair {pair}")
        for rule in self.rules:
            rule.on_commit(self, pair, order)
        self.generated[pair] = order

    def reject(self, pair) -> None:
        """Exclude a pair from all future candidate sets (no valid weight)."""
        pair = _norm_pair(pair)
        if pair in self.generated:
            raise ValueError(f"cannot reject generated pair {pair}")
        if pair in self.rejected:
            return
        for rule in self.rules:
            rule.on_reject(self, pair)
        self.rejected.add(pair)


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
