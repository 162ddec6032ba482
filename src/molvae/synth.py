"""Synthetic-graph experiments: generators, exact likelihoods, rank metrics.

Two random-graph families with tractable likelihoods (Kronecker initiator
powers and preferential attachment), a triangle-free corpus builder, and the
rank-agreement scores used to compare a model's ordering of graphs against
the true generative ordering.

Synthetic graphs travel as molecules with every atom set to a neutral
symbol, so the corpus tooling, masks, and training loop apply unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masks import make_state
from .molgraph import MolecularGraph

NEUTRAL_ATOM = "C"
EXTREME_FRACTION = 0.1  # share of a true ranking precision_top_bottom checks at each end


def as_molecule(n: int, pairs) -> MolecularGraph:
    """Wrap a plain undirected graph as an all-carbon, single-bond molecule."""
    return MolecularGraph((NEUTRAL_ATOM,) * n,
                          tuple((min(u, v), max(u, v), 1) for u, v in pairs))


# ---------------------------------------------------------------------------
# Kronecker graphs


@dataclass(frozen=True)
class KroneckerSpec:
    """2x2 initiator matrix and the Kronecker power (graph has 2**k nodes)."""

    initiator: tuple[tuple[float, float], tuple[float, float]]
    k: int

    def __post_init__(self):
        theta = np.asarray(self.initiator, dtype=np.float64)
        if theta.shape != (2, 2):
            raise ValueError("initiator must be 2x2")
        if np.any(theta < 0.0) or np.any(theta > 1.0):
            raise ValueError("initiator entries must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("power k must be >= 1")

    @property
    def n(self) -> int:
        return 2 ** self.k


def kronecker_probabilities(spec: KroneckerSpec) -> np.ndarray:
    """Pairwise edge probabilities: the k-fold Kronecker power, then each
    unordered pair symmetrized as (P_uv + P_vu) / 2."""
    theta = np.asarray(spec.initiator, dtype=np.float64)
    p = theta
    for _ in range(spec.k - 1):
        p = np.kron(p, theta)
    return 0.5 * (p + p.T)


def gen_kronecker(spec: KroneckerSpec, rng: np.random.Generator) -> MolecularGraph:
    """One Bernoulli draw per unordered pair; no self-loops."""
    p = kronecker_probabilities(spec)
    n = spec.n
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p[u, v]:
                pairs.append((u, v))
    return as_molecule(n, pairs)


def loglik_kronecker(g: MolecularGraph, spec: KroneckerSpec) -> float:
    """Exact Bernoulli log-likelihood under the generated labeling.

    A pair whose probability is exactly 0 or 1 but disagrees with the graph
    yields -inf rather than an exception.  No label-correspondence search is
    attempted; the graph is scored as labeled.
    """
    if g.n != spec.n:
        raise ValueError(f"graph has {g.n} nodes but the spec implies {spec.n}")
    p = kronecker_probabilities(spec)
    adj = {(u, v) for u, v, _ in g.bonds}
    total = 0.0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            prob = p[u, v]
            present = (u, v) in adj
            q = prob if present else 1.0 - prob
            if q <= 0.0:
                return float("-inf")
            total += math.log(q)
    return total


# ---------------------------------------------------------------------------
# preferential attachment


@dataclass(frozen=True)
class BASample:
    """A preferential-attachment draw with its arrival record.

    ``attachments`` lists (newcomer, target) pairs in generation order; the
    likelihood of the construction is recoverable only while that order is
    known.
    """

    graph: MolecularGraph
    attachments: tuple[tuple[int, int], ...]
    m: int


def _attachment_weights(n_existing: int, degrees, taken) -> np.ndarray:
    # the seed node counts one extra stub so that the first contested
    # attachment (two nodes, degrees 1 and 1) splits 2/3 vs 1/3
    w = np.array([degrees[t] + (1.0 if t == 0 else 0.0)
                  for t in range(n_existing)])
    for t in taken:
        w[t] = 0.0
    return w


def gen_ba(n: int, m: int, rng: np.random.Generator) -> BASample:
    """Grow from a single seed; each newcomer attaches to up to m distinct
    earlier nodes with probability proportional to degree (seed +1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n <= m:
        raise ValueError("need n > m")
    degrees = [0] * n
    attachments: list[tuple[int, int]] = []
    for new in range(1, n):
        taken: set[int] = set()
        for _ in range(min(m, new)):
            w = _attachment_weights(new, degrees, taken)
            target = int(rng.choice(new, p=w / w.sum()))
            taken.add(target)
            attachments.append((new, target))
            degrees[new] += 1
            degrees[target] += 1
    return BASample(as_molecule(n, attachments), tuple(attachments), m)


def loglik_ba(sample: BASample) -> float:
    """Log-probability of the recorded construction sequence."""
    if not isinstance(sample, BASample) or sample.attachments is None:
        raise ValueError("need a BASample with its arrival order")
    n = sample.graph.n
    degrees = [0] * n
    total = 0.0
    expected_new = 1
    taken: set[int] = set()
    for new, target in sample.attachments:
        if new != expected_new:
            taken = set()
            expected_new = new
        w = _attachment_weights(new, degrees, taken)
        prob = w[target] / w.sum()
        if prob <= 0.0:
            return float("-inf")
        total += math.log(prob)
        taken.add(target)
        degrees[new] += 1
        degrees[target] += 1
    return total


# ---------------------------------------------------------------------------
# triangle-free corpora


def gen_triangle_free(rng: np.random.Generator, n: int, p: float = 0.3,
                      maximal: bool = False) -> MolecularGraph:
    """Uniform random-pair draw filtered to stay triangle-free; optionally
    augmented by a second randomized pass until no pair can be added.  The
    triangle rule is the decoder's ``triangle_free`` mask."""
    if n < 1:
        raise ValueError("need at least one node")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(all_pairs)) < p
    chosen = [pr for pr, k in zip(all_pairs, keep) if k]
    rest = [pr for pr, k in zip(all_pairs, keep) if not k]
    state = make_state("triangle_free", n=n)
    edges: list[tuple[int, int]] = []
    for pool in (chosen, rest) if maximal else (chosen,):
        for i in rng.permutation(len(pool)):
            if state.edge_mask(pool[i]):
                state.commit(pool[i], 1)
                edges.append(pool[i])
    return as_molecule(n, edges)


# ---------------------------------------------------------------------------
# rank agreement


def _rank_positions(order) -> dict:
    seen = {}
    for pos, item in enumerate(order):
        if item in seen:
            raise ValueError(f"duplicate id {item!r} in ranking")
        seen[item] = pos
    return seen


def spearman(order_a, order_b) -> float:
    """Rank correlation between two orderings of the same id set."""
    pa = _rank_positions(order_a)
    pb = _rank_positions(order_b)
    if len(pa) < 2:
        raise ValueError("need at least two ranked items")
    if set(pa) != set(pb):
        raise ValueError("rankings must cover the same ids")
    ids = list(pa)
    ra = np.array([pa[i] for i in ids], dtype=np.float64)
    rb = np.array([pb[i] for i in ids], dtype=np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / math.sqrt((ra * ra).sum() * (rb * rb).sum()))


def precision_top_bottom(order_true, order_model) -> tuple[float, float]:
    """How much of the true extreme slices the model's halves recover.

    The true ranking contributes its top and bottom ``EXTREME_FRACTION``
    slices; the model ranking contributes its top and bottom halves.  Returns
    the fraction of each true slice found in the matching model half.
    """
    pt = _rank_positions(order_true)
    pm = _rank_positions(order_model)
    if set(pt) != set(pm):
        raise ValueError("rankings must cover the same ids")
    n = len(pt)
    if n < 10:
        raise ValueError("need at least 10 items")
    slice_size = max(1, int(n * EXTREME_FRACTION))
    half = n // 2
    top_true = set(list(order_true)[:slice_size])
    bottom_true = set(list(order_true)[-slice_size:])
    top_model = set(list(order_model)[:half])
    bottom_model = set(list(order_model)[-half:])
    up = len(top_true & top_model) / slice_size
    down = len(bottom_true & bottom_model) / slice_size
    return up, down
