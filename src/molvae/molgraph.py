"""Molecular graph data model, corpus I/O, validity, certificates, metrics.

Molecules are undirected labeled graphs: per-node atom symbols and per-bond
integer orders in {1, 2, 3}.  Unfilled valence is assumed hydrogen-saturated,
so explicit hydrogens are optional.  Canonical certificates give exact
isomorphism classes at desk scale and back the novelty/uniqueness metrics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

BOND_ORDERS = (1, 2, 3)
CERTIFICATE_LIMIT = 64  # largest molecule canonical_certificate accepts
CERTIFICATE_LEAF_BUDGET = 200000  # search leaves per component before giving up
RING_PROB = 0.3  # chance random_molecule closes rings after growing its tree


class ValenceTable:
    """Maximum valence per atom symbol; key order fixes the one-hot layout."""

    def __init__(self, limits: dict[str, int] | None = None):
        self.limits = dict(limits) if limits is not None else {"C": 4, "H": 1, "N": 3, "O": 2}
        for sym, cap in self.limits.items():
            if not isinstance(sym, str) or not sym:
                raise ValueError("atom symbols must be non-empty strings")
            if int(cap) < 1:
                raise ValueError(f"valence of {sym!r} must be >= 1")

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self.limits)

    def max_valence(self, symbol: str) -> int:
        if symbol not in self.limits:
            raise KeyError(f"unknown atom symbol {symbol!r}")
        return self.limits[symbol]

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


DEFAULT_TABLE = ValenceTable()


@dataclass(frozen=True)
class MolecularGraph:
    """Atom-typed undirected graph with bond orders.

    Bonds are normalized to sorted (u, v, order) triples with u < v; self
    loops and duplicate pairs are rejected at construction.
    """

    atom_types: tuple[str, ...]
    bonds: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        atoms = tuple(str(a) for a in self.atom_types)
        object.__setattr__(self, "atom_types", atoms)
        n = len(atoms)
        norm = []
        seen = set()
        for u, v, order in self.bonds:
            u, v, order = int(u), int(v), int(order)
            if u == v:
                raise ValueError(f"self loop on node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bond ({u},{v}) out of range for n={n}")
            if order not in BOND_ORDERS:
                raise ValueError(f"bond order {order} not in {BOND_ORDERS}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate bond ({u},{v})")
            seen.add((u, v))
            norm.append((u, v, order))
        object.__setattr__(self, "bonds", tuple(sorted(norm)))

    @property
    def n(self) -> int:
        return len(self.atom_types)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-node list of (neighbor, bond order)."""
        adj = [[] for _ in range(self.n)]
        for u, v, order in self.bonds:
            adj[u].append((v, order))
            adj[v].append((u, order))
        return adj

    def valence_sums(self) -> np.ndarray:
        sums = np.zeros(self.n, dtype=int)
        for u, v, order in self.bonds:
            sums[u] += order
            sums[v] += order
        return sums

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for u, v, _ in self.bonds:
            deg[u] += 1
            deg[v] += 1
        return deg

    def relabel(self, perm) -> "MolecularGraph":
        """Image of the graph under node map u -> perm[u]."""
        perm = list(perm)
        atoms = [None] * self.n
        for u, p in enumerate(perm):
            atoms[p] = self.atom_types[u]
        bonds = [(perm[u], perm[v], order) for u, v, order in self.bonds]
        return MolecularGraph(tuple(atoms), tuple(bonds))


class GraphBatch(tuple):
    """Graphs of one node count, encoded and scored as one stacked pass.

    Every per-graph array of the pass gains a leading axis of length
    len(batch); a lone MolecularGraph is the case with no such axis.
    """

    def __new__(cls, graphs):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("a batch needs at least one graph")
        if len({g.n for g in graphs}) != 1:
            raise ValueError("a batch holds graphs of one node count")
        return super().__new__(cls, graphs)

    @property
    def n(self) -> int:
        return self[0].n


@dataclass
class ValidityReport:
    valid: bool
    violations: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class QualityMetrics:
    validity: float
    novelty: float
    uniqueness: float
    n_samples: int
    n_valid: int
    n_uncertified: int  # valid samples without a certificate

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# corpus I/O

def graph_to_obj(g: MolecularGraph) -> dict:
    return {"atoms": list(g.atom_types), "bonds": [list(b) for b in g.bonds]}


def is_integer(x) -> bool:
    """True for Python and numpy integers; False for bools."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def graph_from_obj(obj: dict, table: ValenceTable | None = None) -> MolecularGraph:
    table = table or DEFAULT_TABLE
    if not isinstance(obj, dict) or "atoms" not in obj or "bonds" not in obj:
        raise ValueError("record must be an object with 'atoms' and 'bonds'")
    atoms, bonds = obj["atoms"], obj["bonds"]
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ValueError("'atoms' must be a list of atom symbols")
    for sym in atoms:
        table.max_valence(sym)  # raises on unknown symbol
    if not isinstance(bonds, list) or not all(
            isinstance(b, list) and len(b) == 3 and all(map(is_integer, b))
            for b in bonds):
        raise ValueError("'bonds' must be a list of [u, v, order] integer triples")
    return MolecularGraph(tuple(atoms), tuple(map(tuple, bonds)))


def parse_corpus(path, table: ValenceTable | None = None,
                 check=None) -> list[MolecularGraph]:
    """Read a JSONL corpus: one {"atoms": [...], "bonds": [[u,v,order],...]} per line.

    Raises ValueError naming the file and the offending line on malformed
    JSON, unknown atom symbols, fields of the wrong type, structural
    violations or a record without atoms, and naming the file when it is
    not UTF-8 text.  ``check``, when given, is called on each parsed
    molecule and raises ValueError for one the caller cannot use; that
    error is reported with the file and line too.
    """
    graphs = []
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            g = graph_from_obj(json.loads(line), table)
            if g.n == 0:
                raise ValueError("molecule has no atoms")
            if check is not None:
                check(g)
        except (ValueError, KeyError, TypeError, IndexError, RecursionError) as err:
            raise ValueError(f"{path}: corpus line {lineno}: {err}") from err
        graphs.append(g)
    return graphs


def write_jsonl(path, records) -> None:
    """One JSON object per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_corpus(graphs, path) -> None:
    write_jsonl(path, map(graph_to_obj, graphs))


def to_dot(g: MolecularGraph, name: str = "molecule") -> str:
    """Graphviz DOT text: nodes labeled by atom symbol, edges by bond order."""
    lines = [f"graph {name} {{"]
    for u, sym in enumerate(g.atom_types):
        lines.append(f'  n{u} [label="{sym}"];')
    for u, v, order in g.bonds:
        lines.append(f'  n{u} -- n{v} [label="{order}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validity

def connected_components(g: MolecularGraph) -> list[list[int]]:
    adj = g.adjacency()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def valence_violations(g: MolecularGraph, table: ValenceTable | None = None) -> list[tuple[int, str]]:
    """Nodes whose bond-order sum exceeds their maximum valence."""
    table = table or DEFAULT_TABLE
    sums = g.valence_sums()
    out = []
    for u, sym in enumerate(g.atom_types):
        if sums[u] > table.max_valence(sym):
            out.append((u, "over-valence"))
    return out


def valence_ok(g: MolecularGraph, table: ValenceTable | None = None) -> bool:
    return not valence_violations(g, table)


def validate_molecule(g: MolecularGraph, table: ValenceTable | None = None) -> ValidityReport:
    """Validity proxy: valence rule, connectivity, and at least one atom.

    Violations are (node, reason) with reasons 'over-valence', 'isolated'
    (degree-zero node), 'disconnected' (secondary component), or 'empty'
    (node -1, zero atoms).
    """
    violations = []
    if g.n == 0:
        return ValidityReport(False, [(-1, "empty")])
    violations.extend(valence_violations(g, table))
    comps = connected_components(g)
    if len(comps) > 1:
        # every component after the largest (ties: lowest node id) is extra
        main = max(comps, key=len)
        for comp in comps:
            if comp is main:
                continue
            reason = "isolated" if len(comp) == 1 else "disconnected"
            violations.append((comp[0], reason))
    return ValidityReport(not violations, violations)


# ---------------------------------------------------------------------------
# canonical certificates

class CertificateBudgetError(RuntimeError):
    """The certificate search visited more than CERTIFICATE_LEAF_BUDGET
    leaves of one component."""


def _refine(n, adj, colors):
    """Weisfeiler-Lehman color refinement to a stable partition.

    Colors are dense ints; new colors are assigned by sorting signature
    tuples, which keeps the refinement independent of node labels.
    """
    while True:
        sigs = []
        for u in range(n):
            nbr = tuple(sorted((order, colors[v]) for v, order in adj[u]))
            sigs.append((colors[u], nbr))
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _component_certificate(atoms, adj):
    """Canonical form of one connected component.

    Individualization-refinement search: repeatedly pick the first
    non-singleton color class (an isomorphism-invariant choice), branch on
    each of its vertices, refine, and recurse; the certificate is the
    lexicographic minimum over all leaves.  Leaf values are per-position
    records (atom, back-edges), so a branch whose forced singleton prefix
    already exceeds the best leaf's prefix can be pruned soundly.

    Automorphisms are pruned against the first leaf (McKay & Piperno 2014,
    arXiv 1301.1493): when a later leaf has the first leaf's value, the two
    leaf orders differ by an automorphism that maps the first leaf's path
    onto the current one.  It fixes the common prefix of the two paths, so
    the child where they diverge roots a subtree equivalent to the first
    path's, already searched; the search returns to that depth and takes
    the next child there.  The minimum leaf is unchanged.  More than
    CERTIFICATE_LEAF_BUDGET leaves raise CertificateBudgetError.
    """
    n = len(atoms)
    seed_sigs = [
        (atoms[u], len(adj[u]), tuple(sorted(order for _, order in adj[u])))
        for u in range(n)
    ]
    ranking = {sig: i for i, sig in enumerate(sorted(set(seed_sigs)))}
    colors = _refine(n, adj, [ranking[s] for s in seed_sigs])

    best = [None]
    leaves = [0]
    first = []  # the first leaf's value and path

    def position_records(order_nodes):
        # record i: (atom at position i, sorted (earlier position, order) bonds)
        pos = {node: i for i, node in enumerate(order_nodes)}
        records = []
        for i, node in enumerate(order_nodes):
            back = tuple(sorted(
                (pos[v], order) for v, order in adj[node]
                if v in pos and pos[v] < i
            ))
            records.append((atoms[node], back))
        return tuple(records)

    def cells_of(colors):
        groups = {}
        for u, c in enumerate(colors):
            groups.setdefault(c, []).append(u)
        return [sorted(groups[c]) for c in sorted(groups)]

    def recurse(colors, path):
        """Search below the node reached by individualizing ``path``;
        returns the depth to resume at when a leaf equals the first one,
        else None."""
        cells = cells_of(colors)
        if best[0] is not None:
            prefix = []
            for cell in cells:
                if len(cell) != 1:
                    break
                prefix.append(cell[0])
            forced = position_records(prefix)
            if forced > best[0][:len(forced)]:
                return None
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            leaves[0] += 1
            if leaves[0] > CERTIFICATE_LEAF_BUDGET:
                raise CertificateBudgetError("certificate search budget exceeded")
            value = position_records([cell[0] for cell in cells])
            if not first:
                first.extend((value, path))
            elif value == first[0]:
                return next(d for d, (a, b) in enumerate(zip(path, first[1]))
                            if a != b)
            if best[0] is None or value < best[0]:
                best[0] = value
            return None
        # split in place: the individualized vertex lands right before its
        # old cell, so forced prefixes only ever grow down the subtree
        target_color = colors[target[0]]
        for v in target:
            branched = list(colors)
            branched[v] = target_color - 0.5
            resume = recurse(_refine(n, adj, branched), path + (v,))
            if resume is not None and resume < len(path):
                return resume
        return None

    recurse(colors, ())
    return best[0]


def canonical_certificate(g: MolecularGraph) -> bytes:
    """Exact isomorphism certificate: equal bytes iff graphs are isomorphic.

    Components are canonicalized independently and combined as a sorted
    multiset.  Raises ValueError above CERTIFICATE_LIMIT nodes.
    """
    if g.n > CERTIFICATE_LIMIT:
        raise ValueError(f"certificate limited to {CERTIFICATE_LIMIT} nodes,"
                         f" got {g.n}")
    if g.n == 0:
        return b"(0)"
    adj = g.adjacency()
    comp_values = []
    for comp in connected_components(g):
        local = {node: i for i, node in enumerate(comp)}
        sub_atoms = [g.atom_types[node] for node in comp]
        sub_adj = [[(local[v], order) for v, order in adj[node]] for node in comp]
        comp_values.append((len(comp), _component_certificate(sub_atoms, sub_adj)))
    return repr((g.n, sorted(comp_values))).encode()


def _certificate_or_none(g: MolecularGraph) -> bytes | None:
    """``canonical_certificate(g)``, or None when g has more than
    CERTIFICATE_LIMIT nodes or its search exceeds the leaf budget."""
    if g.n > CERTIFICATE_LIMIT:
        return None
    try:
        return canonical_certificate(g)
    except CertificateBudgetError:
        return None


# ---------------------------------------------------------------------------
# quality metrics

def compute_metrics(samples, corpus, table: ValenceTable | None = None) -> QualityMetrics:
    """Validity, novelty, and uniqueness of a sample set against a corpus.

    Validity is the fraction of samples passing validate_molecule.  Valid
    samples that get no certificate (above CERTIFICATE_LIMIT atoms, or
    whose search exceeds CERTIFICATE_LEAF_BUDGET) are counted as
    ``n_uncertified``; such corpus molecules are skipped, since no
    certified sample can match one.  Novelty is the fraction of
    certified valid samples (with multiplicity) whose certificate is not
    in the corpus; uniqueness is the number of distinct certificates over
    the total sample count.  With no certified valid samples, novelty and
    uniqueness are reported as 0.0.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("compute_metrics: empty sample set")
    table = table or DEFAULT_TABLE
    valid = [g for g in samples if validate_molecule(g, table).valid]
    validity = len(valid) / len(samples)
    valid_certs = [c for c in map(_certificate_or_none, valid) if c is not None]
    n_uncertified = len(valid) - len(valid_certs)
    if not valid_certs:
        return QualityMetrics(validity, 0.0, 0.0, len(samples), len(valid),
                              n_uncertified)
    corpus_certs = set(map(_certificate_or_none, corpus)) - {None}
    known = sum(1 for c in valid_certs if c in corpus_certs)
    novelty = 1.0 - known / len(valid_certs)
    uniqueness = len(set(valid_certs)) / len(samples)
    return QualityMetrics(validity, novelty, uniqueness, len(samples),
                          len(valid), n_uncertified)


# ---------------------------------------------------------------------------
# corpus synthesis (desk-scale test and demo data)

def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(a, p=p)`` builds from the probabilities
    ``p``: their running sum, divided by its last entry."""
    cdf = np.cumsum(p, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf


def draw_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One index drawn by inverse CDF from ``cdf = choice_cdf(p)``.

    The arithmetic of ``rng.choice(len(p), p=p)``: it consumes one
    ``rng.random()`` and returns the same index, so seeded draws, and the
    generator's state after them, match ``rng.choice`` bit for bit.
    ``random_molecule`` and the decoder's sampler both draw through it.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


def _order_cdf(cap: int) -> np.ndarray:
    w = np.array([0.7, 0.2, 0.1][:cap])
    return choice_cdf(w / w.sum())


# random_molecule's bond-order CDFs, keyed by the largest order allowed
_ORDER_CDFS = {cap: _order_cdf(cap) for cap in (2, 3)}


def random_molecule(rng: np.random.Generator, n_nodes: int,
                    table: ValenceTable | None = None) -> MolecularGraph:
    """Sample a connected molecule that respects the valence table.

    Grows a random tree (attachment points weighted by remaining valence),
    then closes a few rings where valence allows.  Heavy atoms dominate;
    explicit hydrogens appear only as leaves.

    Atom symbols and bond orders are drawn with ``draw_index``, the helper
    the decoder's sampler draws with too, from CDFs built once: the symbol
    CDF per call, the bond-order CDFs at import.  A seeded generator gives
    the same molecule, and is left in the same state, as when each draw was
    ``rng.choice(a, p=p)``.
    """
    table = table or DEFAULT_TABLE
    symbols = table.symbols
    weights = np.array([{"C": 0.6, "H": 0.1, "N": 0.15, "O": 0.15}.get(s, 0.25)
                        for s in symbols])
    symbol_cdf = choice_cdf(weights / weights.sum())

    heavy = [s for s in symbols if table.max_valence(s) >= 2] or list(symbols)
    atoms = [heavy[rng.integers(len(heavy))]]
    remaining = [table.max_valence(atoms[0])]
    bonds = []
    while len(atoms) < n_nodes:
        open_nodes = [u for u in range(len(atoms)) if remaining[u] >= 1]
        if not open_nodes:
            break
        u = open_nodes[rng.integers(len(open_nodes))]
        sym = symbols[draw_index(rng, symbol_cdf)]
        # keep growth alive: the last slots must not all be valence-1 leaves
        if len(atoms) < n_nodes - 1 and sum(remaining) <= 1 and table.max_valence(sym) < 2:
            sym = heavy[rng.integers(len(heavy))]
        cap = min(remaining[u], table.max_valence(sym), 3)
        order = 1 if cap == 1 else 1 + draw_index(rng, _ORDER_CDFS[cap])
        v = len(atoms)
        atoms.append(sym)
        remaining[u] -= order
        remaining.append(table.max_valence(sym) - order)
        bonds.append((u, v, order))

    n = len(atoms)
    if rng.random() < RING_PROB and n >= 3:
        bonded = {(u, v) for u, v, _ in bonds}
        for _ in range(2):
            open_nodes = [u for u in range(n) if remaining[u] >= 1]
            if len(open_nodes) < 2:
                break
            u, v = rng.choice(open_nodes, size=2, replace=False)
            u, v = (int(u), int(v)) if u < v else (int(v), int(u))
            if (u, v) in bonded:
                continue
            bonds.append((u, v, 1))
            bonded.add((u, v))
            remaining[u] -= 1
            remaining[v] -= 1
    return MolecularGraph(tuple(atoms), tuple(bonds))
