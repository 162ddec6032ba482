"""Graph data model: parsing, validity, certificates vs brute force, metrics."""

import itertools
import json

import numpy as np
import pytest

from molvae import molgraph as M


def test_bond_normalization_and_rejects():
    g = M.MolecularGraph(("C", "O", "N"), ((2, 0, 1), (1, 2, 2)))
    assert g.bonds == ((0, 2, 1), (1, 2, 2))
    with pytest.raises(ValueError):
        M.MolecularGraph(("C", "C"), ((0, 0, 1),))
    with pytest.raises(ValueError):
        M.MolecularGraph(("C", "C"), ((0, 1, 1), (1, 0, 2)))
    with pytest.raises(ValueError):
        M.MolecularGraph(("C", "C"), ((0, 1, 4),))
    with pytest.raises(ValueError):
        M.MolecularGraph(("C",), ((0, 1, 1),))


def test_corpus_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    graphs = [M.random_molecule(rng, int(rng.integers(1, 13))) for _ in range(40)]
    path = tmp_path / "corpus.jsonl"
    M.write_corpus(graphs, path)
    back = M.parse_corpus(path)
    assert back == graphs


def test_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"atoms": ["C"], "bonds": []}\n{"atoms": ["Xx"], "bonds": []}\n')
    with pytest.raises(ValueError, match="line 2"):
        M.parse_corpus(path)
    path.write_text('{"atoms": ["C"], "bonds": []}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        M.parse_corpus(path)


def test_validity_reports():
    methane_like = M.MolecularGraph(("C", "H", "H"), ((0, 1, 1), (0, 2, 1)))
    assert M.validate_molecule(methane_like).valid

    over = M.MolecularGraph(("O", "C", "C"), ((0, 1, 2), (0, 2, 1)))
    rep = M.validate_molecule(over)
    assert not rep.valid
    assert (0, "over-valence") in rep.violations

    disco = M.MolecularGraph(("C", "C", "C", "C"), ((0, 1, 1), (2, 3, 1)))
    rep = M.validate_molecule(disco)
    assert not rep.valid
    assert (2, "disconnected") in rep.violations

    lonely = M.MolecularGraph(("C", "C", "O"), ((0, 1, 1),))
    rep = M.validate_molecule(lonely)
    assert (2, "isolated") in rep.violations

    assert not M.validate_molecule(M.MolecularGraph(())).valid
    assert M.validate_molecule(M.MolecularGraph(("O",))).valid


def test_custom_valence_table():
    table = M.ValenceTable({"C": 4, "S": 6})
    g = M.MolecularGraph(("S", "C", "C", "C"), ((0, 1, 2), (0, 2, 2), (0, 3, 2)))
    assert M.valence_ok(g, table)
    with pytest.raises(KeyError):
        table.max_valence("H")


def _brute_canon(g: M.MolecularGraph):
    """Reference canonical form: minimum over all node permutations."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        h = g.relabel(perm)
        adj = h.adjacency()
        records = tuple(
            (h.atom_types[i], tuple(sorted((v, o) for v, o in adj[i] if v < i)))
            for i in range(h.n)
        )
        if best is None or records < best:
            best = records
    return best


def _all_graphs(n, symbols, orders):
    pairs = list(itertools.combinations(range(n), 2))
    for atoms in itertools.product(symbols, repeat=n):
        for assignment in itertools.product([0] + list(orders), repeat=len(pairs)):
            bonds = tuple((u, v, o) for (u, v), o in zip(pairs, assignment) if o)
            yield M.MolecularGraph(atoms, bonds)


@pytest.mark.parametrize("n,symbols,orders", [
    (3, ("C", "H", "N", "O"), (1, 2, 3)),
    (4, ("C", "O"), (1, 2)),
])
def test_certificate_equality_iff_isomorphic(n, symbols, orders):
    # certificate and the permutation oracle must induce the same partition
    cert_to_oracle = {}
    oracle_to_cert = {}
    for g in _all_graphs(n, symbols, orders):
        cert = M.canonical_certificate(g)
        oracle = _brute_canon(g)
        assert cert_to_oracle.setdefault(cert, oracle) == oracle
        assert oracle_to_cert.setdefault(oracle, cert) == cert


def test_certificate_invariant_under_relabeling():
    rng = np.random.default_rng(1)
    for _ in range(60):
        g = M.random_molecule(rng, int(rng.integers(2, 13)))
        cert = M.canonical_certificate(g)
        perm = rng.permutation(g.n)
        assert M.canonical_certificate(g.relabel(list(perm))) == cert


def test_certificate_symmetric_structures():
    # highly regular cases stress the search: cycles, cliques, disjoint unions
    cycle = M.MolecularGraph(
        ("C",) * 12, tuple((i, (i + 1) % 12, 1) for i in range(12)))
    rng = np.random.default_rng(2)
    perm = rng.permutation(12)
    assert M.canonical_certificate(cycle.relabel(list(perm))) == M.canonical_certificate(cycle)

    k5 = M.MolecularGraph(("C",) * 5, tuple(
        (u, v, 1) for u, v in itertools.combinations(range(5), 2)))
    assert M.canonical_certificate(k5.relabel([4, 3, 2, 1, 0])) == M.canonical_certificate(k5)

    isolated = M.MolecularGraph(("C",) * 20)
    assert M.canonical_certificate(isolated.relabel(list(rng.permutation(20)))) \
        == M.canonical_certificate(isolated)

    two_paths = M.MolecularGraph(("C", "O", "C", "O"), ((0, 1, 1), (2, 3, 1)))
    other_pairing = M.MolecularGraph(("C", "O", "C", "O"), ((0, 3, 1), (2, 1, 1)))
    assert M.canonical_certificate(two_paths) == M.canonical_certificate(other_pairing)


def test_certificate_distinguishes_bond_orders_and_atoms():
    single = M.MolecularGraph(("C", "C"), ((0, 1, 1),))
    double = M.MolecularGraph(("C", "C"), ((0, 1, 2),))
    mixed = M.MolecularGraph(("C", "O"), ((0, 1, 1),))
    certs = {M.canonical_certificate(g) for g in (single, double, mixed)}
    assert len(certs) == 3


def test_certificate_limit():
    big = M.MolecularGraph(("C",) * 65)
    with pytest.raises(ValueError):
        M.canonical_certificate(big)


def test_metrics_hand_counts():
    a = M.MolecularGraph(("C", "O"), ((0, 1, 1),))
    b = M.MolecularGraph(("C", "N"), ((0, 1, 1),))
    bad = M.MolecularGraph(("O", "C", "C"), ((0, 1, 2), (0, 2, 1)))

    # {A, A, B}, all valid: uniqueness 2/3
    m = M.compute_metrics([a, a, b], [a], )
    assert m.validity == 1.0
    assert m.uniqueness == pytest.approx(2 / 3)
    # novelty counts with multiplicity: 2 of 3 valid samples known
    assert m.novelty == pytest.approx(1 / 3)

    # 2 valid of 4
    m = M.compute_metrics([a, bad, b, bad], [])
    assert m.validity == 0.5
    assert m.novelty == 1.0
    assert m.uniqueness == 0.5

    # all valid samples present in the corpus: novelty 0
    m = M.compute_metrics([a, b], [a, b])
    assert m.novelty == 0.0

    with pytest.raises(ValueError):
        M.compute_metrics([], [a])


def test_metrics_count_samples_above_certificate_limit():
    a = M.MolecularGraph(("C", "O"), ((0, 1, 1),))
    b = M.MolecularGraph(("C", "N"), ((0, 1, 1),))
    chain = M.MolecularGraph(("C",) * 70, [(i, i + 1, 1) for i in range(69)])
    bad = M.MolecularGraph(("O", "C", "C"), ((0, 1, 2), (0, 2, 1)))
    m = M.compute_metrics([a, chain, b, chain, bad], [a, chain])
    assert m.n_valid == 4 and m.n_uncertified == 2
    assert m.as_dict()["n_uncertified"] == 2
    assert m.validity == pytest.approx(4 / 5)
    assert m.novelty == pytest.approx(1 / 2)       # over {a, b}: a is known
    assert m.uniqueness == pytest.approx(2 / 5)    # {a, b} over 5 samples
    only_big = M.compute_metrics([chain], [chain])
    assert (only_big.novelty, only_big.uniqueness,
            only_big.n_uncertified) == (0.0, 0.0, 1)


def test_metrics_invariant_under_sample_relabeling():
    rng = np.random.default_rng(3)
    corpus = [M.random_molecule(rng, 8) for _ in range(10)]
    samples = [M.random_molecule(rng, int(rng.integers(2, 9))) for _ in range(20)]
    base = M.compute_metrics(samples, corpus)
    shuffled = [g.relabel(list(rng.permutation(g.n))) for g in samples]
    again = M.compute_metrics(shuffled, corpus)
    assert base == again


def test_random_molecule_is_valid():
    rng = np.random.default_rng(4)
    for _ in range(200):
        g = M.random_molecule(rng, int(rng.integers(1, 13)))
        assert 1 <= g.n <= 12
        assert M.validate_molecule(g).valid, M.validate_molecule(g).violations


def _reference_random_molecule(rng, n_nodes, table=None):
    """random_molecule as it was written with ``rng.choice(a, p=p)`` for
    every atom symbol and bond order: the reference its inverse-CDF draws
    must reproduce bit for bit."""
    table = table or M.DEFAULT_TABLE
    symbols = table.symbols
    weights = np.array([{"C": 0.6, "H": 0.1, "N": 0.15, "O": 0.15}.get(s, 0.25)
                        for s in symbols])
    weights = weights / weights.sum()

    def order_weights(cap):
        w = np.array([0.7, 0.2, 0.1][:cap])
        return w / w.sum()

    heavy = [s for s in symbols if table.max_valence(s) >= 2] or list(symbols)
    atoms = [heavy[rng.integers(len(heavy))]]
    remaining = [table.max_valence(atoms[0])]
    bonds = []
    while len(atoms) < n_nodes:
        open_nodes = [u for u in range(len(atoms)) if remaining[u] >= 1]
        if not open_nodes:
            break
        u = open_nodes[rng.integers(len(open_nodes))]
        sym = rng.choice(symbols, p=weights)
        if len(atoms) < n_nodes - 1 and sum(remaining) <= 1 and table.max_valence(sym) < 2:
            sym = heavy[rng.integers(len(heavy))]
        cap = min(remaining[u], table.max_valence(sym), 3)
        order = 1 if cap == 1 else int(rng.choice([1, 2, 3][:cap], p=order_weights(cap)))
        v = len(atoms)
        atoms.append(sym)
        remaining[u] -= order
        remaining.append(table.max_valence(sym) - order)
        bonds.append((u, v, order))

    n = len(atoms)
    if rng.random() < M.RING_PROB and n >= 3:
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
    return M.MolecularGraph(tuple(atoms), tuple(bonds))


@pytest.mark.parametrize("table", [
    M.DEFAULT_TABLE,
    # S and Cl take the 0.25 weight; S's valence 6 exceeds the order cap
    M.ValenceTable({"C": 4, "S": 6, "Cl": 1, "H": 1}),
    # no atom of valence 2 or more: growth starts from any symbol
    M.ValenceTable({"H": 1, "F": 1}),
], ids=["chno", "with-s-cl", "valence-1-only"])
def test_random_molecule_matches_the_rng_choice_reference(table):
    for seed in range(12):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(1, 65):
            assert M.random_molecule(rng, n, table) == \
                _reference_random_molecule(ref, n, table), (seed, n)
            assert rng.random() == ref.random(), (seed, n)


@pytest.mark.parametrize("p", [[1.0], [0.6, 0.1, 0.15, 0.15], [0.0, 0.5, 0.5],
                               [1e-300, 1.0, 0.0, 3e-17]])
def test_draw_index_is_rng_choice(p):
    p = np.asarray(p) / np.sum(p)
    cdf = M.choice_cdf(p)
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert M.draw_index(rng, cdf) == ref.choice(len(p), p=p)
        assert rng.random() == ref.random()


def test_dot_export():
    g = M.MolecularGraph(("C", "O"), ((0, 1, 2),))
    dot = M.to_dot(g)
    assert 'label="C"' in dot and 'label="O"' in dot and 'label="2"' in dot
    assert dot.startswith("graph molecule {")


def test_json_schema_shape(tmp_path):
    g = M.MolecularGraph(("C", "O"), ((0, 1, 2),))
    obj = M.graph_to_obj(g)
    assert obj == {"atoms": ["C", "O"], "bonds": [[0, 1, 2]]}
    assert M.graph_from_obj(json.loads(json.dumps(obj))) == g
