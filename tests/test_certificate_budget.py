"""Certificate search on highly symmetric molecules, and what a molecule
whose search overruns the leaf budget counts as."""

import numpy as np
import pytest

from molvae import latentopt
from molvae import molgraph as M


def tetra_tert_butyl_methane():
    """C(C(CH3)3)4 with explicit hydrogens: 53 atoms, about 6.8e13
    automorphisms."""
    atoms, bonds = ["C"], []

    def add(symbol, parent):
        atoms.append(symbol)
        bonds.append((parent, len(atoms) - 1, 1))
        return len(atoms) - 1

    for _ in range(4):
        quaternary = add("C", 0)
        for _ in range(3):
            methyl = add("C", quaternary)
            for _ in range(3):
                add("H", methyl)
    return M.MolecularGraph(tuple(atoms), tuple(bonds))


METHANE = M.MolecularGraph(("C", "H", "H", "H", "H"),
                           tuple((0, h, 1) for h in range(1, 5)))
CO = M.MolecularGraph(("C", "O"), ((0, 1, 1),))


def test_symmetric_alkane_certifies_within_n_plus_2_leaves(monkeypatch):
    g = tetra_tert_butyl_methane()
    assert g.n == 53 and M.validate_molecule(g).valid
    # a deterministic bound: one leaf per automorphism would be 6.8e13
    monkeypatch.setattr(M, "CERTIFICATE_LEAF_BUDGET", g.n + 2)
    cert = M.canonical_certificate(g)
    rng = np.random.default_rng(17)
    for _ in range(5):
        assert M.canonical_certificate(g.relabel(rng.permutation(g.n))) == cert
    assert M.canonical_certificate(CO) != cert


def test_budget_overrun_raises_a_budget_error(monkeypatch):
    monkeypatch.setattr(M, "CERTIFICATE_LEAF_BUDGET", 1)
    with pytest.raises(M.CertificateBudgetError, match="budget exceeded"):
        M.canonical_certificate(METHANE)


def test_metrics_count_a_budget_overrun_as_uncertified(monkeypatch):
    monkeypatch.setattr(M, "CERTIFICATE_LEAF_BUDGET", 1)
    m = M.compute_metrics([CO, METHANE, METHANE], [CO, METHANE])
    assert (m.n_valid, m.n_uncertified) == (3, 2)
    assert m.novelty == 0.0                       # over {CO}: CO is known
    assert m.uniqueness == pytest.approx(1 / 3)   # {CO} over 3 samples
    only_methane = M.compute_metrics([METHANE], [METHANE])
    assert (only_methane.novelty, only_methane.uniqueness,
            only_methane.n_uncertified) == (0.0, 0.0, 1)


def test_bo_key_falls_back_to_the_labelled_graph_over_budget(monkeypatch):
    monkeypatch.setattr(M, "CERTIFICATE_LEAF_BUDGET", 1)
    assert latentopt._molecule_key(METHANE) == (METHANE.atom_types,
                                                METHANE.bonds)
    assert latentopt._molecule_key(CO) == M.canonical_certificate(CO)
