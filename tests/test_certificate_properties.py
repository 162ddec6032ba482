"""Property tests: canonical_certificate against brute-force isomorphism.

bo_loop and compute_metrics merge molecules by this certificate, so equal
certificates must mean isomorphic molecules (atom types and bond orders
respected), and relabelling must never change a certificate.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from molvae.molgraph import BOND_ORDERS, MolecularGraph, canonical_certificate

SETTINGS = settings(max_examples=300)


@st.composite
def molecules(draw, max_n):
    """Labelled graphs over C/N/O with any bond orders (valence is not a
    certificate concern)."""
    n = draw(st.integers(1, max_n))
    atoms = tuple(draw(st.lists(st.sampled_from("CNO"), min_size=n,
                                max_size=n)))
    pairs = list(itertools.combinations(range(n), 2))
    orders = draw(st.lists(st.sampled_from((0,) + BOND_ORDERS),
                           min_size=len(pairs), max_size=len(pairs)))
    bonds = [(u, v, o) for (u, v), o in zip(pairs, orders) if o]
    return MolecularGraph(atoms, bonds)


def _isomorphic(a: MolecularGraph, b: MolecularGraph) -> bool:
    if a.n != b.n or len(a.bonds) != len(b.bonds):
        return False
    b_bonds = set(b.bonds)
    for perm in itertools.permutations(range(a.n)):
        if any(a.atom_types[u] != b.atom_types[perm[u]] for u in range(a.n)):
            continue
        if all((min(perm[u], perm[v]), max(perm[u], perm[v]), o) in b_bonds
               for u, v, o in a.bonds):
            return True
    return False


@SETTINGS
@given(g=molecules(max_n=12), data=st.data())
def test_certificate_invariant_under_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_certificate(g.relabel(perm)) == canonical_certificate(g)


@SETTINGS
@given(a=molecules(max_n=6), b=molecules(max_n=6), data=st.data())
def test_certificate_equality_is_isomorphism(a, b, data):
    # half the pairs are relabelled copies, so both outcomes get exercised
    if data.draw(st.booleans()):
        b = a.relabel(data.draw(st.permutations(range(a.n))))
    same = canonical_certificate(a) == canonical_certificate(b)
    assert same == _isomorphic(a, b)
