"""Molecular graphs as data: validity, canonical certificates, metrics.

Shows the corpus data model end to end: build molecules by hand, validate
them against the valence table, serialize a corpus, recognize relabeled
duplicates via canonical certificates, and score a sample set.
"""

import tempfile
from pathlib import Path

import numpy as np

from molvae.molgraph import (DEFAULT_TABLE, MolecularGraph,
                             canonical_certificate, compute_metrics,
                             parse_corpus, random_molecule, to_dot,
                             validate_molecule, write_corpus)

# --- hand-built molecules -------------------------------------------------

ethanol_like = MolecularGraph(("C", "C", "O"), [(0, 1, 1), (1, 2, 1)])
over_valent = MolecularGraph(("O", "C"), [(0, 1, 3)])

for name, g in [("C-C-O chain", ethanol_like), ("O#C triple", over_valent)]:
    report = validate_molecule(g)
    print(f"{name:12s} valid={report.valid} violations={report.violations}")

# --- certificates identify relabelings ------------------------------------

perm = [2, 0, 1]
relabeled = ethanol_like.relabel(perm)
same = canonical_certificate(ethanol_like) == canonical_certificate(relabeled)
print("relabeled copy shares certificate:", same)

# --- corpus round trip ----------------------------------------------------

rng = np.random.default_rng(7)
corpus = [random_molecule(rng, int(rng.integers(4, 9)), DEFAULT_TABLE)
          for _ in range(20)]
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.jsonl"
    write_corpus(corpus, path)
    reloaded = parse_corpus(path)
print(f"wrote and reloaded {len(reloaded)} molecules")

# --- quality metrics against the corpus -----------------------------------

samples = corpus[:3] + [corpus[0]] + \
    [random_molecule(rng, 6, DEFAULT_TABLE) for _ in range(3)]
qm = compute_metrics(samples, corpus, DEFAULT_TABLE)
print(f"validity={qm.validity:.2f} novelty={qm.novelty:.2f}"
      f" uniqueness={qm.uniqueness:.2f}")

# --- DOT rendering for eyeballing -----------------------------------------

print("\nDOT for the chain molecule:")
print(to_dot(ethanol_like, name="chain"))
