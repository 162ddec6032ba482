"""End-to-end CLI runs on tiny corpora: files, determinism, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import molvae
from molvae import cli, latentopt
from molvae.cli import main, ranking_agreement
from molvae.encoder import posterior
from molvae.latentopt import molecule_embedding, proxy_property
from molvae.training import (Checkpoint, Hyperparams, init_model,
                             load_checkpoint, save_checkpoint)
from molvae.molgraph import (DEFAULT_TABLE, MolecularGraph, ValenceTable,
                             parse_corpus, random_molecule, write_corpus)
from test_certificate_budget import tetra_tert_butyl_methane


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 12-molecule fixed-size corpus and a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = [random_molecule(np.random.default_rng(s), 6, DEFAULT_TABLE)
              for s in range(12)]
    write_corpus(corpus, root / "corpus.jsonl")
    rc = main(["train", "--corpus", str(root / "corpus.jsonl"),
               "--seed", "3", "--out-dir", str(root / "run"),
               "--D", "4", "--K", "2", "--L", "5",
               "--iters", "10", "--batch-size", "6"])
    assert rc == 0
    return {"root": root, "corpus": corpus,
            "corpus_path": str(root / "corpus.jsonl"),
            "checkpoint": str(root / "run" / "checkpoint.bin")}


def _read_log(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_train_outputs(workspace):
    run = workspace["root"] / "run"
    assert (run / "checkpoint.bin").is_file()
    log = _read_log(run / "elbo_log.csv")
    assert log[0] == ["iteration", "elbo", "seconds"]
    assert len(log) == 11
    meta = json.loads((run / "train_meta.json").read_text())
    assert meta["n_molecules"] == 12
    lam = meta["lambda_n"]  # zero-truncated MLE at mean node count 6
    assert lam / -math.expm1(-lam) == pytest.approx(6.0, rel=1e-12, abs=0)


def test_train_rerun_is_deterministic(workspace, tmp_path):
    rc = main(["train", "--corpus", workspace["corpus_path"],
               "--seed", "3", "--out-dir", str(tmp_path),
               "--D", "4", "--K", "2", "--L", "5",
               "--iters", "10", "--batch-size", "6"])
    assert rc == 0
    first = _read_log(workspace["root"] / "run" / "elbo_log.csv")
    second = _read_log(tmp_path / "elbo_log.csv")
    # iteration and ELBO columns are the determinism contract; wall time isn't
    assert [r[:2] for r in first] == [r[:2] for r in second]
    assert (tmp_path / "checkpoint.bin").read_bytes() == \
        (workspace["root"] / "run" / "checkpoint.bin").read_bytes()


def test_train_missing_corpus(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    rc = main(["train", "--corpus", str(missing), "--seed", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_train_malformed_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"atoms": ["C"], "bonds": []}\nnot json\n')
    rc = main(["train", "--corpus", str(bad), "--seed", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["train", "sample"])
@pytest.mark.parametrize("under", [False, True])
def test_out_dir_naming_a_file_exits_2(workspace, tmp_path, capsys,
                                       monkeypatch, subcommand, under):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the --out-dir check")

    monkeypatch.setattr(cli, "train", unreachable)
    monkeypatch.setattr(cli, "_load_corpus", unreachable)
    monkeypatch.setattr(cli, "_load_checkpoint", unreachable)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    out = blocker / "run" if under else blocker
    argv = {"train": ["train", "--corpus", workspace["corpus_path"],
                      "--seed", "0"],
            "sample": ["sample", "--corpus", workspace["corpus_path"],
                       "--checkpoint", workspace["checkpoint"],
                       "--seed", "0"]}[subcommand]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert "--out-dir" in capsys.readouterr().err
    assert blocker.read_text() == "a file\n"


def test_sample_outputs(workspace, tmp_path):
    rc = main(["sample", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--seed", "5",
               "--count", "25", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "samples.jsonl").read_text().splitlines()
    assert len(lines) == 25
    first = json.loads(lines[0])
    assert set(first) == {"atoms", "bonds", "logprob"}
    report = json.loads((tmp_path / "metrics.json").read_text())
    assert report["valence_validity"] == 1.0    # valence masking guarantee
    assert report["n_samples"] == 25
    assert 0.0 <= report["uniqueness"] <= 1.0
    sampler = report["sampler"]
    assert set(sampler) == {"draws", "early_stop_frac", "rejects_per_draw",
                            "requested_edges_mean", "realised_edges_mean"}
    assert sampler["draws"] == 25
    assert 0.0 <= sampler["early_stop_frac"] <= 1.0
    assert sampler["rejects_per_draw"] == 0.0  # no pair lacks a single bond
    bonds = sum(len(json.loads(ln)["bonds"]) for ln in lines) / 25
    assert sampler["realised_edges_mean"] == pytest.approx(bonds)
    assert sampler["realised_edges_mean"] <= sampler["requested_edges_mean"]
    if sampler["early_stop_frac"] == 0.0:
        assert sampler["realised_edges_mean"] == sampler["requested_edges_mean"]


def test_sample_with_a_highly_symmetric_corpus_molecule(workspace, tmp_path):
    corpus = [tetra_tert_butyl_methane(),
              MolecularGraph(("C", "C", "O"), ((0, 1, 1), (1, 2, 1)))]
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    rc = main(["sample", "--corpus", str(tmp_path / "corpus.jsonl"),
               "--checkpoint", workspace["checkpoint"], "--seed", "5",
               "--count", "25", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "metrics.json").read_text())
    # a certified valid sample is what makes the corpus get certified
    assert report["n_valid"] - report["n_uncertified"] >= 1


def test_sample_zero_count(workspace, tmp_path):
    rc = main(["sample", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--seed", "5",
               "--count", "0", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_sample_posterior_mode(workspace, tmp_path):
    rc = main(["sample", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--seed", "6",
               "--count", "8", "--mode", "posterior:1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "samples.jsonl").read_text().splitlines()
    n_ref = workspace["corpus"][1].n
    assert all(len(json.loads(ln)["atoms"]) == n_ref for ln in lines)

    for bad in ("posterior:99", "posterior:x", "weird"):
        rc = main(["sample", "--corpus", workspace["corpus_path"],
                   "--checkpoint", workspace["checkpoint"], "--seed", "6",
                   "--count", "2", "--mode", bad, "--out-dir", str(tmp_path)])
        assert rc == 2


@pytest.mark.parametrize("damage, field", [
    (lambda h: h["hyper"].update(bogus=1), "unknown hyperparameter 'bogus'"),
    (lambda h: h.update(tensors=h["tensors"][1:]), "missing tensor 'enc.hop1'"),
    (lambda h: h["hyper"].update(K=1), "unknown tensor 'enc.hop2'"),
])
def test_sample_damaged_checkpoint_header(workspace, tmp_path, capsys,
                                          damage, field):
    with open(workspace["checkpoint"], "rb") as fh:
        header_line, _, blob = fh.read().partition(b"\n")
    header = json.loads(header_line)
    damage(header)
    bad = tmp_path / "damaged.bin"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    rc = main(["sample", "--corpus", workspace["corpus_path"],
               "--checkpoint", str(bad), "--seed", "1", "--count", "2",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err


@pytest.mark.parametrize("subcommand", ["sample", "bo"])
def test_non_finite_checkpoint_weight_exits_2(workspace, tmp_path, capsys,
                                              subcommand):
    with open(workspace["checkpoint"], "rb") as fh:
        header_line, _, blob = fh.read().partition(b"\n")
    entry = next(e for e in json.loads(header_line)["tensors"]
                 if e["name"] == "dec.w_edge")
    blob = bytearray(blob)
    blob[entry["offset"]:entry["offset"] + 8] = np.float64(np.nan).tobytes()
    bad = tmp_path / "nan.bin"
    bad.write_bytes(header_line + b"\n" + bytes(blob))
    out = tmp_path / "out"
    assert main([subcommand, "--corpus", workspace["corpus_path"],
                 "--checkpoint", str(bad), "--seed", "1",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: tensor 'dec.w_edge' holds a non-finite value" in err
    assert not out.exists()


def test_interpolate_outputs(workspace, tmp_path):
    rc = main(["interpolate", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--mol-a", "0",
               "--mol-b", "3", "--steps", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    records = [json.loads(ln) for ln in
               (tmp_path / "interpolate.jsonl").read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1, 2, 3, 4]
    assert records[0]["weight"] == 1.0 and records[-1]["weight"] == 0.0
    assert len(list(tmp_path.glob("interp_*.dot"))) == 5


def test_interpolate_unequal_sizes(workspace, tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    mols = [random_molecule(np.random.default_rng(0), 5, DEFAULT_TABLE),
            random_molecule(np.random.default_rng(1), 7, DEFAULT_TABLE)]
    write_corpus(mols, mixed)
    rc = main(["interpolate", "--corpus", str(mixed),
               "--checkpoint", workspace["checkpoint"], "--mol-a", "0",
               "--mol-b", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "equal node counts" in capsys.readouterr().err


def test_perturb_outputs(workspace, tmp_path):
    rc = main(["perturb", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--mol", "2",
               "--node", "1", "--amplitudes", "0,0.5,1.0",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    records = [json.loads(ln) for ln in
               (tmp_path / "perturb.jsonl").read_text().splitlines()]
    assert [r["amplitude"] for r in records] == [0.0, 0.5, 1.0]
    assert len(list(tmp_path.glob("perturb_*.dot"))) == 3

    rc = main(["perturb", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--mol", "2",
               "--node", "99", "--out-dir", str(tmp_path)])
    assert rc == 2
    rc = main(["perturb", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--mol", "2",
               "--node", "1", "--amplitudes", "a,b",
               "--out-dir", str(tmp_path)])
    assert rc == 2


def test_synth_triangle_free(tmp_path):
    rc = main(["synth", "--experiment", "triangle_free", "--seed", "2",
               "--count", "6", "--nodes", "8", "--samples", "25",
               "--D", "4", "--K", "2", "--L", "5", "--iters", "5",
               "--batch-size", "6", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "synth_metrics.json").read_text())
    assert report["validity"] == 1.0       # the mask structurally guarantees it
    assert report["max_triangles"] == 0
    assert report["meta"]["mask"] == "triangle_free"
    assert (tmp_path / "synth_corpus.jsonl").is_file()
    assert (tmp_path / "synth_checkpoint.bin").is_file()


def test_synth_kronecker_ranking(tmp_path):
    rc = main(["synth", "--experiment", "kronecker", "--seed", "2",
               "--count", "12", "--D", "4", "--K", "2", "--L", "5",
               "--iters", "5", "--batch-size", "6",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "synth_metrics.json").read_text())
    assert -1.0 <= report["spearman_rho"] <= 1.0
    assert 0.0 <= report["precision_top"] <= 1.0
    assert 0.0 <= report["precision_bottom"] <= 1.0
    assert report["meta"]["mask"] == "none"


def test_synth_kronecker_nodes_set_the_power(tmp_path):
    # the largest power of two up to --nodes: 20 gives 16-node graphs
    rc = main(["synth", "--experiment", "kronecker", "--seed", "2",
               "--count", "10", "--nodes", "20", "--D", "4", "--K", "2",
               "--L", "5", "--iters", "2", "--batch-size", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert {g.n for g in parse_corpus(tmp_path / "synth_corpus.jsonl")} == {16}


def test_synth_ba_records_its_mask(tmp_path):
    rc = main(["synth", "--experiment", "ba", "--seed", "2", "--count", "10",
               "--nodes", "5", "--D", "4", "--K", "2", "--L", "5",
               "--iters", "2", "--batch-size", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "synth_metrics.json").read_text())
    assert report["meta"]["mask"] == "none"


def test_synth_perm_drift_curves(tmp_path):
    rc = main(["synth", "--experiment", "perm_drift", "--seed", "4",
               "--count", "4", "--nodes", "6", "--D", "4", "--K", "2",
               "--L", "5", "--iters", "4", "--batch-size", "4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "synth_metrics.json").read_text())
    curves = report["curves"]
    assert sorted(curves) == ["degree", "max_degree", "uniform"]
    for curve in curves.values():
        assert curve and all(pt["distance"] >= 0.0 for pt in curve)
    assert report["meta"]["mask"] == "valence"


def test_cli_import_leaves_scipy_unloaded():
    """Only ``bo`` needs SciPy; the other subcommands start without it."""
    src = str(Path(molvae.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, molvae.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _fresh_python(code, **env_update):
    """Standard output of ``code`` in a fresh interpreter that imports this
    source tree, with the BLAS thread variables unset but for
    ``env_update``."""
    src = str(Path(molvae.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(env_update)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True).stdout.split()


def test_cli_defaults_blas_to_one_thread():
    read = "import os, molvae.cli; print(*(os.environ[v] for v in %r))" % (
        BLAS_THREAD_VARS,)
    assert _fresh_python(read) == ["1", "1", "1"]
    assert _fresh_python(read, OPENBLAS_NUM_THREADS="2",
                         MKL_NUM_THREADS="3") == ["2", "1", "3"]
    # the defaults must be in place before numpy loads
    assert _fresh_python("import sys, molvae;"
                         " print('numpy' in sys.modules)") == ["False"]


def test_ranking_agreement_degenerate():
    scores = [float(v) for v in range(12, 0, -1)]
    rho, up, down = ranking_agreement(scores, list(scores))
    assert rho == pytest.approx(1.0)
    assert up == 1.0 and down == 1.0


def test_bo_outputs(workspace, tmp_path, monkeypatch):
    fits = []
    sgp_fit = latentopt.sgp_fit

    def counting_fit(*args, **kwargs):
        fits.append(args[2])
        return sgp_fit(*args, **kwargs)

    monkeypatch.setattr(latentopt, "sgp_fit", counting_fit)
    rc = main(["bo", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--seed", "4",
               "--iters", "2", "--batch-size", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(fits) == 2    # the held-out fit reuses iteration 0's GP
    trace = json.loads((tmp_path / "bo_trace.json").read_text())
    assert trace["fraction_valid"] == 1.0   # valence masking during decode
    assert {"held_out_loglik", "held_out_rmse"} <= set(trace["sgp"])
    assert [h["iteration"] for h in trace["history"]] == [0, 1]
    for h in trace["history"]:
        assert {"s2f", "lengthscale", "noise", "jitter", "max_ei"} <= set(h)
        assert h["ascent_picks"] + h["random_picks"] == h["proposed"] == 5
        assert h["ascent_picks"] >= 1
        assert not {"fit", "propose", "decode", "oracle"} & set(h)
    assert [s["iteration"] for s in trace["seconds"]] == [0, 1]
    for s in trace["seconds"]:
        assert all(s[k] >= 0.0 for k in ("fit", "propose", "decode", "oracle"))
    with open(tmp_path / "bo_scores.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "score", "n_atoms"]
    scores = [float(r[1]) for r in rows[1:]]
    assert scores == sorted(scores, reverse=True)
    mols = [json.loads(ln) for ln in
            (tmp_path / "bo_molecules.jsonl").read_text().splitlines()]
    assert len(mols) == len(scores)


def test_bo_held_out_fit_is_the_training_fit(workspace, tmp_path):
    """The held-out figures come from bo_loop's first GP, which is the fit
    of the training rows alone under the run seed."""
    rc = main(["bo", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--seed", "4",
               "--iters", "1", "--batch-size", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    sgp = json.loads((tmp_path / "bo_trace.json").read_text())["sgp"]
    model = load_checkpoint(workspace["checkpoint"]).model
    corpus = workspace["corpus"]
    x = np.array([molecule_embedding(posterior(g, model.encoder, model.table))
                  for g in corpus])
    y = np.array([proxy_property(g, lambda_n=model.lambda_n) for g in corpus])
    order = np.random.default_rng(4).permutation(len(corpus))
    test_ids, train_ids = order[:sgp["n_test"]], order[sgp["n_test"]:]
    fit = latentopt.sgp_fit(x[train_ids], y[train_ids], sgp["n_inducing"],
                            seed=4)
    mean, _ = latentopt.sgp_predict(fit, x[test_ids])
    rmse = float(np.sqrt(np.mean((mean - y[test_ids]) ** 2)))
    loglik = float(np.mean(latentopt.sgp_loglik(fit, x[test_ids],
                                                y[test_ids])))
    assert sgp["held_out_rmse"] == rmse
    assert sgp["held_out_loglik"] == loglik


def test_bo_on_identical_molecules(workspace, tmp_path):
    """A corpus of one molecule repeated gives the GP identical inputs and
    constant scores; the run still completes on some jitter rung."""
    corpus = tmp_path / "same.jsonl"
    write_corpus([MolecularGraph(("C", "C", "O"), ((0, 1, 1), (1, 2, 1)))] * 12,
                 corpus)
    out = tmp_path / "out"
    rc = main(["bo", "--corpus", str(corpus),
               "--checkpoint", workspace["checkpoint"], "--seed", "2",
               "--iters", "2", "--batch-size", "5", "--out-dir", str(out)])
    assert rc == 0
    trace = json.loads((out / "bo_trace.json").read_text())
    assert math.isfinite(trace["sgp"]["held_out_loglik"])
    assert math.isfinite(trace["sgp"]["held_out_rmse"])
    assert len(trace["history"]) == 2
    assert all(h["jitter"] in latentopt.JITTERS for h in trace["history"])


def test_bo_needs_an_iteration(workspace, tmp_path):
    rc = main(["bo", "--corpus", workspace["corpus_path"],
               "--checkpoint", workspace["checkpoint"], "--seed", "4",
               "--iters", "0", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_bo_tiny_corpus_rejected(workspace, tmp_path):
    small = tmp_path / "small.jsonl"
    write_corpus([random_molecule(np.random.default_rng(0), 5,
                                  DEFAULT_TABLE)], small)
    rc = main(["bo", "--corpus", str(small),
               "--checkpoint", workspace["checkpoint"], "--seed", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 2


ETHANOL = {"atoms": ["C", "C", "O"], "bonds": [[0, 1, 1], [1, 2, 1]]}
ATOMLESS = {"atoms": [], "bonds": []}
H_CHAIN = {"atoms": ["H", "H", "H"], "bonds": [[0, 1, 1], [1, 2, 1]]}
TRIANGLE = {"atoms": ["C", "C", "C"],
            "bonds": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]}
OVER_VALENCE = {"atoms": ["O", "C"], "bonds": [[0, 1, 3]]}


def _corpus_with(tmp_path, record):
    """A corpus whose line 2 is ``record``, between molecules every
    subcommand and mask accepts."""
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n"
                            for r in (ETHANOL, record, ETHANOL, ETHANOL)))
    return path


@pytest.mark.parametrize("subcommand, flags, record, reason", [
    ("train", ["--iters", "2"], ATOMLESS, "molecule has no atoms"),
    ("train", ["--iters", "2"], H_CHAIN,
     "molecule not allowed by the valence mask"),
    ("train", ["--iters", "2", "--mask", "triangle-free"], TRIANGLE,
     "molecule not allowed by the triangle_free mask"),
    ("bo", ["--iters", "2"], ATOMLESS, "molecule has no atoms"),
    ("bo", ["--iters", "2"], OVER_VALENCE,
     "molecule violates valence at atoms [0]"),
    ("sample", ["--mode", "posterior:1"], ATOMLESS, "molecule has no atoms"),
])
def test_corpus_molecule_the_subcommand_cannot_use_exits_2(
        workspace, tmp_path, capsys, subcommand, flags, record, reason):
    path = _corpus_with(tmp_path, record)
    out = tmp_path / "out"
    argv = [subcommand, "--corpus", str(path), "--seed", "0",
            "--out-dir", str(out), *flags]
    if subcommand != "train":
        argv += ["--checkpoint", workspace["checkpoint"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: corpus line 2: {reason}" in err
    assert not out.exists()


def _untrained_checkpoint(tmp_path, limits):
    """A checkpoint over the atom alphabet ``limits``, straight from
    ``init_model``."""
    table = ValenceTable(limits)
    hyper = Hyperparams(D=len(limits), K=2, L=5)
    model = init_model(np.random.default_rng(0), hyper, table, lambda_n=3.0)
    path = tmp_path / "alphabet.bin"
    save_checkpoint(path, Checkpoint(model, hyper, 0))
    return path


THIOL = {"atoms": ["C", "S", "H"], "bonds": [[0, 1, 1], [1, 2, 1]]}


@pytest.mark.parametrize("subcommand, flags", [
    ("sample", ["--count", "3", "--mode", "posterior:1"]),
    ("interpolate", ["--mol-a", "1", "--mol-b", "3", "--steps", "2"]),
    ("perturb", ["--mol", "1", "--node", "1"]),
    ("bo", ["--iters", "1"]),
])
def test_corpus_reads_under_the_checkpoint_alphabet(tmp_path, subcommand,
                                                    flags):
    ckpt = _untrained_checkpoint(
        tmp_path, {"C": 4, "H": 1, "N": 3, "O": 2, "S": 6})
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n"
                            for r in (ETHANOL, THIOL, ETHANOL, THIOL)))
    assert main([subcommand, "--corpus", str(path), "--checkpoint", str(ckpt),
                 "--seed", "0", "--out-dir", str(tmp_path / "out"),
                 *flags]) == 0


def test_corpus_atom_outside_the_checkpoint_alphabet_exits_2(tmp_path,
                                                              capsys):
    ckpt = _untrained_checkpoint(tmp_path, {"C": 4, "H": 1})
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"atoms": ["C", "N"], "bonds": [[0, 1, 1]]})
                    + "\n")
    out = tmp_path / "out"
    assert main(["sample", "--corpus", str(path), "--checkpoint", str(ckpt),
                 "--seed", "0", "--mode", "posterior:0",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: corpus line 1:" in err
    assert "unknown atom symbol 'N'" in err
    assert not out.exists()


def test_train_without_a_mask_accepts_what_the_valence_mask_rejects(
        tmp_path):
    path = _corpus_with(tmp_path, H_CHAIN)
    assert main(["train", "--corpus", str(path), "--seed", "0",
                 "--mask", "none", "--iters", "1", "--D", "4", "--K", "2",
                 "--out-dir", str(tmp_path / "out")]) == 0


def test_argparse_usage_errors(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])                       # --corpus and --seed missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", workspace["corpus_path"], "--seed", "0",
              "--mask", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:   # each experiment fixes its mask
        main(["synth", "--experiment", "ba", "--mask", "none"])
    assert exc.value.code == 2
    # out-of-range values exit 2 before any input is read or output written
    corpus, ckpt = workspace["corpus_path"], workspace["checkpoint"]
    bo = ["bo", "--corpus", corpus, "--checkpoint", ckpt, "--seed", "1"]
    for argv, flag in (
            (["train", "--corpus", corpus, "--seed", "0", "--iters", "0"],
             "--iters"),
            (["train", "--corpus", corpus, "--seed", "0", "--lr", "nan"],
             "--lr"),
            (["train", "--corpus", corpus, "--seed", "-1"], "--seed"),
            (["train", "--corpus", corpus, "--seed", "0", "--D", "3"], "--D"),
            (bo + ["--inducing", "0"], "--inducing"),
            (bo + ["--batch-size", "0"], "--batch-size"),
            (bo + ["--test-fraction", "nan"], "--test-fraction"),
            (bo + ["--test-fraction", "0"], "--test-fraction"),
            (["synth", "--experiment", "ba", "--nodes", "1"], "--nodes"),
            (["synth", "--experiment", "kronecker", "--nodes", "1"],
             "--nodes"),
            (["synth", "--experiment", "triangle_free", "--nodes", "3"],
             "--nodes"),
            (["synth", "--experiment", "triangle_free", "--samples", "0"],
             "--samples"),
            (["synth", "--experiment", "kronecker", "--count", "9"],
             "--count"),
            (["perturb", "--corpus", corpus, "--checkpoint", ckpt,
              "--mol", "0", "--node", "0", "--amplitudes", "0,nan"],
             "--amplitudes")):
        out = tmp_path / argv[0]
        assert main(argv + ["--out-dir", str(out)]) == 2, argv
        assert flag in capsys.readouterr().err
        assert not out.exists()
