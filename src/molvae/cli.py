"""Command-line surface tying the library into runnable workflows.

Subcommands: train, sample, interpolate, perturb, synth, bo.  Every
subcommand is deterministic given its inputs and --seed; outputs are plain
files under --out-dir (checkpoints, CSV logs, JSONL molecule sets, DOT
renderings, JSON metric reports).  Exit codes: 0 success, 1 runtime
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decoder import sample_graph
from .encoder import posterior
from .molgraph import (DEFAULT_TABLE, MolecularGraph, compute_metrics,
                       graph_to_obj, parse_corpus, random_molecule, to_dot,
                       valence_ok, write_corpus)
from .synth import (KroneckerSpec, gen_ba, gen_kronecker, gen_triangle_free,
                    loglik_ba, loglik_kronecker, precision_top_bottom,
                    spearman)
from .training import (SOURCE_KINDS, Checkpoint, Hyperparams, elbo,
                       load_checkpoint, save_checkpoint, train)

MASK_FLAGS = {"none": "none", "valence": "valence",
              "triangle-free": "triangle_free"}
# smallest value of each integer flag; D must one-hot the atom alphabet
FLAG_MINIMUM = {"seed": 0, "count": 1, "steps": 1, "samples": 1, "iters": 1,
                "batch_size": 1, "inducing": 1, "K": 1, "L": 1,
                "D": len(DEFAULT_TABLE.symbols)}
# smallest corpus size and max graph size per synth experiment: the ranked
# ones score top and bottom tenths, and generators draw from 6 or 5 nodes up
SYNTH_MINIMUM = {"triangle_free": (1, 6), "kronecker": (10, 1), "ba": (10, 2),
                 "perm_drift": (1, 5)}
KRONECKER_INITIATOR = ((0.9, 0.6), (0.3, 0.2))


class UsageError(Exception):
    """Bad invocation or unreadable input: exit code 2."""


@dataclass
class RunConfig:
    """Everything a subcommand needs, validated up front."""

    subcommand: str
    out_dir: Path
    seed: int
    mask_kind: str
    corpus: Path | None = None
    checkpoint: Path | None = None
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plumbing


def _require_file(path, what: str) -> Path:
    if path is None:
        raise UsageError(f"--{what} is required for this subcommand")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_corpus(cfg: RunConfig):
    path = _require_file(cfg.corpus, "corpus")
    try:
        graphs = parse_corpus(path)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if not graphs:
        raise UsageError(f"corpus is empty: {path}")
    return graphs


def _load_checkpoint(cfg: RunConfig) -> Checkpoint:
    path = _require_file(cfg.checkpoint, "checkpoint")
    try:
        return load_checkpoint(path)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _meta(cfg: RunConfig, **extra) -> dict:
    base = {"subcommand": cfg.subcommand, "seed": cfg.seed,
            "mask": cfg.mask_kind,
            "scale_note": "desk-scale defaults; see README for the full-size"
                          " experiment values"}
    base.update(extra)
    return base


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _sample_many(model, count: int, seed: int, mask_kind: str, *,
                 z_for=None, n: int | None = None):
    """Draw `count` molecules, each from its own child seed of `seed`."""
    def draw(child):
        rng = np.random.default_rng(child)
        if z_for is not None:
            return sample_graph(model.decoder, rng, z=z_for(rng), n=n,
                                mask_kind=mask_kind, table=model.table)
        return sample_graph(model.decoder, rng, lambda_n=model.lambda_n,
                            mask_kind=mask_kind, table=model.table)

    return [draw(c) for c in np.random.SeedSequence(seed).spawn(count)]


def _sampler_record(traces) -> dict:
    """How often the masked sampler stopped early or rejected a pair, and
    how many edges it was asked for against how many it placed."""
    count = len(traces)
    return {
        "draws": count,
        "early_stop_frac": sum(tr.early_stopped for tr in traces) / count,
        "rejects_per_draw": sum(kind == "reject" for tr in traces
                                for kind, _, _ in tr.steps) / count,
        "requested_edges_mean": sum(tr.edge_count for tr in traces) / count,
        "realised_edges_mean": sum(len(tr.edges) for tr in traces) / count,
    }


def _hyper_from(cfg: RunConfig, **overrides) -> Hyperparams:
    opts = cfg.options
    fields = dict(D=opts["D"], K=opts["K"], L=opts["L"], lr=opts["lr"],
                  batch_size=opts["batch_size"], iterations=opts["iters"],
                  seed=cfg.seed, mask_kind=cfg.mask_kind)
    fields.update(overrides)
    try:
        return Hyperparams(**fields)
    except ValueError as err:
        raise UsageError(str(err)) from err


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(cfg: RunConfig) -> int:
    corpus = _load_corpus(cfg)
    hyper = _hyper_from(cfg)
    rows = []
    ckpt = train(corpus, hyper,
                 log_fn=lambda r: rows.append(
                     (r["iteration"], r["elbo"], r["seconds"])))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = cfg.out_dir / "checkpoint.bin"
    save_checkpoint(ckpt_path, ckpt)
    with open(cfg.out_dir / "elbo_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "elbo", "seconds"])
        writer.writerows(rows)
    _write_json(cfg.out_dir / "train_meta.json", _meta(
        cfg, corpus=str(cfg.corpus), n_molecules=len(corpus),
        lambda_n=ckpt.model.lambda_n, hyper=hyper.as_dict()))
    print(f"trained {hyper.iterations} iterations on {len(corpus)} molecules;"
          f" final ELBO {rows[-1][1]:.4f}; checkpoint {ckpt_path}")
    return 0


def _parse_mode(raw: str, n_corpus: int):
    if raw == "prior":
        return "prior", None
    if raw.startswith("posterior:"):
        try:
            idx = int(raw.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --mode {raw!r}; want posterior:<index>")
        if not 0 <= idx < n_corpus:
            raise UsageError(f"molecule index {idx} outside corpus"
                             f" of {n_corpus}")
        return "posterior", idx
    raise UsageError(f"bad --mode {raw!r}; want prior or posterior:<index>")


def cmd_sample(cfg: RunConfig) -> int:
    ckpt = _load_checkpoint(cfg)
    corpus = _load_corpus(cfg)
    count = cfg.options["count"]
    mode, idx = _parse_mode(cfg.options["mode"], len(corpus))
    model = ckpt.model
    if mode == "posterior":
        ref = corpus[idx]
        post = posterior(ref, model.encoder, model.table)
        mu, sigma = post.mu.data, post.sigma.data
        draws = _sample_many(
            model, count, cfg.seed, cfg.mask_kind, n=ref.n,
            z_for=lambda rng: mu + sigma * rng.standard_normal(mu.shape))
    else:
        draws = _sample_many(model, count, cfg.seed, cfg.mask_kind)
    samples = [g for g, _ in draws]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(cfg.out_dir / "samples.jsonl",
                 ({**graph_to_obj(g), "logprob": tr.total_logprob}
                  for g, tr in draws))
    qm = compute_metrics(samples, corpus, model.table)
    valence_validity = sum(
        1 for g in samples if g.n >= 1 and valence_ok(g, model.table)) / count
    report = {**qm.as_dict(), "valence_validity": valence_validity,
              "sampler": _sampler_record([tr for _, tr in draws]),
              "meta": _meta(cfg, mode=cfg.options["mode"], count=count)}
    _write_json(cfg.out_dir / "metrics.json", report)
    print(f"sampled {count} molecules ({mode}); valence validity"
          f" {valence_validity:.3f}, strict validity {qm.validity:.3f},"
          f" uniqueness {qm.uniqueness:.3f}, novelty {qm.novelty:.3f}")
    return 0


def _posterior_draw(g, model, rng):
    post = posterior(g, model.encoder, model.table)
    return post.mu.data + post.sigma.data * rng.standard_normal(
        post.mu.data.shape)


def cmd_interpolate(cfg: RunConfig) -> int:
    ckpt = _load_checkpoint(cfg)
    corpus = _load_corpus(cfg)
    model = ckpt.model
    steps = cfg.options["steps"]
    for key in ("mol_a", "mol_b"):
        if not 0 <= cfg.options[key] < len(corpus):
            raise UsageError(f"--{key.replace('_', '-')} outside corpus"
                             f" of {len(corpus)}")
    ga, gb = corpus[cfg.options["mol_a"]], corpus[cfg.options["mol_b"]]
    if ga.n != gb.n:
        raise UsageError("endpoint molecules must have equal node counts"
                         f" (got {ga.n} and {gb.n})")
    rng = np.random.default_rng(cfg.seed)
    za, zb = _posterior_draw(ga, model, rng), _posterior_draw(gb, model, rng)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    weights = np.linspace(1.0, 0.0, steps)
    for s, a in enumerate(weights):
        z = a * za + (1.0 - a) * zb
        g, _ = sample_graph(model.decoder, rng, z=z, n=ga.n,
                            mask_kind=cfg.mask_kind, table=model.table)
        records.append({"step": s, "weight": float(a), **graph_to_obj(g)})
        (cfg.out_dir / f"interp_{s:03d}.dot").write_text(
            to_dot(g, name=f"interp_{s}"))
    _write_jsonl(cfg.out_dir / "interpolate.jsonl", records)
    _write_json(cfg.out_dir / "interpolate_meta.json", _meta(
        cfg, mol_a=cfg.options["mol_a"], mol_b=cfg.options["mol_b"],
        steps=steps))
    print(f"interpolated {steps} steps between molecules"
          f" {cfg.options['mol_a']} and {cfg.options['mol_b']}")
    return 0


def cmd_perturb(cfg: RunConfig) -> int:
    ckpt = _load_checkpoint(cfg)
    corpus = _load_corpus(cfg)
    model = ckpt.model
    if not 0 <= cfg.options["mol"] < len(corpus):
        raise UsageError(f"--mol outside corpus of {len(corpus)}")
    g0 = corpus[cfg.options["mol"]]
    node = cfg.options["node"]
    if not 0 <= node < g0.n:
        raise UsageError(f"--node outside molecule of {g0.n} nodes")
    amplitudes = cfg.options["amplitudes"]
    rng = np.random.default_rng(cfg.seed)
    z0 = _posterior_draw(g0, model, rng)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for s, a in enumerate(amplitudes):
        z = z0.copy()
        z[node] = z0[node] + a * z0[node]
        g, _ = sample_graph(model.decoder, rng, z=z, n=g0.n,
                            mask_kind=cfg.mask_kind, table=model.table)
        records.append({"step": s, "amplitude": a, **graph_to_obj(g)})
        (cfg.out_dir / f"perturb_{s:03d}.dot").write_text(
            to_dot(g, name=f"perturb_{s}"))
    _write_jsonl(cfg.out_dir / "perturb.jsonl", records)
    _write_json(cfg.out_dir / "perturb_meta.json", _meta(
        cfg, mol=cfg.options["mol"], node=node, amplitudes=amplitudes))
    print(f"perturbed node {node} of molecule {cfg.options['mol']}"
          f" at {len(amplitudes)} amplitudes")
    return 0


# ---------------------------------------------------------------------------
# synthetic experiments


def _count_triangles(g: MolecularGraph) -> int:
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.bonds:
        adj[u].add(v)
        adj[v].add(u)
    return sum(1 for u, v, _ in g.bonds for w in adj[u] & adj[v]
               if w > v) if g.bonds else 0


def ranking_agreement(true_scores, model_scores, fraction: float = 0.1):
    """Spearman rho and top/bottom precision between two score lists over
    the same ids; ties broken by id for determinism."""
    ids = list(range(len(true_scores)))
    order_true = sorted(ids, key=lambda i: (-true_scores[i], i))
    order_model = sorted(ids, key=lambda i: (-model_scores[i], i))
    rho = spearman(order_true, order_model)
    up, down = precision_top_bottom(order_true, order_model, fraction)
    return rho, up, down


def _model_scores(graphs, ckpt: Checkpoint, seed: int):
    """Deterministic per-graph ELBO under the trained model (exact
    partition, no masking: synthetic graphs are not molecules)."""
    hyper = Hyperparams(
        D=ckpt.hyper.D, K=ckpt.hyper.K, L=ckpt.hyper.L, S=1,
        mask_kind="none", partition="exact",
        source_kind=ckpt.hyper.source_kind, seed=seed)
    return [elbo(g, ckpt.model, hyper,
                 np.random.default_rng(seed + 31 * i)).item()
            for i, g in enumerate(graphs)]


def _synth_triangle_free(cfg: RunConfig) -> dict:
    opts = cfg.options
    rng = np.random.default_rng(cfg.seed)
    n_graphs = opts["count"]
    corpus = [gen_triangle_free(rng, int(rng.integers(6, opts["nodes"] + 1)))
              for _ in range(n_graphs)]
    hyper = _hyper_from(cfg, mask_kind="triangle_free", source_kind="uniform")
    ckpt = train(corpus, hyper)
    draws = _sample_many(ckpt.model, opts["samples"], cfg.seed + 1,
                         "triangle_free")
    triangle_counts = [_count_triangles(g) for g, _ in draws]
    validity = sum(1 for c in triangle_counts if c == 0) / len(draws)
    write_corpus(corpus, cfg.out_dir / "synth_corpus.jsonl")
    save_checkpoint(cfg.out_dir / "synth_checkpoint.bin", ckpt)
    return {"experiment": "triangle_free", "validity": validity,
            "n_samples": len(draws), "max_triangles": max(triangle_counts),
            "n_corpus": n_graphs}


def _synth_ranked(cfg: RunConfig, kind: str) -> dict:
    opts = cfg.options
    rng = np.random.default_rng(cfg.seed)
    n_graphs = opts["count"]
    if kind == "kronecker":
        spec = KroneckerSpec(KRONECKER_INITIATOR, k=3)
        graphs, true_ll = [], []
        while len(graphs) < n_graphs:
            g = gen_kronecker(spec, rng)
            if not g.bonds:
                continue  # empty graphs train poorly and rank arbitrarily
            graphs.append(g)
            true_ll.append(loglik_kronecker(g, spec))
    else:
        samples = [gen_ba(opts["nodes"], 1, rng) for _ in range(n_graphs)]
        graphs = [s.graph for s in samples]
        true_ll = [loglik_ba(s) for s in samples]
    hyper = _hyper_from(cfg, mask_kind="none", source_kind="uniform")
    ckpt = train(graphs, hyper)
    model_ll = _model_scores(graphs, ckpt, cfg.seed + 7)
    rho, up, down = ranking_agreement(true_ll, model_ll)
    write_corpus(graphs, cfg.out_dir / "synth_corpus.jsonl")
    save_checkpoint(cfg.out_dir / "synth_checkpoint.bin", ckpt)
    return {"experiment": kind, "spearman_rho": rho, "precision_top": up,
            "precision_bottom": down, "n_graphs": len(graphs)}


def _flat_params(model) -> np.ndarray:
    return np.concatenate([t.data.ravel().copy()
                           for _, t in model.tensors()])


def _synth_perm_drift(cfg: RunConfig) -> dict:
    opts = cfg.options
    rng = np.random.default_rng(cfg.seed)
    corpus = [random_molecule(rng, int(rng.integers(5, opts["nodes"] + 1)),
                              DEFAULT_TABLE) for _ in range(opts["count"])]
    perm_rng = np.random.default_rng(cfg.seed + 999)
    relabeled = [g.relabel(list(perm_rng.permutation(g.n))) for g in corpus]
    stride = max(1, opts["iters"] // 10)
    curves = {}
    for kind in SOURCE_KINDS:
        hyper = _hyper_from(cfg, mask_kind="valence", source_kind=kind)
        snaps: dict[int, dict[str, np.ndarray]] = {"a": {}, "b": {}}

        def recorder(side):
            def log(rec):
                it = rec["iteration"]
                if it % stride == 0 or it == opts["iters"] - 1:
                    snaps[side][it] = _flat_params(rec["model"])
            return log

        train(corpus, hyper, log_fn=recorder("a"))
        train(relabeled, hyper, log_fn=recorder("b"))
        curves[kind] = [
            {"iteration": it,
             "distance": float(np.linalg.norm(snaps["a"][it] - snaps["b"][it]))}
            for it in sorted(snaps["a"])]
    return {"experiment": "perm_drift", "curves": curves,
            "n_corpus": opts["count"]}


def cmd_synth(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    experiment = cfg.options["experiment"]
    runner = {"triangle_free": _synth_triangle_free,
              "kronecker": lambda c: _synth_ranked(c, "kronecker"),
              "ba": lambda c: _synth_ranked(c, "ba"),
              "perm_drift": _synth_perm_drift}[experiment]
    report = runner(cfg)
    report["meta"] = _meta(cfg, iters=cfg.options["iters"])
    _write_json(cfg.out_dir / "synth_metrics.json", report)
    keys = [k for k in ("validity", "spearman_rho") if k in report]
    shown = ", ".join(f"{k}={report[k]:.3f}" for k in keys) or "drift curves"
    print(f"synth {experiment}: {shown}")
    return 0


# ---------------------------------------------------------------------------
# Bayesian optimization


def cmd_bo(cfg: RunConfig) -> int:
    # imported here so the other subcommands start without SciPy
    from .latentopt import (PropertyOracle, bo_loop, make_molecule_decoder,
                            molecule_embedding, proxy_property, sgp_loglik,
                            sgp_predict)

    ckpt = _load_checkpoint(cfg)
    corpus = _load_corpus(cfg)
    if len(corpus) < 3:
        raise UsageError("bo needs a corpus of at least 3 molecules")
    model = ckpt.model
    opts = cfg.options
    embeddings = np.array([
        molecule_embedding(posterior(g, model.encoder, model.table))
        for g in corpus])
    oracle = PropertyOracle(
        "proxy", lambda g: proxy_property(g, lambda_n=model.lambda_n))
    scores = np.array([oracle(g) for g in corpus])

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(corpus))
    n_test = max(1, int(round(opts["test_fraction"] * len(corpus))))
    test_ids, train_ids = order[:n_test], order[n_test:]
    if len(train_ids) < 2:
        raise UsageError("corpus too small for the requested test fraction")
    x_tr, y_tr = embeddings[train_ids], scores[train_ids]
    x_te, y_te = embeddings[test_ids], scores[test_ids]

    n_inducing = min(opts["inducing"], len(x_tr))
    decode = make_molecule_decoder(
        model, [corpus[i] for i in train_ids], x_tr,
        np.random.default_rng(cfg.seed + 1), mask_kind=cfg.mask_kind)
    result = bo_loop(x_tr, y_tr, decode_fn=decode, oracle=oracle,
                     iters=opts["iters"], batch=opts["batch_size"],
                     seed=cfg.seed, n_inducing=n_inducing)
    # the held-out fit is iteration 0's GP: the training rows, same seed
    mean_te, _ = sgp_predict(result.initial_model, x_te)
    rmse = float(np.sqrt(np.mean((mean_te - y_te) ** 2)))
    loglik = float(np.mean(sgp_loglik(result.initial_model, x_te, y_te)))

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "bo_trace.json", {
        "history": result.history,
        "seconds": result.seconds,
        "fraction_valid": result.fraction_valid,
        "fraction_unique": result.fraction_unique,
        "oracle_calls": result.oracle_calls,
        "sgp": {"held_out_loglik": loglik, "held_out_rmse": rmse,
                "n_inducing": n_inducing, "n_train": len(train_ids),
                "n_test": n_test},
        "meta": _meta(cfg, iters=opts["iters"], batch=opts["batch_size"])})
    with open(cfg.out_dir / "bo_scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "score", "n_atoms"])
        for rank, (g, score) in enumerate(result.ranked):
            writer.writerow([rank, score, g.n])
    _write_jsonl(cfg.out_dir / "bo_molecules.jsonl",
                 ({**graph_to_obj(g), "score": score}
                  for g, score in result.ranked))
    print(f"bo: {len(result.ranked)} unique molecules,"
          f" fraction valid {result.fraction_valid:.2f},"
          f" SGP held-out RMSE {rmse:.3f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molvae",
        description="Variational autoencoder for molecular graphs:"
                    " train, sample, explore the latent space, run"
                    " synthetic-graph experiments, optimize properties.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, *, seed_required: bool):
        sp.add_argument("--seed", type=int, required=seed_required,
                        default=None if seed_required else 0)
        sp.add_argument("--out-dir", default=".")
        sp.add_argument("--mask", choices=sorted(MASK_FLAGS),
                        default="valence")

    def hyper_flags(sp, iters_default: int):
        sp.add_argument("--D", type=int, default=5)
        sp.add_argument("--K", type=int, default=5)
        sp.add_argument("--L", type=int, default=10)
        sp.add_argument("--lr", type=float, default=0.005)
        sp.add_argument("--iters", type=int, default=iters_default)
        sp.add_argument("--batch-size", type=int, default=32)

    sp = sub.add_parser("train", help="fit a model on a molecule corpus")
    common(sp, seed_required=True)
    sp.add_argument("--corpus", required=True)
    hyper_flags(sp, iters_default=500)

    sp = sub.add_parser("sample", help="draw molecules from a checkpoint")
    common(sp, seed_required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--mode", default="prior",
                    help="prior | posterior:<corpus index>")

    sp = sub.add_parser("interpolate",
                        help="decode latents blended between two molecules")
    common(sp, seed_required=False)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mol-a", type=int, required=True)
    sp.add_argument("--mol-b", type=int, required=True)
    sp.add_argument("--steps", type=int, default=5)

    sp = sub.add_parser("perturb",
                        help="decode latents with one node's latent scaled")
    common(sp, seed_required=False)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mol", type=int, required=True)
    sp.add_argument("--node", type=int, required=True)
    sp.add_argument("--amplitudes", default="0,0.25,0.5,1.0")

    sp = sub.add_parser("synth", help="synthetic-graph experiments")
    common(sp, seed_required=False)
    sp.add_argument("--experiment", required=True,
                    choices=["triangle_free", "kronecker", "ba",
                             "perm_drift"])
    sp.add_argument("--count", type=int, default=None,
                    help="corpus size (experiment-specific default)")
    sp.add_argument("--nodes", type=int, default=None,
                    help="max graph size (experiment-specific default)")
    sp.add_argument("--samples", type=int, default=200,
                    help="triangle_free: molecules drawn after training")
    hyper_flags(sp, iters_default=80)

    sp = sub.add_parser("bo", help="Bayesian optimization in latent space")
    common(sp, seed_required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--iters", type=int, default=5)
    sp.add_argument("--batch-size", type=int, default=50)
    sp.add_argument("--inducing", type=int, default=100)
    sp.add_argument("--test-fraction", type=float, default=0.1)
    return parser


_SYNTH_DEFAULTS = {  # corpus size, max nodes
    "triangle_free": (60, 12),
    "kronecker": (24, 8),
    "ba": (30, 16),
    "perm_drift": (8, 8),
}


def _parse_amplitudes(raw: str) -> list[float]:
    try:
        amplitudes = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --amplitudes {raw!r}")
    if not amplitudes:
        raise UsageError("--amplitudes needs at least one value")
    if not all(map(math.isfinite, amplitudes)):
        raise UsageError(f"--amplitudes must be finite, got {raw!r}")
    return amplitudes


def _check_flags(options: dict) -> None:
    """Reject out-of-range flags before any input is read."""
    for key, low in FLAG_MINIMUM.items():
        if options.get(key) is not None and options[key] < low:
            raise UsageError(f"--{key.replace('_', '-')} must be >= {low},"
                             f" got {options[key]}")
    if "lr" in options and not (math.isfinite(options["lr"])
                                and options["lr"] > 0):
        raise UsageError(f"--lr must be finite and positive, got {options['lr']}")
    if "test_fraction" in options and not 0.0 <= options["test_fraction"] < 1.0:
        raise UsageError("--test-fraction must be in [0, 1),"
                         f" got {options['test_fraction']}")
    experiment = options.get("experiment")
    for key, low in zip(("count", "nodes"), SYNTH_MINIMUM.get(experiment, ())):
        if options[key] < low:
            raise UsageError(f"--{key} must be >= {low} for {experiment},"
                             f" got {options[key]}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {k: v for k, v in vars(args).items()
               if k not in ("subcommand", "seed", "out_dir", "mask",
                            "corpus", "checkpoint")}
    if args.subcommand == "synth":
        count_default, nodes_default = _SYNTH_DEFAULTS[args.experiment]
        if options.get("count") is None:
            options["count"] = count_default
        if options.get("nodes") is None:
            options["nodes"] = nodes_default
    if args.subcommand == "perturb":
        options["amplitudes"] = _parse_amplitudes(options["amplitudes"])
    _check_flags({**options, "seed": args.seed})
    return RunConfig(
        subcommand=args.subcommand,
        out_dir=Path(args.out_dir),
        seed=args.seed,
        mask_kind=MASK_FLAGS[args.mask],
        corpus=getattr(args, "corpus", None),
        checkpoint=getattr(args, "checkpoint", None),
        options=options,
    )


_DISPATCH = {"train": cmd_train, "sample": cmd_sample,
             "interpolate": cmd_interpolate, "perturb": cmd_perturb,
             "synth": cmd_synth, "bo": cmd_bo}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.subcommand](cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # numeric failures, unwritable outputs, ...
        print(f"failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
