"""Command-line surface tying the library into runnable workflows.

Subcommands: train, sample, interpolate, perturb, synth, bo.  Every
subcommand is deterministic given its inputs and --seed; outputs are plain
files under --out-dir (checkpoints, CSV logs, JSONL molecule sets, DOT
renderings, JSON metric reports).  Exit codes: 0 success, 1 runtime
failure, 2 usage or input error.

``main`` completes the argparse namespace once: the mask kind, the synth
defaults, the parsed ``--amplitudes`` and a ``Path`` for ``--out-dir``, then
range-checks every flag before any input is read.  Each ``cmd_*`` reads its
flags straight off that namespace.

BLAS runs on one thread unless the environment says otherwise: on a
machine with few cores, the small dense products of ``bo`` run many times
slower on more.  The defaults are set before numpy loads, so they hold for
the ``molvae`` command, not for a process that imported numpy first.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .decoder import sample_graph
from .encoder import posterior, sample_latent
from .latentopt import (EI_STARTS, bo_loop, make_molecule_decoder,
                        molecule_embedding, proxy_property, sgp_loglik,
                        sgp_predict)
from .masks import make_state
from .molgraph import (DEFAULT_TABLE, MolecularGraph, compute_metrics,
                       graph_to_obj, parse_corpus, random_molecule, to_dot,
                       valence_ok, valence_violations, write_corpus,
                       write_jsonl)
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
# per synth experiment: the mask it trains, samples and scores under; the
# smallest corpus size and max graph size (the ranked ones score top and
# bottom tenths, and generators draw from 6, 2 or 5 nodes up); the default
# corpus size and max graph size
SYNTH_EXPERIMENTS = {"triangle_free": ("triangle_free", (1, 6), (60, 12)),
                     "kronecker": ("none", (10, 2), (24, 8)),
                     "ba": ("none", (10, 2), (30, 16)),
                     "perm_drift": ("valence", (1, 5), (8, 8))}
KRONECKER_INITIATOR = ((0.9, 0.6), (0.3, 0.2))


class UsageError(Exception):
    """Bad invocation or unreadable input: exit code 2."""


# ---------------------------------------------------------------------------
# plumbing


def _require_file(path, what: str) -> Path:
    if path is None:
        raise UsageError(f"--{what} is required for this subcommand")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_corpus(args, table=None, check=None):
    """The --corpus molecules over ``table``'s alphabet; a record that does
    not parse, or that ``check`` rejects (see ``parse_corpus``), is a usage
    error."""
    path = _require_file(args.corpus, "corpus")
    try:
        graphs = parse_corpus(path, table, check)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if not graphs:
        raise UsageError(f"corpus is empty: {path}")
    return graphs


def _mask_admits(kind: str, g: MolecularGraph) -> None:
    """Raise ValueError unless every bond of ``g`` commits to a fresh
    ``kind`` mask state.  Training walks the bonds under that mask; under
    the built-in kinds the order of the commits does not change whether
    they all succeed."""
    state = make_state(kind, g.atom_types)
    try:
        for u, v, order in g.bonds:
            state.commit((u, v), order)
    except ValueError as err:
        raise ValueError(f"molecule not allowed by the {kind} mask: {err}") \
            from err


def _valence_admits(table, g: MolecularGraph) -> None:
    """Raise ValueError for a molecule over the valence of ``table``: its
    property score is undefined."""
    bad = [u for u, _ in valence_violations(g, table)]
    if bad:
        raise ValueError(f"molecule violates valence at atoms {bad}")


def _load_checkpoint(args) -> Checkpoint:
    path = _require_file(args.checkpoint, "checkpoint")
    try:
        return load_checkpoint(path)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _meta(args, **extra) -> dict:
    base = {"subcommand": args.subcommand, "seed": args.seed,
            "mask": args.mask_kind,
            "scale_note": "desk-scale defaults; see README for the full-size"
                          " experiment values"}
    base.update(extra)
    return base


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sample_many(model, count: int, seed: int, mask_kind: str, post=None):
    """Draw `count` molecules, each from its own child seed of `seed`: from
    the prior, or at latents drawn from the posterior `post`."""
    def draw(child):
        rng = np.random.default_rng(child)
        if post is None:
            return sample_graph(model.decoder, rng, lambda_n=model.lambda_n,
                                mask_kind=mask_kind, table=model.table)
        z = sample_latent(post.mu.data, post.sigma.data, rng)
        return sample_graph(model.decoder, rng, z=z, mask_kind=mask_kind,
                            table=model.table)

    return [draw(c) for c in np.random.SeedSequence(seed).spawn(count)]


def _sampler_record(traces) -> dict:
    """How often the masked sampler stopped early, and how many edges it was
    asked for against how many it placed.  It rejects no pair, so
    ``rejects_per_draw`` is 0.0, kept for the output format."""
    count = len(traces)
    return {
        "draws": count,
        "early_stop_frac": sum(tr.early_stopped for tr in traces) / count,
        "rejects_per_draw": 0.0,
        "requested_edges_mean": sum(tr.edge_count for tr in traces) / count,
        "realised_edges_mean": sum(len(tr.edges) for tr in traces) / count,
    }


def _hyper_from(args, **overrides) -> Hyperparams:
    fields = dict(D=args.D, K=args.K, L=args.L, lr=args.lr,
                  batch_size=args.batch_size, iterations=args.iters,
                  seed=args.seed, mask_kind=args.mask_kind)
    fields.update(overrides)
    try:
        return Hyperparams(**fields)
    except ValueError as err:
        raise UsageError(str(err)) from err


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    corpus = _load_corpus(args, check=partial(_mask_admits, args.mask_kind))
    hyper = _hyper_from(args)
    rows = []
    ckpt = train(corpus, hyper,
                 log_fn=lambda r: rows.append(
                     (r["iteration"], r["elbo"], r["seconds"])))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = args.out_dir / "checkpoint.bin"
    save_checkpoint(ckpt_path, ckpt)
    with open(args.out_dir / "elbo_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "elbo", "seconds"])
        writer.writerows(rows)
    _write_json(args.out_dir / "train_meta.json", _meta(
        args, corpus=str(args.corpus), n_molecules=len(corpus),
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


def cmd_sample(args) -> int:
    ckpt = _load_checkpoint(args)
    corpus = _load_corpus(args, ckpt.model.table)
    count = args.count
    mode, idx = _parse_mode(args.mode, len(corpus))
    model = ckpt.model
    post = (posterior(corpus[idx], model.encoder, model.table)
            if mode == "posterior" else None)
    draws = _sample_many(model, count, args.seed, args.mask_kind, post)
    samples = [g for g, _ in draws]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(args.out_dir / "samples.jsonl",
                ({**graph_to_obj(g), "logprob": tr.total_logprob}
                 for g, tr in draws))
    qm = compute_metrics(samples, corpus, model.table)
    valence_validity = sum(
        1 for g in samples if g.n >= 1 and valence_ok(g, model.table)) / count
    report = {**qm.as_dict(), "valence_validity": valence_validity,
              "sampler": _sampler_record([tr for _, tr in draws]),
              "meta": _meta(args, mode=args.mode, count=count)}
    _write_json(args.out_dir / "metrics.json", report)
    print(f"sampled {count} molecules ({mode}); valence validity"
          f" {valence_validity:.3f}, strict validity {qm.validity:.3f},"
          f" uniqueness {qm.uniqueness:.3f}, novelty {qm.novelty:.3f}")
    return 0


def _corpus_molecule(corpus, index: int, flag: str):
    if not 0 <= index < len(corpus):
        raise UsageError(f"{flag} outside corpus of {len(corpus)}")
    return corpus[index]


def _decode_and_write(args, model, rng, dot_prefix: str, column: str,
                      points, **meta) -> None:
    """Decode each (value, latent) point; write one DOT file and one JSON
    line per point, then the run's metadata."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for s, (value, z) in enumerate(points):
        g, _ = sample_graph(model.decoder, rng, z=z, mask_kind=args.mask_kind,
                            table=model.table)
        records.append({"step": s, column: value, **graph_to_obj(g)})
        (args.out_dir / f"{dot_prefix}_{s:03d}.dot").write_text(
            to_dot(g, name=f"{dot_prefix}_{s}"))
    write_jsonl(args.out_dir / f"{args.subcommand}.jsonl", records)
    _write_json(args.out_dir / f"{args.subcommand}_meta.json",
                _meta(args, **meta))


def cmd_interpolate(args) -> int:
    model = _load_checkpoint(args).model
    corpus = _load_corpus(args, model.table)
    ga = _corpus_molecule(corpus, args.mol_a, "--mol-a")
    gb = _corpus_molecule(corpus, args.mol_b, "--mol-b")
    if ga.n != gb.n:
        raise UsageError("endpoint molecules must have equal node counts"
                         f" (got {ga.n} and {gb.n})")
    rng = np.random.default_rng(args.seed)
    pa, pb = (posterior(g, model.encoder, model.table) for g in (ga, gb))
    za = sample_latent(pa.mu.data, pa.sigma.data, rng)
    zb = sample_latent(pb.mu.data, pb.sigma.data, rng)
    weights = np.linspace(1.0, 0.0, args.steps)
    _decode_and_write(args, model, rng, "interp", "weight",
                      [(float(a), a * za + (1.0 - a) * zb) for a in weights],
                      mol_a=args.mol_a, mol_b=args.mol_b, steps=args.steps)
    print(f"interpolated {args.steps} steps between molecules"
          f" {args.mol_a} and {args.mol_b}")
    return 0


def cmd_perturb(args) -> int:
    model = _load_checkpoint(args).model
    corpus = _load_corpus(args, model.table)
    g0 = _corpus_molecule(corpus, args.mol, "--mol")
    node = args.node
    if not 0 <= node < g0.n:
        raise UsageError(f"--node outside molecule of {g0.n} nodes")
    rng = np.random.default_rng(args.seed)
    post = posterior(g0, model.encoder, model.table)
    z0 = sample_latent(post.mu.data, post.sigma.data, rng)
    points = []
    for a in args.amplitudes:
        z = z0.copy()
        z[node] = z0[node] + a * z0[node]
        points.append((a, z))
    _decode_and_write(args, model, rng, "perturb", "amplitude", points,
                      mol=args.mol, node=node, amplitudes=args.amplitudes)
    print(f"perturbed node {node} of molecule {args.mol}"
          f" at {len(args.amplitudes)} amplitudes")
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


def ranking_agreement(true_scores, model_scores):
    """Spearman rho and top/bottom precision between two score lists over
    the same ids; ties broken by id for determinism."""
    ids = list(range(len(true_scores)))
    order_true = sorted(ids, key=lambda i: (-true_scores[i], i))
    order_model = sorted(ids, key=lambda i: (-model_scores[i], i))
    rho = spearman(order_true, order_model)
    up, down = precision_top_bottom(order_true, order_model)
    return rho, up, down


def _model_scores(graphs, ckpt: Checkpoint, seed: int):
    """Deterministic per-graph ELBO under the trained model, exact
    partition, under the mask it was trained with."""
    hyper = Hyperparams(
        D=ckpt.hyper.D, K=ckpt.hyper.K, L=ckpt.hyper.L, S=1,
        mask_kind=ckpt.hyper.mask_kind, partition="exact",
        source_kind=ckpt.hyper.source_kind, seed=seed)
    return [elbo(g, ckpt.model, hyper,
                 np.random.default_rng(seed + 31 * i)).item()
            for i, g in enumerate(graphs)]


def _synth_triangle_free(args) -> dict:
    rng = np.random.default_rng(args.seed)
    n_graphs = args.count
    corpus = [gen_triangle_free(rng, int(rng.integers(6, args.nodes + 1)))
              for _ in range(n_graphs)]
    hyper = _hyper_from(args, source_kind="uniform")
    ckpt = train(corpus, hyper)
    draws = _sample_many(ckpt.model, args.samples, args.seed + 1,
                         args.mask_kind)
    triangle_counts = [_count_triangles(g) for g, _ in draws]
    validity = sum(1 for c in triangle_counts if c == 0) / len(draws)
    write_corpus(corpus, args.out_dir / "synth_corpus.jsonl")
    save_checkpoint(args.out_dir / "synth_checkpoint.bin", ckpt)
    return {"experiment": "triangle_free", "validity": validity,
            "n_samples": len(draws), "max_triangles": max(triangle_counts),
            "n_corpus": n_graphs}


def _synth_ranked(args) -> dict:
    kind = args.experiment
    rng = np.random.default_rng(args.seed)
    n_graphs = args.count
    if kind == "kronecker":
        # the largest power of two nodes that --nodes allows
        k = args.nodes.bit_length() - 1
        spec = KroneckerSpec(KRONECKER_INITIATOR, k=k)
        graphs, true_ll = [], []
        while len(graphs) < n_graphs:
            g = gen_kronecker(spec, rng)
            if not g.bonds:
                continue  # empty graphs train poorly and rank arbitrarily
            graphs.append(g)
            true_ll.append(loglik_kronecker(g, spec))
    else:
        samples = [gen_ba(args.nodes, 1, rng) for _ in range(n_graphs)]
        graphs = [s.graph for s in samples]
        true_ll = [loglik_ba(s) for s in samples]
    hyper = _hyper_from(args, source_kind="uniform")
    ckpt = train(graphs, hyper)
    model_ll = _model_scores(graphs, ckpt, args.seed + 7)
    rho, up, down = ranking_agreement(true_ll, model_ll)
    write_corpus(graphs, args.out_dir / "synth_corpus.jsonl")
    save_checkpoint(args.out_dir / "synth_checkpoint.bin", ckpt)
    return {"experiment": kind, "spearman_rho": rho, "precision_top": up,
            "precision_bottom": down, "n_graphs": len(graphs)}


def _flat_params(model) -> np.ndarray:
    return np.concatenate([t.data.ravel().copy()
                           for _, t in model.tensors()])


def _synth_perm_drift(args) -> dict:
    rng = np.random.default_rng(args.seed)
    corpus = [random_molecule(rng, int(rng.integers(5, args.nodes + 1)),
                              DEFAULT_TABLE) for _ in range(args.count)]
    perm_rng = np.random.default_rng(args.seed + 999)
    relabeled = [g.relabel(list(perm_rng.permutation(g.n))) for g in corpus]
    stride = max(1, args.iters // 10)
    curves = {}
    for kind in SOURCE_KINDS:
        hyper = _hyper_from(args, source_kind=kind)
        snaps: dict[int, dict[str, np.ndarray]] = {"a": {}, "b": {}}

        def recorder(side):
            def log(rec):
                it = rec["iteration"]
                if it % stride == 0 or it == args.iters - 1:
                    snaps[side][it] = _flat_params(rec["model"])
            return log

        train(corpus, hyper, log_fn=recorder("a"))
        train(relabeled, hyper, log_fn=recorder("b"))
        curves[kind] = [
            {"iteration": it,
             "distance": float(np.linalg.norm(snaps["a"][it] - snaps["b"][it]))}
            for it in sorted(snaps["a"])]
    return {"experiment": "perm_drift", "curves": curves,
            "n_corpus": args.count}


def cmd_synth(args) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    experiment = args.experiment
    runner = {"triangle_free": _synth_triangle_free,
              "kronecker": _synth_ranked, "ba": _synth_ranked,
              "perm_drift": _synth_perm_drift}[experiment]
    report = runner(args)
    report["meta"] = _meta(args, iters=args.iters)
    _write_json(args.out_dir / "synth_metrics.json", report)
    keys = [k for k in ("validity", "spearman_rho") if k in report]
    shown = ", ".join(f"{k}={report[k]:.3f}" for k in keys) or "drift curves"
    print(f"synth {experiment}: {shown}")
    return 0


# ---------------------------------------------------------------------------
# Bayesian optimization


def cmd_bo(args) -> int:
    model = _load_checkpoint(args).model
    table = model.table
    corpus = _load_corpus(args, table, partial(_valence_admits, table))
    if len(corpus) < 3:
        raise UsageError("bo needs a corpus of at least 3 molecules")
    embeddings = np.array([
        molecule_embedding(posterior(g, model.encoder, table))
        for g in corpus])
    oracle = partial(proxy_property, lambda_n=model.lambda_n, table=table)
    scores = np.array([oracle(g) for g in corpus])

    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(corpus))
    n_test = max(1, int(round(args.test_fraction * len(corpus))))
    test_ids, train_ids = order[:n_test], order[n_test:]
    if len(train_ids) < 2:
        raise UsageError("corpus too small for the requested test fraction")
    x_tr, y_tr = embeddings[train_ids], scores[train_ids]
    x_te, y_te = embeddings[test_ids], scores[test_ids]

    n_inducing = min(args.inducing, len(x_tr))
    decode = make_molecule_decoder(
        model, [corpus[i] for i in train_ids], x_tr,
        np.random.default_rng(args.seed + 1), mask_kind=args.mask_kind)
    result = bo_loop(x_tr, y_tr, decode_fn=decode, oracle=oracle,
                     iters=args.iters, batch=args.batch_size,
                     seed=args.seed, n_inducing=n_inducing,
                     valid_fn=lambda g: g.n >= 1 and valence_ok(g, table))
    # the held-out fit is iteration 0's GP: the training rows, same seed
    mean_te, _ = sgp_predict(result.initial_model, x_te)
    rmse = float(np.sqrt(np.mean((mean_te - y_te) ** 2)))
    loglik = float(np.mean(sgp_loglik(result.initial_model, x_te, y_te)))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(args.out_dir / "bo_trace.json", {
        "history": result.history,
        "seconds": result.seconds,
        "fraction_valid": result.fraction_valid,
        "fraction_unique": result.fraction_unique,
        "oracle_calls": result.oracle_calls,
        "sgp": {"held_out_loglik": loglik, "held_out_rmse": rmse,
                "n_inducing": n_inducing, "n_train": len(train_ids),
                "n_test": n_test},
        "meta": _meta(args, iters=args.iters, batch=args.batch_size)})
    with open(args.out_dir / "bo_scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "score", "n_atoms"])
        for rank, (g, score) in enumerate(result.ranked):
            writer.writerow([rank, score, g.n])
    write_jsonl(args.out_dir / "bo_molecules.jsonl",
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

    def common(sp, *, seed_required: bool, mask: bool = True):
        sp.add_argument("--seed", type=int, required=seed_required,
                        default=None if seed_required else 0)
        sp.add_argument("--out-dir", default=".")
        if mask:
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

    sp = sub.add_parser("synth", help="synthetic-graph experiments, each"
                                      " under its own mask")
    common(sp, seed_required=False, mask=False)
    sp.add_argument("--experiment", required=True,
                    choices=list(SYNTH_EXPERIMENTS))
    sp.add_argument("--count", type=int, default=None,
                    help="corpus size (experiment-specific default)")
    sp.add_argument("--nodes", type=int, default=None,
                    help="max graph size (experiment-specific default);"
                         " kronecker graphs have the largest power of two"
                         " nodes up to it")
    sp.add_argument("--samples", type=int, default=200,
                    help="triangle_free: molecules drawn after training")
    hyper_flags(sp, iters_default=80)

    sp = sub.add_parser("bo", help="Bayesian optimization in latent space")
    common(sp, seed_required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--iters", type=int, default=5)
    sp.add_argument("--batch-size", type=int, default=50,
                    help="proposals decoded per iteration: at most"
                         f" {EI_STARTS} from EI ascents, the rest uniform"
                         " draws in the data's box widened by half its span")
    sp.add_argument("--inducing", type=int, default=100)
    sp.add_argument("--test-fraction", type=float, default=0.1)
    return parser


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
    if "test_fraction" in options and not 0.0 < options["test_fraction"] < 1.0:
        raise UsageError("--test-fraction must be in (0, 1),"
                         f" got {options['test_fraction']}")
    experiment = options.get("experiment")
    minimum = SYNTH_EXPERIMENTS[experiment][1] if experiment else ()
    for key, low in zip(("count", "nodes"), minimum):
        if options[key] < low:
            raise UsageError(f"--{key} must be >= {low} for {experiment},"
                             f" got {options[key]}")


def _complete_args(args: argparse.Namespace) -> None:
    """Fill in what the flags imply, then range-check them."""
    if args.subcommand == "synth":
        args.mask_kind, _, (count, nodes) = SYNTH_EXPERIMENTS[args.experiment]
        args.count = count if args.count is None else args.count
        args.nodes = nodes if args.nodes is None else args.nodes
    else:
        args.mask_kind = MASK_FLAGS[args.mask]
    if args.subcommand == "perturb":
        args.amplitudes = _parse_amplitudes(args.amplitudes)
    args.out_dir = out = Path(args.out_dir)
    # made later by mkdir(parents=True), which needs the nearest existing
    # ancestor to be a directory
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise UsageError(f"--out-dir {out}: {nearest} is not a directory")
    _check_flags(vars(args))


_DISPATCH = {"train": cmd_train, "sample": cmd_sample,
             "interpolate": cmd_interpolate, "perturb": cmd_perturb,
             "synth": cmd_synth, "bo": cmd_bo}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _complete_args(args)
        return _DISPATCH[args.subcommand](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # numeric failures, unwritable outputs, ...
        print(f"failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
