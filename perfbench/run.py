"""molvae benchmark: one workload per call, metrics as JSON on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 20 --trace 0

Workloads: train_small, score_large, sample_large, bo (see workloads.py and
README.md).  Each call sets the workload up several times (the median is
``setup_s``), runs a warm-up pass, then a closed loop for ``--seconds``.
With ``--trace 1`` it then repeats the same steps with every layer's public
functions wrapped in spans and reports per-layer metrics instead of the
end-to-end ones.

Bounded times are normalized to a reference machine speed by the
calibration kernel in clock.py; the raw times are printed next to them and
stored with the run.

Output checks: every ELBO finite, valence validity exactly 1.0 for sampled
and BO-decoded molecules, the warm-up and timed passes (and the traced pass)
give identical outputs for the steps they share, and in a traced run the
self times of all spans add up to the root span.  Failed operations are
counted, never dropped.  A digest of the warm-up outputs is printed so two
runs of one commit can be compared.

The library is imported from ./src; BLAS is limited to one thread before
numpy loads.  Artifacts (environment, digests, step times, spans) go to
perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("train_small", "score_large", "sample_large", "bo")

# The end-to-end metrics under the names the roadmap uses for them.
NAMED = {
    "train_small": [("train_graphs_per_s", "throughput_per_s", 1.0,
                     "graphs/s")],
    "score_large": [("score_graphs_per_s", "throughput_per_s", 1.0,
                     "graphs/s")],
    "sample_large": [("sample_mols_per_s", "throughput_per_s", 1.0, "mol/s")],
    "bo": [("bo_iter_s", "item_ms_p50", 1e-3, "s")],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def _jsonable(obj):
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def output_digest(workload, warm) -> tuple[str, dict]:
    """SHA-256 over the warm-up outputs.  Sampled molecules enter as their
    canonical certificates; a refused certificate counts as a failure."""
    from molvae import molgraph

    record = {"outputs": warm.outputs, "extra": warm.extra}
    if workload.name == "sample_large":
        certs = []
        for out in warm.outputs:
            warm.attempted += 1
            try:
                certs.append(molgraph.canonical_certificate(
                    molgraph.MolecularGraph(*out)))
            except ValueError as exc:
                warm.failures.append(f"certificate refused: {exc}")
                certs.append(None)
        record["certificates"] = certs
    blob = json.dumps(_jsonable(record), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), record


def timed_setup(workload, seed: int):
    """Set the workload up SETUP_REPEATS times between calibrations;
    returns the last state and the raw and normalized set-up times."""
    from clock import Clock

    clock = Clock()
    spans = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        start = perf_counter()
        state = workload.setup(seed)
        spans.append((start, perf_counter()))
    clock.calibrate()
    a, b = zip(*spans)
    return (state, clock.durations(a, b, normalized=False),
            clock.durations(a, b, normalized=True))


def end_to_end(timed, setup_s, attempted, failed, normalized) -> dict:
    item_ms = timed.item_s(normalized) * 1e3
    return {
        "throughput_per_s": (timed.items / timed.loop_s(normalized), "1/s"),
        "item_ms_p50": (float(np.median(item_ms)), "ms"),
        "item_ms_p90": (float(np.percentile(item_ms, 90)), "ms"),
        "setup_s": (float(np.median(setup_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ops_ok_frac": (1.0 - failed / attempted, "fraction"),
    }


def traced_pass(workload, state, timed, problems):
    """Repeat the timed pass's steps under the tracer; per-layer metrics."""
    from tracing import ROOT, Tracer
    from workloads import Budget

    with Tracer() as tracer:
        traced = tracer.span(ROOT, workload.run, state,
                             Budget(steps=timed.steps))
    if traced.outputs != timed.outputs:
        problems.append("traced pass outputs differ from the untraced pass")
    metrics = tracer.layer_metrics()
    self_s = tracer.self_times()
    root = tracer.names.index(ROOT)
    root_s = tracer.ends[root] - tracer.starts[root]
    self_sum = float(self_s.sum())
    if abs(self_sum - root_s) > 1e-6 * root_s:
        problems.append(f"span self times sum to {self_sum} s, root span"
                        f" lasts {root_s} s")
    untraced_s = timed.loop_s(normalized=True)
    traced_s = traced.loop_s(normalized=True)
    metrics.update({
        "latentopt.fraction_valid": (
            float(traced.extra.get("fraction_valid", 0.0)), "fraction"),
        "bench.speed_factor": (float(np.median(traced.clock.factors())),
                               "ratio"),
        "trace.steps": (traced.steps, "count"),
        "trace.spans": (len(tracer.names), "count"),
        "trace.root_s": (root_s, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    })
    return metrics, tracer, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "molvae" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}/molvae; run from"
              " a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from clock import Clock
    from workloads import WORKLOADS, Budget

    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    Clock().calibrate()  # first call pays for cold code

    state, setup_raw, setup_norm = timed_setup(workload, args.seed)
    warm = workload.run(state, Budget(steps=workload.warmup_steps))
    timed = workload.run(state, Budget(seconds=args.seconds))
    digest, record = output_digest(workload, warm)
    problems = warm.problems + timed.problems
    if timed.steps == 0:
        problems.append("the timed pass completed no step")
    shared = min(warm.steps, timed.steps)
    if timed.outputs[:shared] != warm.outputs[:shared]:
        problems.append("timed pass outputs differ from the warm-up pass")
    loops = [warm, timed]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        metrics, tracer, traced = traced_pass(workload, state, timed,
                                              problems)
        loops.append(traced)
        tracer.write(OUT_DIR / f"{stem}_spans.csv.gz")

    attempted = max(sum(loop.attempted for loop in loops), 1)
    failed = sum(loop.failed for loop in loops)
    raw = end_to_end(timed, setup_raw, attempted, failed, normalized=False)
    if args.trace:
        metrics["ops_failed_frac"] = (failed / attempted, "fraction")
    else:
        metrics = end_to_end(timed, setup_norm, attempted, failed,
                             normalized=True)

    print(f"workload {args.workload} seed {args.seed}: {timed.steps}"
          f" {workload.step_unit}, {timed.items} {workload.item_unit} in"
          f" {timed.loop_s(normalized=False):.2f} s; median speed factor"
          f" {np.median(timed.clock.factors()):.3f}")
    for alias, key, scale, unit in NAMED[args.workload]:
        print(f"{alias} {raw[key][0] * scale:.6g} {unit} (raw)")
    if args.workload == "sample_large":
        # Unbounded: a 20 s run has only a few draws beyond its p99.
        p99 = float(np.percentile(timed.item_s(normalized=False), 99)) * 1e3
        print(f"sample_draw_ms_p99 {p99:.6g} ms (raw) over {timed.steps}"
              " draws")
    print(f"ops_failed_frac {failed / attempted:.6g} fraction")
    if "final_elbo" in timed.extra:
        print(f"final_elbo {timed.extra['final_elbo']!r} (recorded, not"
              " graded)")
    print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    for msg in (warm.failures + timed.failures)[:5]:
        print(f"failure: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "env": env, "digest": digest,
        "problems": problems, "attempted": attempted, "failed": failed,
        "failures": (warm.failures + timed.failures)[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                        raw.items()},
        "setup_raw_s": list(setup_raw), "setup_normalized_s": list(setup_norm),
        "step_start_s": [t - timed.t0 for t in timed.starts],
        "step_end_s": [t - timed.t0 for t in timed.ends],
        "step_items": timed.step_items,
        "speed_factors": timed.clock.factors().tolist(),
        "final_elbo": timed.extra.get("final_elbo"),
        "valence_validity": timed.extra.get("valence_validity"),
        "fraction_valid": timed.extra.get("fraction_valid"),
        "warmup_record": _jsonable(record),
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n")

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
