"""Run the benchmark over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile as a share of
the median, next to the metric's bound in BENCHMARK.json.

Run from the repository root, one benchmark process at a time:

    python3 perfbench/steadiness.py --workloads sample_large --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --save runs_a.json
    python3 perfbench/steadiness.py --compare runs_a.json runs_b.json

``--compare`` checks that the second set's median of every metric is no
worse than the first set's by more than the bound.  Every run's digest line
is kept, so repeating a seed also checks that two runs give identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited"
                           f" {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line for line in lines if line.startswith("digest "))
    return {"workload": workload, "seed": seed, "result": result,
            "digest": digest.split("sha256=")[1]}


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def report(runs: list[dict]) -> None:
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        bad = [r["seed"] for r in mine if not r["result"]["correct"]]
        print(f"{workload}: {len(mine)} runs, incorrect seeds {bad}")
        for m in SPEC["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            if len(vals) < 2:
                print(f"  {m['name']:18s} {vals}")
                continue
            med, sp = spread(vals)
            flag = "" if sp < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:18s} median {med:12.6g}  spread"
                  f" {sp:7.4f}  bound {m['bound']}{flag}")
        digests: dict[int, set] = {}
        for r in mine:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        unequal = [s for s, d in digests.items() if len(d) > 1]
        if unequal:
            print(f"  digests differ between runs of seeds {unequal}")


def compare(first: list[dict], second: list[dict]) -> bool:
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in first):
        for m in SPEC["end_to_end"]:
            meds = []
            for runs in (first, second):
                meds.append(statistics.median(
                    r["result"]["metrics"][m["name"]]["value"]
                    for r in runs if r["workload"] == workload))
            change = (meds[1] - meds[0]) / meds[0]
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"{workload:13s} {m['name']:18s} {meds[0]:12.6g} ->"
                  f" {meds[1]:12.6g}  {worse:+.4f} (bound {m['bound']})"
                  f" {verdict}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = p.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(f).read_text())
                         for f in args.compare)
        return 0 if compare(first, second) else 1
    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds_from(args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    report(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
