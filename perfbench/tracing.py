"""Span tracing around the library's public functions, from outside src/.

A Tracer swaps each traced function for a wrapper at the name its caller
resolves (a module global such as ``molvae.training.graph_logprob``, or a
class attribute such as ``MaskState.candidates``), records one span per
call, and puts every original back on exit.  Nothing is patched while
tracing is off, so untraced runs execute the library unchanged.

Spans (name, start, end, parent) stay in memory until the run ends.  A
span's self time is its duration minus the part of it that its child spans
cover.  Calls are strictly nested in one thread, so the self times of all
spans, the root included, add up to the root's duration.
"""

from __future__ import annotations

import functools
import gzip
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from molvae import decoder, encoder, latentopt, masks, molgraph, tensor, training

import clock

ROOT = "bench.run"
LOGPROB = "decoder.graph_logprob"
PARTITIONS = ("exact", "negative_sampled")
SIZE_BANDS = ((1, 16, "n1-16"), (17, 32, "n17-32"), (33, 48, "n33-48"),
              (49, None, "n49up"))

# (owner, attribute, span name): every place a caller resolves a traced name.
TARGETS = (
    (tensor.Tape, "gradients", "tensor.gradients"),
    (tensor, "adam_step", "tensor.adam_step"),
    (encoder, "posterior", "encoder.posterior"),
    (training, "posterior", "encoder.posterior"),
    (latentopt, "posterior", "encoder.posterior"),
    (training, "graph_logprob", LOGPROB),
    (decoder, "sample_graph", "decoder.sample_graph"),
    (latentopt, "sample_graph", "decoder.sample_graph"),
    (masks.MaskState, "candidates", "masks.candidates"),
    (masks.MaskState, "commit", "masks.commit"),
    (masks.MaskState, "reject", "masks.reject"),
    (masks.MaskState, "sample_candidates", "masks.sample_candidates"),
    (masks.MaskState, "candidate_count", "masks.candidate_count"),
    (training, "train", "training.train"),
    (training, "elbo", "training.elbo"),
    (training, "bfs_edge_order", "training.bfs_edge_order"),
    (molgraph, "canonical_certificate", "molgraph.canonical_certificate"),
    (latentopt, "canonical_certificate", "molgraph.canonical_certificate"),
    (molgraph, "compute_metrics", "molgraph.compute_metrics"),
    (latentopt, "bo_loop", "latentopt.bo_loop"),
    (latentopt, "sgp_fit", "latentopt.sgp_fit"),
    (latentopt, "sgp_predict", "latentopt.sgp_predict"),
    (latentopt, "proxy_property", "latentopt.proxy_property"),
    (clock.Clock, "calibrate", "bench.calibrate"),
)


def size_band(n: int) -> str:
    for lo, hi, label in SIZE_BANDS:
        if n >= lo and (hi is None or n <= hi):
            return label
    raise ValueError(f"no size band for n={n}")


def logprob_buckets() -> list[str]:
    return [f"{LOGPROB}.{p}.{label}" for p in PARTITIONS
            for _, _, label in SIZE_BANDS]


def span_names() -> list[str]:
    """Every span the traced run reports, in report order."""
    names = []
    for _, _, name in TARGETS:
        if name not in names:
            names.append(name)
        if name == LOGPROB:
            names.extend(logprob_buckets())
    return names


class Tracer:
    """Records spans and counts while installed as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == LOGPROB:
                part = kwargs.get("partition", "exact")
                span_name = f"{LOGPROB}.{part}.{size_band(args[0].n)}"
            idx = self._open(span_name)
            try:
                out = fn(*args, **kwargs)
            except ValueError:
                if name == "molgraph.canonical_certificate":
                    self.counts["certificate_failures"] += 1
                raise
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counts, args, out)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Duration minus the part covered by child spans, clipped to the
        parent's interval."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=np.intp)
        if np.isnan(ends).any():
            raise RuntimeError("a span was never closed")
        has = parents >= 0
        p = parents[has]
        covered = np.clip(np.minimum(ends[has], ends[p])
                          - np.maximum(starts[has], starts[p]), 0.0, None)
        child_time = np.bincount(p, weights=covered, minlength=len(starts))
        return (ends - starts) - child_time

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id, name, start_s, end_s, parent id.
        Times are seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (name, s, e, par) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{name},{s - t0:.9f},{e - t0:.9f},{par}\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, self_s and p50_ms per reported span, plus the counts.

        The un-bucketed graph_logprob entry aggregates its size buckets.
        A span that never ran reports zero calls and zero times.
        """
        self_s = self.self_times()
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)
            if name.startswith(LOGPROB + "."):
                by_name[LOGPROB].append(i)
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            idx = np.asarray(by_name.get(name, []), dtype=np.intp)
            out[f"{name}.calls"] = (int(idx.size), "count")
            out[f"{name}.self_s"] = (float(self_s[idx].sum()), "s")
            out[f"{name}.p50_ms"] = (
                float(np.median(durations[idx]) * 1e3) if idx.size else 0.0,
                "ms")
        c = self.counts
        out["tensor.records_per_tape"] = (
            _ratio(c["tape_records"], c["tapes"]), "count/tape")
        out["masks.candidates_per_call"] = (
            _ratio(c["candidates_returned"], c["candidates_calls"]),
            "count/call")
        out["decoder.edge_steps"] = (_ratio(c["edge_steps"], c["draws"]),
                                     "count/draw")
        out["decoder.rejects"] = (_ratio(c["rejects"], c["draws"]),
                                  "count/draw")
        out["decoder.early_stop_frac"] = (
            _ratio(c["early_stops"], c["draws"]), "fraction")
        out["decoder.edges_per_requested"] = (
            _ratio(c["edges_realised"], c["edges_requested"]), "fraction")
        out["molgraph.certificate_failures"] = (
            int(c["certificate_failures"]), "count")
        return out


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def _observe_gradients(counts, args, out) -> None:
    counts["tapes"] += 1
    counts["tape_records"] += len(args[0])


def _observe_candidates(counts, args, out) -> None:
    counts["candidates_calls"] += 1
    counts["candidates_returned"] += len(out)


def _observe_draw(counts, args, out) -> None:
    trace = out[1]
    counts["draws"] += 1
    counts["edge_steps"] += sum(1 for kind, _, _ in trace.steps
                                if kind == "edge")
    counts["rejects"] += sum(1 for kind, _, _ in trace.steps
                             if kind == "reject")
    counts["early_stops"] += bool(trace.early_stopped)
    counts["edges_requested"] += trace.edge_count
    counts["edges_realised"] += len(trace.edges)


_OBSERVERS = {
    "tensor.gradients": _observe_gradients,
    "masks.candidates": _observe_candidates,
    "decoder.sample_graph": _observe_draw,
}
