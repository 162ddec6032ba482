"""The four benchmark workloads.

Each workload is a closed loop in one process: a step starts when the
previous one ends.  A workload calls the same library functions the CLI
subcommand calls, always through the module attribute (``training.train``,
``decoder.sample_graph``, ...) so that the traced run can wrap them.

A loop runs under a Budget: either until a number of seconds has passed or
for a fixed number of steps.  Steps are what the per-item latency is taken
over; items (the unit of work) are what throughput counts.  Between steps
the loop runs its Clock's calibration kernel, which the step times and the
loop time leave out.

Every workload returns per-step outputs.  The warm-up pass and the timed
pass compute the same leading steps from the same inputs, and the runner
requires their outputs to be identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from molvae import decoder, encoder, latentopt, molgraph, training

from clock import Clock
from inputs import (FIXTURE_HYPER, load_fixture, molecules_of_sizes,
                    random_corpus)


@dataclass
class Budget:
    """Run until ``seconds`` have passed, or for exactly ``steps`` steps."""

    seconds: float | None = None
    steps: int | None = None

    def __post_init__(self):
        if (self.seconds is None) == (self.steps is None):
            raise ValueError("give exactly one of seconds and steps")

    def more(self, loop: "Loop") -> bool:
        if self.steps is not None:
            return loop.steps < self.steps
        return perf_counter() - loop.t0 < self.seconds


@dataclass
class Loop:
    """What one closed loop did: each step's start and end, its items and
    its output, plus failures (counted) and problems (failed checks)."""

    clock: Clock = field(default_factory=Clock)
    t0: float = field(default_factory=perf_counter)
    t_end: float = 0.0
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    step_items: list[int] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.clock.calibrate()

    def step(self, start: float, end: float, output, items: int = 1) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self.outputs.append(output)
        self.step_items.append(items)
        self.items += items

    def finish(self) -> "Loop":
        self.t_end = perf_counter()
        return self

    @property
    def steps(self) -> int:
        return len(self.ends)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def loop_s(self, normalized: bool) -> float:
        return float(self.clock.durations(self.t0, self.t_end,
                                          normalized)[0])

    def item_s(self, normalized: bool) -> np.ndarray:
        """Seconds per item, one value per step that completed items."""
        w = np.asarray(self.step_items)
        s = self.clock.durations(self.starts, self.ends, normalized)
        return s[w > 0] / w[w > 0]


class _Stop(Exception):
    """Raised from a callback to end a library loop at a step boundary."""


# ---------------------------------------------------------------------------
# train_small


class TrainSmall:
    """training.train on the acceptance-fixture config.

    Step: one training iteration (a batch of up to 16 graphs of one size).
    Item: one graph trained.
    """

    name = "train_small"
    warmup_steps = 10
    step_unit = "training iterations"
    item_unit = "graphs"

    def setup(self, seed: int):
        return {"corpus": random_corpus(seed),
                "hyper": replace(FIXTURE_HYPER, seed=seed)}

    def run(self, state, budget: Budget) -> Loop:
        out = Loop()
        iterations = budget.steps if budget.steps is not None else 10 ** 9
        hyper = replace(state["hyper"], iterations=iterations)
        last = [perf_counter()]

        def log(rec):
            out.step(last[0], perf_counter(), rec["elbo"], rec["batch_size"])
            out.attempted += 1
            if not math.isfinite(rec["elbo"]):
                out.problems.append(f"non-finite ELBO at iteration"
                                    f" {rec['iteration']}")
            out.clock.calibrate()
            last[0] = perf_counter()
            if not budget.more(out):
                raise _Stop

        try:
            training.train(state["corpus"], hyper, log_fn=log)
        except _Stop:
            pass
        except (FloatingPointError, ZeroDivisionError, ValueError) as exc:
            out.attempted += 1
            out.failures.append(f"training failed: {exc}")
        if out.outputs:
            out.extra["final_elbo"] = out.outputs[-1]
        return out.finish()


# ---------------------------------------------------------------------------
# score_large


SCORE_SIZES = tuple(range(32, 65, 2))


class ScoreLarge:
    """Untaped single-sample ELBO, exact partition, valence mask, S=1.

    The pool holds one held-out molecule of each even size from 32 to 64,
    so every seed scores the same size mix.  Passes over the pool repeat,
    and a timed loop ends only at the end of a pass.  Step and item: one
    graph scored.
    """

    name = "score_large"
    warmup_steps = 8
    step_unit = "graphs scored"
    item_unit = "graphs"

    def setup(self, seed: int):
        ckpt = load_fixture()
        hyper = replace(ckpt.hyper, S=1, mask_kind="valence",
                        partition="exact", seed=seed)
        return {"model": ckpt.model, "hyper": hyper, "seed": seed,
                "pool": molecules_of_sizes(seed, SCORE_SIZES)}

    def run(self, state, budget: Budget) -> Loop:
        out = Loop()
        pool, model, hyper = state["pool"], state["model"], state["hyper"]
        i = 0
        while budget.more(out) or (budget.seconds is not None
                                   and i % len(pool)):
            g = pool[i % len(pool)]
            rng = np.random.default_rng([state["seed"], i])
            out.attempted += 1
            start = perf_counter()
            try:
                value = training.elbo(g, model, hyper, rng).item()
            except (FloatingPointError, ZeroDivisionError, ValueError) as exc:
                out.failures.append(f"ELBO of pool graph {i % len(pool)}"
                                    f" failed: {exc}")
                value = None
            out.step(start, perf_counter(), value, 0 if value is None else 1)
            if value is not None and not math.isfinite(value):
                out.problems.append(f"non-finite ELBO for pool graph"
                                    f" {i % len(pool)}")
            out.clock.calibrate()
            i += 1
        return out.finish()


# ---------------------------------------------------------------------------
# sample_large


SAMPLE_LAMBDA = 32.0
SAMPLE_BATCH = 100


class SampleLarge:
    """Masked prior draws at lambda=32, each from its own SeedSequence
    child, scored in batches of up to 100 with compute_metrics against the
    corpus; the budget may end a batch early.  Step: one draw.  Item: one
    molecule drawn."""

    name = "sample_large"
    warmup_steps = 30
    step_unit = "draws"
    item_unit = "molecules"

    def setup(self, seed: int):
        ckpt = load_fixture()
        return {"model": ckpt.model, "corpus": random_corpus(seed),
                "seed": seed}

    def run(self, state, budget: Budget) -> Loop:
        out = Loop()
        model, corpus = state["model"], state["corpus"]
        invalid = 0
        quality = []
        while budget.more(out):
            batch = []
            for _ in range(SAMPLE_BATCH):
                if not budget.more(out):
                    break
                i = out.steps
                child = np.random.SeedSequence(state["seed"], spawn_key=(i,))
                rng = np.random.default_rng(child)
                out.attempted += 1
                start = perf_counter()
                try:
                    g, _ = decoder.sample_graph(
                        model.decoder, rng, lambda_n=SAMPLE_LAMBDA,
                        mask_kind="valence", table=model.table)
                except ValueError as exc:
                    out.failures.append(f"draw {i} failed: {exc}")
                    g = None
                out.step(start, perf_counter(),
                         None if g is None else (g.atom_types, g.bonds),
                         0 if g is None else 1)
                if g is not None:
                    batch.append(g)
                    if not molgraph.valence_ok(g, model.table):
                        invalid += 1
                out.clock.calibrate()
            out.attempted += 1
            try:
                qm = molgraph.compute_metrics(batch, corpus, model.table)
                quality.append(qm.as_dict())
            except ValueError as exc:
                out.failures.append(f"compute_metrics failed: {exc}")
        out.finish()
        if invalid:
            out.problems.append(f"{invalid} of {out.steps} draws violate"
                                " valence")
        out.extra["valence_validity"] = 1.0 - invalid / max(out.steps, 1)
        out.extra["quality"] = quality
        return out


# ---------------------------------------------------------------------------
# bo


BO_ITERS = 5
BO_BATCH = 50
BO_INDUCING = 100
BO_TEST_FRACTION = 0.1
BO_CALIBRATE_EVERY = 10  # decodes


class BO:
    """The ``molvae bo`` pipeline at its defaults on a 200-molecule corpus.

    posterior -> molecule_embedding for every molecule, a held-out sgp_fit,
    then bo_loop (5 iterations, batch 50, 100 inducing points) with
    make_molecule_decoder and proxy_property.  Pipeline p uses BO seed
    (seed, p); whole pipelines repeat until the budget ends.  Step and
    item: one BO iteration, which ends when its last decode or oracle call
    returns (the final iteration ends when bo_loop returns).  The clock
    calibrates every tenth decode.
    """

    name = "bo"
    warmup_steps = 1
    step_unit = "BO iterations"
    item_unit = "BO iterations"

    def setup(self, seed: int):
        ckpt = load_fixture()
        return {"model": ckpt.model, "corpus": random_corpus(seed),
                "seed": seed}

    def run(self, state, budget: Budget) -> Loop:
        out = Loop()
        p = 0
        valid = []
        while budget.more(out):
            iters = BO_ITERS if budget.steps is None \
                else min(BO_ITERS, budget.steps - out.steps)
            valid.append(self._pipeline(state, p, iters, out))
            p += 1
        out.finish()
        out.extra["fraction_valid"] = min(valid) if valid else 0.0
        return out

    def _pipeline(self, state, p: int, iters: int, out: Loop) -> float:
        model, corpus = state["model"], state["corpus"]
        bo_seed = int(np.random.SeedSequence([state["seed"], p])
                      .generate_state(1)[0])
        emb = np.array([latentopt.molecule_embedding(
            encoder.posterior(g, model.encoder, model.table)) for g in corpus])
        lam = model.lambda_n

        def oracle(g):
            return latentopt.proxy_property(g, lambda_n=lam)

        scores = np.array([oracle(g) for g in corpus])
        rng = np.random.default_rng(bo_seed)
        order = rng.permutation(len(corpus))
        n_test = max(1, int(round(BO_TEST_FRACTION * len(corpus))))
        test_ids, train_ids = order[:n_test], order[n_test:]
        x_tr, y_tr = emb[train_ids], scores[train_ids]
        x_te, y_te = emb[test_ids], scores[test_ids]
        n_inducing = min(BO_INDUCING, len(x_tr))
        sgp = latentopt.sgp_fit(x_tr, y_tr, n_inducing, seed=bo_seed)
        mean_te, _ = latentopt.sgp_predict(sgp, x_te)
        rmse = float(np.sqrt(np.mean((mean_te - y_te) ** 2)))
        loglik = float(np.mean(latentopt.sgp_loglik(sgp, x_te, y_te)))
        if not (math.isfinite(rmse) and math.isfinite(loglik)):
            out.problems.append(f"pipeline {p}: non-finite held-out fit")

        inner = latentopt.make_molecule_decoder(
            model, [corpus[i] for i in train_ids], x_tr,
            np.random.default_rng(bo_seed + 1), mask_kind="valence")
        ends = [0.0] * (iters + 1)
        decoded: list[list] = [[] for _ in range(iters)]
        calls = [0]

        def decode(v):
            k = calls[0] // BO_BATCH
            calls[0] += 1
            g = inner(v)
            out.attempted += 1
            if g is None:
                out.failures.append(f"pipeline {p}: decode returned None")
                decoded[k].append(None)
            else:
                decoded[k].append((g.atom_types, g.bonds))
            ends[k + 1] = perf_counter()
            if calls[0] % BO_CALIBRATE_EVERY == 0:
                out.clock.calibrate()
            return g

        def scored_oracle(g):
            score = oracle(g)
            ends[(calls[0] - 1) // BO_BATCH + 1] = perf_counter()
            return score

        ends[0] = perf_counter()
        result = latentopt.bo_loop(x_tr, y_tr, decode_fn=decode,
                                   oracle=scored_oracle, iters=iters,
                                   batch=BO_BATCH, seed=bo_seed,
                                   n_inducing=n_inducing)
        ends[-1] = perf_counter()
        for k in range(iters):
            out.step(ends[k], ends[k + 1],
                     (result.history[k], (rmse, loglik) if k == 0 else None,
                      decoded[k]))
        if result.fraction_valid != 1.0:
            out.problems.append(f"pipeline {p}: valence validity of BO"
                                f" decodes {result.fraction_valid}")
        out.extra.setdefault("ranked", []).append(
            [(g.atom_types, g.bonds, s) for g, s in result.ranked])
        return result.fraction_valid


WORKLOADS = {w.name: w for w in (TrainSmall(), ScoreLarge(), SampleLarge(),
                                 BO())}
