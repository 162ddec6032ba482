"""ELBO objective, BFS edge orderings, and the optimization loop.

The objective for one graph is the reconstruction term under a sampled edge
generation order, minus the closed-form Gaussian KL, plus the log-pmf of the
node count under the sampler's zero-truncated Poisson law.  Edge orders come
from breadth-first traversals with uniformly random tie-breaking, rooted at a
node drawn from a configurable source distribution.  Training groups graphs
by node count, evaluates each batch as one stacked pass on one tape,
ascends the mean batch ELBO with Adam, and snapshots everything into a
self-describing checkpoint file.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .decoder import (DecoderParams, graph_logprob, init_decoder,
                      node_count_logpmf, plan_edges)
from .encoder import EncoderParams, init_encoder, posterior
from .masks import MASK_KINDS
from .molgraph import (DEFAULT_TABLE, GraphBatch, MolecularGraph, ValenceTable,
                       is_integer)

SOURCE_KINDS = ("uniform", "degree", "max_degree")
PARTITION_MODES = ("exact", "negative_sampled")
LAMBDA_FLOOR = 1e-6  # node-count rate fitted to a corpus of one-atom graphs


def _finite_positive(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and 0 < x <= sys.float_info.max)


@dataclass
class Hyperparams:
    """Everything that shapes one training run."""

    D: int = 5
    K: int = 5
    L: int = 10
    lr: float = 0.005
    S: int = 1
    batch_size: int = 32
    iterations: int = 500
    seed: int = 0
    mask_kind: str = "valence"
    source_kind: str = "uniform"
    partition: str = "negative_sampled"

    def __post_init__(self):
        for name in ("D", "K", "L", "S", "batch_size", "iterations", "seed"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not _finite_positive(self.lr):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.D < 1 or self.K < 1 or self.L < 1 or self.S < 1:
            raise ValueError("D, K, L, S must all be >= 1")
        if self.batch_size < 1 or self.iterations < 0:
            raise ValueError("batch_size must be >= 1 and iterations >= 0")
        if self.mask_kind not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.mask_kind!r}")
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.source_kind!r}")
        if self.partition not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.partition!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ModelParams:
    """Encoder and decoder weights plus the node-count rate and atom table."""

    encoder: EncoderParams
    decoder: DecoderParams
    lambda_n: float
    table: ValenceTable = field(default_factory=lambda: DEFAULT_TABLE)

    def tensors(self) -> list[tuple[str, T.Tensor]]:
        return self.encoder.tensors() + self.decoder.tensors()


@dataclass
class Checkpoint:
    model: ModelParams
    hyper: Hyperparams
    iteration: int


def init_model(rng: np.random.Generator, hyper: Hyperparams,
               table: ValenceTable | None = None,
               lambda_n: float = 1.0) -> ModelParams:
    table = table or DEFAULT_TABLE
    n_types = len(table.symbols)
    enc = init_encoder(rng, hyper.D, hyper.K, n_types)
    dec = init_decoder(rng, hyper.D, n_types)
    return ModelParams(enc, dec, float(lambda_n), table)


# ---------------------------------------------------------------------------
# edge orderings


def sample_source(g: MolecularGraph, kind: str,
                  rng: np.random.Generator) -> int:
    """Draw a traversal root from the whole node set."""
    return _source_from(list(range(g.n)), g.degrees(), kind, rng)


def _source_from(nodes, degrees, kind: str, rng: np.random.Generator) -> int:
    if kind == "uniform":
        return int(nodes[rng.integers(len(nodes))])
    if kind == "degree":
        w = np.array([degrees[u] for u in nodes], dtype=np.float64)
        if w.sum() == 0.0:
            return int(nodes[rng.integers(len(nodes))])
        return int(nodes[rng.choice(len(nodes), p=w / w.sum())])
    if kind == "max_degree":
        best = max(degrees[u] for u in nodes)
        top = [u for u in nodes if degrees[u] == best]
        return int(top[rng.integers(len(top))])
    raise ValueError(f"unknown source kind {kind!r}")


def bfs_edge_order(g: MolecularGraph, source: int,
                   rng: np.random.Generator,
                   source_kind: str = "uniform") -> list[tuple[int, int]]:
    """Every edge exactly once, in breadth-first discovery order.

    Tree edges are emitted when the child is first seen; a non-tree edge is
    emitted while dequeuing its later endpoint.  The scan order of each
    node's neighbors is a fresh uniform shuffle, which is the only source of
    randomness on connected graphs.  On a disconnected graph the traversal
    restarts at a node drawn from the remaining ones.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    adj = g.adjacency()
    degrees = g.degrees()
    visited: set[int] = set()
    done: set[int] = set()
    emitted: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    remaining = set(range(g.n))
    root = source
    while remaining:
        visited.add(root)
        remaining.discard(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            done.add(u)
            nbrs = adj[u]
            if len(nbrs) > 1:
                nbrs = [nbrs[i] for i in rng.permutation(len(nbrs))]
            for v, _ in nbrs:
                key = (min(u, v), max(u, v))
                if v not in visited:
                    visited.add(v)
                    remaining.discard(v)
                    queue.append(v)
                    order.append(key)
                    emitted.add(key)
                elif v in done and key not in emitted:
                    order.append(key)
                    emitted.add(key)
        if remaining:
            root = _source_from(sorted(remaining), degrees, source_kind, rng)
    return order


# ---------------------------------------------------------------------------
# objective


def _per_graph_sum(x: T.Tensor) -> T.Tensor:
    """Sum over each graph's n x D block: one value, or one per graph of
    a batch; as ``x.sum()`` on the block alone, so the rounding is too."""
    return T.sum_axis(T.reshape(x, x.shape[:-2] + (-1,)), -1)


def kl_term(post, D: int) -> T.Tensor:
    """KL(q || standard normal), summed over nodes, in closed form; one
    value per graph for a batch posterior."""
    s2 = T.square(post.sigma)
    m2 = T.square(post.mu)
    n = post.mu.shape[-2]
    total = _per_graph_sum(s2) + _per_graph_sum(m2) - _per_graph_sum(T.log(s2))
    return 0.5 * (total - float(n * D))


def elbo(g, model: ModelParams, hyper: Hyperparams,
         rng: np.random.Generator) -> T.Tensor:
    """Single-sample evidence lower bound of one graph, or of each graph of
    a GraphBatch in one stacked pass.

    One reparameterized latent draw per graph, S sampled edge orders, the
    closed-form KL, and the node-count term.  Every random choice (latent
    noise, source node, BFS ties, negative samples) comes from ``rng`` in
    a fixed order, graph after graph, before any score is computed, so a
    fixed generator state fixes the value, and graph b of a batch gets
    the value a lone ``elbo`` gives it from the state the batch reached
    at b, bit for bit.  A lone graph is the batch of one; the result is a
    scalar for a graph and one value per graph for a batch.
    """
    batch = g if isinstance(g, GraphBatch) else GraphBatch([g])
    post = posterior(batch, model.encoder, model.table)
    noise = []
    plans: list[list] = [[] for _ in range(hyper.S)]
    for graph in batch:
        noise.append(rng.standard_normal((graph.n, hyper.D)))
        for s in range(hyper.S):
            src = sample_source(graph, hyper.source_kind, rng)
            seq = bfs_edge_order(graph, src, rng, hyper.source_kind)
            plans[s].append(plan_edges(graph, seq, hyper.partition, hyper.L,
                                       hyper.mask_kind, model.table, rng))
    z = post.mu + post.sigma * np.stack(noise)
    # the plans were walked under hyper.partition; passing it only labels
    # the call (perfbench's trace buckets graph_logprob by partition)
    lp = graph_logprob(batch, z, [p for row in plans for p in row],
                       model.decoder, partition=hyper.partition,
                       table=model.table)
    recon = T.sum_axis(T.reshape(lp, (hyper.S, len(batch))), 0) * (1.0 / hyper.S)
    value = recon - kl_term(post, hyper.D) + node_count_logpmf(batch.n, model.lambda_n)
    return value if batch is g else T.reshape(value, ())


def fit_lambda_n(corpus) -> float:
    """Node-count rate: the MLE of the zero-truncated Poisson law that
    ``sample_graph`` draws n from and ``elbo`` charges.

    It is the root of lambda / (1 - exp(-lambda)) = mean node count, found
    by Newton steps from lambda = mean.  The left side is increasing and
    convex, and the start lies above the root, so every step stays above
    it and the steps shrink until rounding stops them.  A mean of 1 (every
    graph one atom) has no positive root: the fit returns LAMBDA_FLOOR,
    under which a draw has n = 1 with probability about 1 - LAMBDA_FLOOR/2.
    """
    if not corpus:
        raise ValueError("cannot fit a node-count rate to an empty corpus")
    mean = float(np.mean([g.n for g in corpus]))
    if mean <= 1.0:
        return LAMBDA_FLOOR
    lam = mean
    for _ in range(100):
        q = -math.expm1(-lam)  # 1 - exp(-lam)
        step = (lam / q - mean) * q * q / (q - lam * math.exp(-lam))
        if not step > 0.0:
            break
        lam -= step
    return lam


# ---------------------------------------------------------------------------
# optimization loop


def make_batches(corpus, batch_size: int) -> list[GraphBatch]:
    """Partition the corpus into batches of uniform node count."""
    groups: dict[int, list[MolecularGraph]] = {}
    for g in corpus:
        groups.setdefault(g.n, []).append(g)
    batches = []
    for n in sorted(groups):
        graphs = groups[n]
        for i in range(0, len(graphs), batch_size):
            batches.append(GraphBatch(graphs[i:i + batch_size]))
    return batches


def train(corpus, hyper: Hyperparams, table: ValenceTable | None = None,
          log_fn=None) -> Checkpoint:
    """Adam-ascend the mean batch ELBO; returns the final checkpoint.

    Each iteration draws one uniform-size batch, evaluates ``elbo`` on the
    whole batch as one tape (its per-graph values are those of graph-by-
    graph evaluation, bit for bit), takes the gradient of their sum in one
    backward pass, and takes one step along its mean.  ``log_fn`` (if
    given) receives a record per iteration with the iteration index, mean
    batch ELBO, batch node count, wall-clock seconds, and a reference to
    the live model; everything except the wall time is deterministic
    under a fixed seed.  Numeric failures abort with the iteration index
    attached.
    """
    if not corpus:
        raise ValueError("cannot train on an empty corpus")
    table = table or DEFAULT_TABLE
    rng = np.random.default_rng(hyper.seed)
    model = init_model(rng, hyper, table, lambda_n=fit_lambda_n(corpus))
    batches = make_batches(corpus, hyper.batch_size)
    params = [t for _, t in model.tensors()]
    adam = T.AdamState(params, lr=hyper.lr)
    t0 = time.perf_counter()
    for it in range(hyper.iterations):
        batch = batches[int(rng.integers(len(batches)))]
        total = 0.0
        try:
            with T.Tape() as tape:
                values = elbo(batch, model, hyper, rng)
                loss = T.sum_all(values)
            grads = tape.gradients(loss, params)
            for v in values.data.tolist():
                total += v
            scale = 1.0 / len(batch)
            T.adam_step(adam, [gr * scale for gr in grads])
        except (FloatingPointError, ZeroDivisionError, ValueError) as exc:
            raise type(exc)(f"iteration {it}: {exc}") from exc
        if log_fn is not None:
            # "model" is the live object, not a copy; snapshot inside log_fn
            log_fn({"iteration": it, "elbo": total / len(batch),
                    "batch_n": batch.n, "batch_size": len(batch),
                    "seconds": time.perf_counter() - t0, "model": model})
    return Checkpoint(model, hyper, hyper.iterations)


# ---------------------------------------------------------------------------
# checkpoint file format

_MAGIC = "molvae-checkpoint"


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """One JSON header line (shapes, offsets, metadata), then raw little-
    endian float64 buffers in header order.  Round-trips bit-exactly."""
    named = ckpt.model.tensors()
    directory = []
    offset = 0
    for name, t in named:
        size = int(t.data.size)
        directory.append({"name": name, "shape": list(t.data.shape),
                          "offset": offset, "size": size})
        offset += size * 8
    header = {
        "format": _MAGIC,
        "version": 1,
        "iteration": ckpt.iteration,
        "lambda_n": ckpt.model.lambda_n,
        "hyper": ckpt.hyper.as_dict(),
        "alphabet": [[s, ckpt.model.table.max_valence(s)]
                     for s in ckpt.model.table.symbols],
        "tensors": directory,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for _, t in named:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _check_keys(path, kind: str, found, expected) -> None:
    """Raise ValueError naming the first key in only one of the two sets."""
    odd = sorted(set(found) ^ set(expected), key=str)
    if odd:
        what = "unknown" if odd[0] in found else "missing"
        raise ValueError(f"{path}: {what} {kind} {odd[0]!r}")


def _check_unique(path, field: str, kind: str, keys) -> None:
    """Raise ValueError naming the first key that ``field`` lists twice."""
    twice = [key for key, count in Counter(keys).items() if count > 1]
    if twice:
        raise ValueError(f"{path}: field {field!r} lists {kind} {twice[0]!r} twice")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    The tensors must be exactly those, in the shapes, that ``hyper`` and
    ``alphabet`` imply, each listed once at the offset and size of the
    packed layout, with no bytes after the last, and every value finite.
    Any damage raises ValueError naming the file and the field.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise ValueError(f"{path}: not a checkpoint file") from exc
        if not isinstance(header, dict) or header.get("format") != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if not is_integer(header.get("version")) or header["version"] != 1:
            raise ValueError(f"{path}: unsupported checkpoint version")
        blob = fh.read()
    _check_keys(path, "header field", header, (
        "format", "version", "iteration", "lambda_n", "hyper", "alphabet",
        "tensors"))
    raw_hyper = header["hyper"]
    if not isinstance(raw_hyper, dict):
        raise ValueError(f"{path}: field 'hyper' is not an object")
    _check_keys(path, "hyperparameter", raw_hyper, Hyperparams().as_dict())
    alphabet, lambda_n = header["alphabet"], header["lambda_n"]
    if not isinstance(alphabet, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and is_integer(e[1]) for e in alphabet):
        raise ValueError(f"{path}: field 'alphabet' must list [symbol, valence] pairs")
    _check_unique(path, "alphabet", "symbol", [sym for sym, _ in alphabet])
    if not _finite_positive(lambda_n):
        raise ValueError(f"{path}: field 'lambda_n' must be finite and positive")
    if not is_integer(header["iteration"]) or header["iteration"] < 0:
        raise ValueError(f"{path}: field 'iteration' must be a count")
    try:
        hyper = Hyperparams(**raw_hyper)
        if 16 * hyper.K * hyper.D ** 2 > len(blob):  # the encoder's 2 K D^2 floats
            raise ValueError(f"D={hyper.D}, K={hyper.K} imply more tensor"
                             f" bytes than the file's {len(blob)}")
        table = ValenceTable(dict(alphabet))
        model = init_model(np.random.default_rng(0), hyper, table,
                           float(lambda_n))
        names = [e["name"] for e in header["tensors"]]
        entries = dict(zip(names, header["tensors"]))
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{path}: bad checkpoint header: {exc}") from exc
    _check_unique(path, "tensors", "tensor", names)
    _check_keys(path, "tensor", entries, [name for name, _ in model.tensors()])
    start = 0  # the packed layout save_checkpoint writes
    for name, t in model.tensors():
        entry, size = entries[name], t.data.size
        if entry.get("shape") != list(t.shape):
            raise ValueError(
                f"{path}: tensor {name!r} has shape {entry.get('shape')},"
                f" hyper and alphabet imply {list(t.shape)}")
        for field, want in (("offset", start), ("size", size)):
            got = entry.get(field)
            if not is_integer(got) or got != want:
                raise ValueError(f"{path}: tensor {name!r} has {field} {got!r},"
                                 f" the packed layout needs {want}")
        arr = np.frombuffer(blob[start:start + size * 8], dtype="<f8")
        if arr.size != size:
            raise ValueError(f"{path}: truncated tensor {name!r}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
        t.data = arr.reshape(t.shape).copy()
        start += size * 8
    if len(blob) > start:
        raise ValueError(f"{path}: {len(blob) - start} bytes after the last"
                         f" tensor of field 'tensors'")
    return Checkpoint(model, hyper, header["iteration"])
