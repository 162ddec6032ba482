"""Latent-space property optimization.

Molecules map to fixed-length embeddings (mean and sum of posterior means),
a sparse Gaussian process regresses property scores on those embeddings,
and a batch Bayesian-optimization loop proposes new embeddings by expected
improvement, decodes them through the masked sampler, and scores the valid
results.  The sparse GP is the FITC approximation with an RBF kernel
(Snelson & Ghahramani 2006).  One Cholesky/Woodbury factorization gives
its log marginal likelihood with the exact gradient, which L-BFGS-B
follows over the three log-hyperparameters, and the factors that
prediction solves against.  The EI ascent also runs L-BFGS-B on the exact
gradient, through the same predictive equations as ``sgp_predict``.  The
molecule decoder encodes each seed molecule once.

Inputs are checked once, where they enter: ``sgp_fit`` checks ``x``,
``y``, ``hypers``, ``start`` and ``iters``; ``sgp_predict`` and ``sgp_loglik`` check
``xs`` and ``ys``; the EI ascent starts from points ``sgp_predict`` has
checked and stays inside a finite box.  The inner loops (``_fitc``,
``_predictive``, ``_neg_ei``) check nothing.  Each Cholesky factor is
inverted once per factorization (``_tri_inv``, one LAPACK call), so every
other product in them is a matrix multiply.  Per fit, the inducing-point
distances are computed once, and the factors of the optimizer's last
evaluation are kept, not recomputed, when it ends there.  ``bo_loop``
starts each refit after the first at the previous iteration's
hyperparameters.  SciPy is imported where it is used, so importing this
module loads it only once a GP is fitted or an EI ascent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .decoder import sample_graph
from .encoder import posterior, sample_latent
# canonical_certificate is unused here but stays: the benchmark's tracer
# wraps latentopt.canonical_certificate by name.
from .molgraph import (DEFAULT_TABLE, MolecularGraph, _certificate_or_none,
                       ValenceTable, canonical_certificate,
                       connected_components, valence_ok)

JITTERS = (1e-10, 1e-8, 1e-6)  # K_uu's added diagonal, in units of s2f
HYPER_BOX = 5.0  # half-width of the log-hyperparameter search box
EI_STARTS = 8  # EI ascents per BO iteration; uniform draws fill the batch


def molecule_embedding(post) -> np.ndarray:
    """Permutation-invariant, size-aware summary: (mean of mu, sum of mu)."""
    mu = post.mu.data
    return np.concatenate([mu.mean(axis=0), mu.sum(axis=0)])


# ---------------------------------------------------------------------------
# FITC sparse GP


@dataclass
class SGPModel:
    """Fitted sparse GP: inducing set, RBF hyperparameters, and what
    prediction multiplies by.

    With K_uu = L_uu L_uu' and B = L_b L_b' as in ``_fitc``, ``proj`` is
    the (2m, m) stack [L_uu^-1; L_b^-1 L_uu^-1] and ``alpha`` =
    L_uu^-T L_b^-T c, the weights of the predictive mean."""

    inducing: np.ndarray
    s2f: float
    lengthscale: float
    noise: float
    jitter: float  # the rung of JITTERS that factorized, relative to s2f
    y_mean: float
    alpha: np.ndarray = field(repr=False)
    proj: np.ndarray = field(repr=False)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def _kernel_np(a, b, s2f, lengthscale):
    return s2f * np.exp(-0.5 * _sqdist(a, b) / lengthscale ** 2)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _finite(name: str, a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _tri_inv(l):
    """Inverse of the lower-triangular ``l`` (zeros above its diagonal, as
    ``np.linalg.cholesky`` returns it) by one LAPACK ``dtrtri`` call.  It
    inverts the transpose, whose Fortran order LAPACK reads without a
    copy of a C-ordered ``l``.  Raises LinAlgError on a zero pivot."""
    from scipy.linalg.lapack import dtrtri

    inv_t, info = dtrtri(l.T, lower=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: zero pivot at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtri")
    return inv_t.T


def _fitc(d_uu, d_uf, yc, s2f, lengthscale, noise, jitter):
    """FITC factors, log marginal likelihood of centred scores ``yc`` and
    its gradient in (log s2f, log lengthscale, log noise).

    ``d_uu`` and ``d_uf`` are the squared distances among the inducing
    inputs and from them to the data rows (``_sqdist(xu, xu)`` and
    ``_sqdist(xu, x)``).  They do not depend on the hyperparameters, so
    ``sgp_fit`` computes them once per fit; nothing here is checked again.
    K_uu carries ``jitter * s2f`` on its diagonal, so a rung stabilises a
    kernel of any scale, and dK_uu / dlog s2f is that jittered K_uu.

    With A = L_uu^-1 K_uf, the FITC covariance is C = A'A + diag(lam) where
    lam = diag(K_ff - A'A) + noise.  The Woodbury identity reduces it to
    B = I + A diag(lam)^-1 A' = L_b L_b', so
    log det = sum log lam + 2 sum log diag L_b and
    quadratic term = yc' diag(lam)^-1 yc - c'c with c = V yc, where
    V = L_b^-1 A diag(1/lam) and C^-1 = diag(1/lam) - V'V.

    The gradient is 1/2 tr(R dC) with R = alpha alpha' - C^-1 and
    alpha = C^-1 yc.  Let r = diag(R), R~ = R - diag(r) and P = L_uu^-T A.
    Since dlam = diag(dK_ff - dQ) + dnoise with Q = A'A,
    tr(R dC) = 2 sum(G * dK_uf) - sum(G P' * dK_uu) + r'(diag dK_ff + dnoise)
    with G = P R~ = L_uu^-T H and H = A R~ = (A alpha) alpha' - B^-1 A
    diag(1/lam) - A diag(r), using A C^-1 = B^-1 A diag(1/lam).

    L_uu and L_b are inverted once each (``_tri_inv``), so A, V, H and G
    are matrix products with L_uu^-1, L_b^-1 and their transposes.
    Returns (L_uu^-1, L_b^-1, lam, c, log marginal likelihood, gradient).
    """
    m = d_uu.shape[0]
    inv_l2 = 1.0 / lengthscale ** 2
    kuu = s2f * np.exp(-0.5 * inv_l2 * d_uu)
    kuu_jit = kuu + (jitter * s2f) * np.eye(m)
    l_uu = np.linalg.cholesky(kuu_jit)
    li_uu = _tri_inv(l_uu)
    kuf = s2f * np.exp(-0.5 * inv_l2 * d_uf)
    a = li_uu @ kuf
    dk_uf = d_uf * kuf  # lengthscale^2 dK_uf / dlog lengthscale
    del kuf
    lam = s2f - np.einsum("mn,mn->n", a, a) + noise
    if np.any(lam <= 0.0):
        raise np.linalg.LinAlgError("non-positive FITC variances")
    sqrt_lam = np.sqrt(lam)
    v = a / sqrt_lam
    l_b = np.linalg.cholesky(np.eye(m) + v @ v.T)
    li_b = _tri_inv(l_b)
    v = li_b @ v
    v /= sqrt_lam
    c = v @ yc
    log_det = np.log(lam).sum() + 2.0 * np.log(np.diag(l_b)).sum()
    quad = yc @ (yc / lam) - c @ c
    lml = -0.5 * (len(yc) * math.log(2.0 * math.pi) + log_det + quad)

    alpha = yc / lam - v.T @ c
    r = alpha ** 2 - 1.0 / lam + np.einsum("mn,mn->n", v, v)
    h = li_b.T @ (np.outer(c, alpha) - v)
    del v
    h -= a * r
    g = li_uu.T @ h
    del h
    a_gt = a @ g.T
    gpt = li_uu.T @ a_gt  # (G P')'
    g_kuf = np.einsum("ij,ji->", l_uu, a_gt)  # sum(G * K_uf), K_uf = L_uu A
    r_sum = r.sum()
    grad = 0.5 * np.array([
        2.0 * g_kuf - np.einsum("ij,ij->", gpt, kuu_jit) + s2f * r_sum,
        inv_l2 * (2.0 * np.einsum("mn,mn->", g, dk_uf)
                  - np.einsum("ij,ij,ij->", gpt, kuu, d_uu)),
        noise * r_sum])
    return li_uu, li_b, lam, c, float(lml), grad


def _hyper_triple(name: str, value) -> np.ndarray:
    """``value`` as the array (s2f, lengthscale, noise), each of them
    finite and positive; a ValueError names ``name`` otherwise."""
    h = np.asarray(value, dtype=np.float64)
    if h.shape != (3,):
        raise ValueError(f"{name} must be (s2f, lengthscale, noise)")
    for part, v in zip(("s2f", "lengthscale", "noise"), h):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} {part} must be finite and positive,"
                             f" got {v}")
    return h


def sgp_fit(x, y, n_inducing: int, seed: int = 0, iters: int = 150,
            hypers=None, start=None) -> SGPModel:
    """Fit a FITC sparse GP by L-BFGS-B on its log marginal likelihood,
    with the exact gradient ``_fitc`` returns alongside it.

    Inducing inputs are drawn from the rows of ``x`` without replacement.
    The log-hyperparameters start from the data (score variance, median
    pairwise distance, a tenth of it as noise) and stay within HYPER_BOX
    of that start: unbounded, degenerate data (constant scores, a handful
    of points) runs past every jitter.  ``iters`` (>= 0) caps the
    optimizer's iterations; ``hypers`` = (signal variance, lengthscale,
    noise variance), each finite and positive, skips the fit: the model
    holds exactly these values.  ``start``, in the same form, starts the
    optimizer there instead of at the data's point, clipped into the box,
    which stays centred on the data's point; it cannot be combined with
    ``hypers``.  Singular kernels escalate through the jitter ladder,
    whose rungs are relative to s2f.

    The inputs are checked here and nowhere below: ``x`` and ``y`` must
    be finite.  The squared distances among the inducing inputs and from
    them to the rows of ``x`` are computed once, checked for overflow and
    shared by every ``_fitc`` evaluation.  The factors of the optimizer's
    last evaluation are kept; when the optimizer returns that point, the
    model takes them instead of factorizing again.
    """
    if hypers is not None and start is not None:
        raise ValueError("pass hypers or start, not both")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, d) with one score per row")
    _finite("x", x)
    _finite("y", y)
    n = x.shape[0]
    if not 1 <= n_inducing <= n:
        raise ValueError(f"need 1 <= n_inducing <= {n}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    rng = np.random.default_rng(seed)
    xu = x[rng.choice(n, size=n_inducing, replace=False)].copy()
    d_uu = _sqdist(xu, xu)
    d_uf = _sqdist(xu, x)
    if not (np.isfinite(d_uu).all() and np.isfinite(d_uf).all()):
        raise ValueError("x is too large: its squared distances overflow")
    y_mean = float(y.mean())
    yc = y - y_mean

    if hypers is not None:
        h = _hyper_triple("hypers", hypers)
        iters = 0
    else:
        from scipy.spatial.distance import pdist

        var_y = float(yc.var()) + 1e-8
        off = pdist(x, "sqeuclidean")
        median_sq = float(np.median(off)) if off.size else 1.0
        centre = np.array([math.log(var_y),
                           0.5 * math.log(max(median_sq, 1e-8)),
                           math.log(0.1 * var_y)])
        lo, hi = centre - HYPER_BOX, centre + HYPER_BOX
        bounds = list(zip(lo, hi))
        log_h = centre if start is None else np.clip(
            np.log(_hyper_triple("start", start)), lo, hi)
        h = np.exp(log_h)
    last = [None, None, None]  # hyperparameters, jitter, _fitc output

    def factors(h, jitter):
        if not (jitter == last[1] and np.array_equal(h, last[0])):
            last[:] = (h.copy(), jitter, _fitc(d_uu, d_uf, yc, *h, jitter))
        return last[2]

    def neg_lml(log_h, jitter):
        lml, grad = factors(np.exp(log_h), jitter)[4:]
        return -lml, -grad

    for jitter in JITTERS:
        try:
            if iters > 0:
                h = np.exp(minimize(neg_lml, log_h, args=(jitter,), jac=True,
                                    method="L-BFGS-B", bounds=bounds,
                                    options={"maxiter": iters}).x)
            li_uu, li_b, _, c, _, _ = factors(h, jitter)
            break
        except np.linalg.LinAlgError:
            if jitter == JITTERS[-1]:
                raise
    s2f, lengthscale, noise = (float(v) for v in h)
    proj = np.vstack([li_uu, li_b @ li_uu])
    return SGPModel(inducing=xu, s2f=s2f, lengthscale=lengthscale,
                    noise=noise, jitter=jitter, y_mean=y_mean,
                    alpha=proj[n_inducing:].T @ c, proj=proj)


def _predictive(model: SGPModel, xs):
    """The FITC predictive equations at the rows of ``xs``: returns the
    kernel rows k (p, m), t = proj k' (2m, p), whose halves are
    t1 = L_uu^-1 k' and t2 = L_b^-1 t1, the mean k alpha + y_mean and the
    observation variance max(s2f - |t1|^2 + |t2|^2, 0) + noise."""
    ks = _kernel_np(xs, model.inducing, model.s2f, model.lengthscale)
    mean = ks @ model.alpha + model.y_mean
    t = model.proj @ ks.T
    t1, t2 = np.split(t, 2)
    q = np.einsum("mn,mn->n", t1, t1)
    corr = np.einsum("mn,mn->n", t2, t2)
    var = np.maximum(model.s2f - q + corr, 0.0) + model.noise
    return ks, t, mean, var


def sgp_predict(model: SGPModel, xs) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and observation variance (latent variance + noise)
    at the rows of ``xs``, which must be finite."""
    xs = _finite("xs", np.atleast_2d(np.asarray(xs, dtype=np.float64)))
    return _predictive(model, xs)[2:]


def sgp_loglik(model: SGPModel, xs, ys) -> np.ndarray:
    """Per-point predictive log-density of held-out scores ``ys`` (finite)
    at the rows of ``xs``."""
    ys = _finite("ys", np.asarray(ys, dtype=np.float64).ravel())
    mean, var = sgp_predict(model, xs)
    return -0.5 * (np.log(2.0 * math.pi * var) + (ys - mean) ** 2 / var)


# ---------------------------------------------------------------------------
# expected improvement


def expected_improvement(mean, variance, best) -> np.ndarray:
    """EI under maximization; collapses to max(mean - best, 0) at zero
    variance."""
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(variance, dtype=np.float64)
    if np.any(var < 0.0):
        raise ValueError("variance must be nonnegative")
    sd = np.sqrt(var)
    out = np.maximum(mean - best, 0.0)
    pos = sd > 0.0
    if np.any(pos):
        ei, _, _ = _ei_terms(mean, np.where(pos, sd, 1.0), best)
        out = np.where(pos, ei, out)
    return out


def _ei_terms(mean, sd, best):
    """EI, phi(z) and Phi(z) at z = (mean - best) / sd, for sd > 0."""
    from scipy.special import erf

    z = (mean - best) / sd
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    big_phi = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
    return sd * (z * big_phi + phi), phi, big_phi


def _neg_ei(v, model: SGPModel, best):
    """-EI at the point ``v`` and its gradient, the EI ascent's objective.

    With dk/dv = -k (v - u) / lengthscale^2 per inducing input u, the mean
    has gradient alpha' dk/dv and the variance -2 (W k)' dk/dv, where
    W k = L_uu^-T (t1 - L_b^-T t2) = proj' [t1; -t2], one matrix-vector
    product; the variance is flat where it is clipped at zero.  Then
    grad EI = Phi(z) grad mean + phi(z) grad var / (2 sd).  The value comes
    from ``_ei_terms``, as ``expected_improvement``'s does, on the one
    point's scalars, so it equals
    ``expected_improvement(*sgp_predict(model, v), best)`` bit for bit.
    ``v`` is not checked: the ascent starts from points ``sgp_predict``
    has checked and stays inside a finite box.
    """
    ks, t, mean, var = _predictive(model, v[None, :])
    mean, var = float(mean[0]), float(var[0])
    sd = math.sqrt(var)  # > 0: a fitted noise variance is positive
    ei, phi, big_phi = _ei_terms(mean, sd, best)
    dk = ks.T * (model.inducing - v) / model.lengthscale ** 2
    d_mean = model.alpha @ dk
    d_var = np.zeros_like(v)
    if var > model.noise:
        t[len(t) // 2:] *= -1.0
        d_var = -2.0 * ((model.proj.T @ t[:, 0]) @ dk)
    return -float(ei), -(big_phi * d_mean + phi * d_var / (2.0 * sd))


# ---------------------------------------------------------------------------
# property oracles


def _min_cycle_basis_lengths(g: MolecularGraph) -> list[int]:
    """Lengths of a minimum cycle basis (sorted; the multiset is a graph
    invariant even though the basis itself is not unique).

    Horton candidate cycles (shortest paths from every root stitched with
    one extra edge) greedily selected to be independent over GF(2).
    """
    n = g.n
    edges = [(u, v) for u, v, _ in g.bonds]
    if not edges:
        return []
    dim = len(edges) - n + len(connected_components(g))
    if dim == 0:
        return []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (neighbor, edge bit)
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, 1 << i))
        adj[v].append((u, 1 << i))

    candidates = []
    for root in range(n):
        # path[v]: the edges of the BFS tree path from root to v, as a bitmask
        path = {root: 0}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v, bit in adj[u]:
                    if v not in path:
                        path[v] = path[u] ^ bit
                        nxt.append(v)
            queue = nxt
        for i, (u, v) in enumerate(edges):
            if u not in path or v not in path:
                continue
            mask = path[u] ^ path[v] ^ (1 << i)
            length = bin(mask).count("1")
            if length >= 3:
                candidates.append((length, mask))

    candidates.sort(key=lambda c: c[0])
    basis: list[int] = []
    lengths: list[int] = []
    for length, mask in candidates:
        cur = mask
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            lengths.append(length)
            if len(basis) == dim:
                break
    return sorted(lengths)


def proxy_property(g: MolecularGraph, lambda_n: float = 8.0,
                   table: ValenceTable | None = None) -> float:
    """Stand-in property score: reward connectivity-dense molecules, punish
    long rings and sizes far from the corpus norm; defined for a molecule
    within the valences of ``table``.

    mean degree - 0.5 * (cycles in a minimum basis longer than 6)
                - 0.1 * |n - lambda_n|
    """
    if g.n < 1 or not valence_ok(g, table):
        raise ValueError("score undefined for a molecule violating valence")
    mean_degree = 2.0 * len(g.bonds) / g.n
    long_cycles = sum(1 for length in _min_cycle_basis_lengths(g) if length > 6)
    return mean_degree - 0.5 * long_cycles - 0.1 * abs(g.n - lambda_n)


# ---------------------------------------------------------------------------
# batch Bayesian optimization


@dataclass
class BOResult:
    """Deduplicated scored molecules plus per-iteration bookkeeping."""

    ranked: list  # (molecule, score), best first
    fraction_valid: float
    fraction_unique: float
    oracle_calls: int
    history: list  # per-iteration dicts, deterministic for a given seed
    seconds: list  # per-iteration wall times of fit, propose, decode, oracle
    initial_model: SGPModel | None  # iteration 0's GP, fitted to the inputs alone


def _propose_by_ei(model: SGPModel, x, best, count, rng):
    """``count`` distinct proposals, how many of them (the first ones) are
    ascent optima, and the largest EI found.

    L-BFGS-B ascends EI on its exact gradient (``_neg_ei``) from the
    ``EI_STARTS`` best points of a random pool plus the training rows,
    inside the data's bounding box widened by half its span.  So at most
    ``EI_STARTS`` proposals are distinct ascent optima; uniform draws in
    the same box fill the rest of the batch.
    """
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    lo = lo - 0.5 * span
    hi = hi + 0.5 * span

    pool = rng.uniform(lo, hi, size=(max(64, 16 * x.shape[1]), x.shape[1]))
    pool = np.vstack([pool, x])  # training rows seed ascent near the data
    ei_pool = expected_improvement(*sgp_predict(model, pool), best)
    starts = pool[np.argsort(-ei_pool)[:EI_STARTS]]
    found = []
    for s in starts:
        res = minimize(_neg_ei, s, args=(model, best), jac=True,
                       method="L-BFGS-B", bounds=list(zip(lo, hi)))
        found.append((-res.fun, res.x))
    found.sort(key=lambda t: -t[0])
    picked: list[np.ndarray] = []
    for _, v in found:
        if all(np.linalg.norm(v - p) > 1e-6 for p in picked):
            picked.append(v)
        if len(picked) == count:
            break
    ascents = len(picked)
    while len(picked) < count:
        picked.append(rng.uniform(lo, hi))
    return picked, ascents, float(found[0][0])


def _molecule_key(g: MolecularGraph):
    """Isomorphism certificate; for a molecule without one (above the
    certificate's size limit, or over its search budget), the labelled
    graph itself, so that only exact duplicates merge."""
    cert = _certificate_or_none(g)
    return (g.atom_types, g.bonds) if cert is None else cert


def bo_loop(train_embeddings, train_scores, decode_fn, oracle,
            iters: int = 5, batch: int = 50, seed: int = 0,
            n_inducing: int | None = None, valid_fn=None,
            key_fn=None) -> BOResult:
    """Batch BO over embedding space with a pluggable decode step.

    Each iteration fits the sparse GP to everything observed so far,
    proposes ``batch`` embeddings, decodes each to a molecule, and scores
    the valid ones with the oracle.  At most ``EI_STARTS`` proposals per
    iteration come from EI ascents (``_propose_by_ei``); the rest are
    uniform draws in the data's bounding box widened by half its span.
    Each fit after the first starts at the previous iteration's
    hyperparameters (``sgp_fit(start=...)``).  Decode failures (None) and
    invalid decodes are recorded, never scored.  The result ranks unique
    valid molecules by score, best first.  ``history`` records each
    iteration's fitted GP, largest EI and how many proposals came from
    ascents (``ascent_picks``) and from uniform draws (``random_picks``);
    ``seconds`` its wall times, kept apart because they differ between
    otherwise identical runs.  ``initial_model`` is the GP of iteration 0,
    ``sgp_fit(train_embeddings, train_scores, m, seed)``, so callers can
    assess the fit on held-out rows without refitting.  A ``batch`` below
    1 raises ValueError before anything is fitted, decoded or scored.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    x = np.asarray(train_embeddings, dtype=np.float64)
    y = np.asarray(train_scores, dtype=np.float64).ravel()
    if valid_fn is None:
        # valence-rule scope, matching what the masked decoder guarantees;
        # pass a stricter gate (connectivity etc.) through valid_fn
        valid_fn = lambda g: g.n >= 1 and valence_ok(g)
    if key_fn is None:
        key_fn = _molecule_key
    rng = np.random.default_rng(seed)
    scored: dict[object, tuple[MolecularGraph, float]] = {}
    history = []
    seconds = []
    oracle_calls = 0
    n_decoded = 0
    n_valid = 0
    initial_model = model = None
    for it in range(iters):
        m_ind = len(x) if n_inducing is None else min(n_inducing, len(x))
        start = None if model is None else (model.s2f, model.lengthscale,
                                             model.noise)
        t0 = perf_counter()
        model = sgp_fit(x, y, m_ind, seed=seed + it, start=start)
        t1 = perf_counter()
        if it == 0:
            initial_model = model
        best = float(y.max())
        proposals, ascents, max_ei = _propose_by_ei(model, x, best, batch,
                                                    rng)
        t2 = perf_counter()
        t_oracle = 0.0
        new_x, new_y = [], []
        n_failed = 0
        for v in proposals:
            g = decode_fn(v)
            if g is None:
                n_failed += 1
                continue
            n_decoded += 1
            if not valid_fn(g):
                continue
            n_valid += 1
            t_call = perf_counter()
            score = float(oracle(g))
            t_oracle += perf_counter() - t_call
            oracle_calls += 1
            new_x.append(v)
            new_y.append(score)
            key = key_fn(g)
            if key not in scored or scored[key][1] < score:
                scored[key] = (g, score)
        if new_x:
            x = np.vstack([x, np.array(new_x)])
            y = np.concatenate([y, np.array(new_y)])
        history.append({"iteration": it, "proposed": len(proposals),
                        "ascent_picks": ascents,
                        "random_picks": len(proposals) - ascents,
                        "decoded": n_decoded, "failed": n_failed,
                        "best_so_far": float(y.max()), "s2f": model.s2f,
                        "lengthscale": model.lengthscale,
                        "noise": model.noise, "jitter": model.jitter,
                        "max_ei": max_ei})
        seconds.append({"iteration": it, "fit": t1 - t0, "propose": t2 - t1,
                        "decode": perf_counter() - t2 - t_oracle,
                        "oracle": t_oracle})
    ranked = sorted(scored.values(), key=lambda t: -t[1])
    return BOResult(
        ranked=ranked,
        fraction_valid=(n_valid / n_decoded) if n_decoded else 0.0,
        fraction_unique=(len(scored) / n_valid) if n_valid else 0.0,
        oracle_calls=oracle_calls,
        history=history,
        seconds=seconds,
        initial_model=initial_model,
    )


def make_molecule_decoder(model_params, molecules, embeddings, rng,
                          mask_kind: str = "valence"):
    """Decode a proposed embedding via its nearest training molecule.

    The closest training embedding supplies a seed molecule; its per-node
    posterior means are shifted by the proposal's mean-half delta, latents
    are resampled around the shifted means, and the masked sampler decodes
    them.  Each seed molecule is encoded once, on first use, and its
    posterior kept for later decodes.  Returns a closure suitable for
    ``bo_loop``.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if len(molecules) != emb.shape[0]:
        raise ValueError("one embedding per molecule required")
    D = model_params.encoder.D
    encoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def decode(v: np.ndarray):
        v = np.asarray(v, dtype=np.float64)
        nearest = int(np.argmin(((emb - v) ** 2).sum(axis=1)))
        if nearest not in encoded:
            post = posterior(molecules[nearest], model_params.encoder,
                             model_params.table)
            encoded[nearest] = (post.mu.data, post.sigma.data)
        mu, sigma = encoded[nearest]
        z = sample_latent(mu + (v[:D] - emb[nearest][:D]), sigma, rng)
        try:
            g, _ = sample_graph(model_params.decoder, rng, z=z,
                                mask_kind=mask_kind, table=model_params.table)
        except ValueError:
            return None
        return g

    return decode
