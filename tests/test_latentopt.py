"""Sparse GP, expected improvement, and the BO loop."""

import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

import molvae.tensor as T
from molvae.encoder import Posterior, posterior
import molvae.latentopt as latentopt
from molvae.decoder import sample_graph
from molvae.latentopt import (HYPER_BOX, JITTERS, BOResult, _fitc,
                              _min_cycle_basis_lengths, _neg_ei, _sqdist,
                              _tri_inv, bo_loop,
                              expected_improvement, make_molecule_decoder,
                              molecule_embedding,
                              proxy_property, sgp_fit, sgp_loglik, sgp_predict)
from molvae.molgraph import (DEFAULT_TABLE, MolecularGraph, connected_components,
                             random_molecule)
from molvae.training import Hyperparams, init_model


def _exact_gp_predict(x, y, xs, s2f, lengthscale, noise):
    """Plain dense GP regression, the reference for the FITC identity."""

    def kern(a, b):
        aa = (a * a).sum(axis=1)[:, None]
        bb = (b * b).sum(axis=1)[None, :]
        d2 = np.maximum(aa + bb - 2.0 * a @ b.T, 0.0)
        return s2f * np.exp(-0.5 * d2 / lengthscale ** 2)

    ymean = y.mean()
    kxx = kern(x, x) + noise * np.eye(len(x))
    kinv = np.linalg.inv(kxx)
    ks = kern(xs, x)
    mean = ks @ kinv @ (y - ymean) + ymean
    var = s2f - np.einsum("nm,nm->n", ks @ kinv, ks) + noise
    return mean, var


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_permutation_invariant():
    rng = np.random.default_rng(0)
    hyper = Hyperparams(D=4, K=2, iterations=1)
    model = init_model(rng, hyper)
    for seed in range(5):
        g = random_molecule(np.random.default_rng(seed), 7, DEFAULT_TABLE)
        perm = list(np.random.default_rng(seed + 50).permutation(g.n))
        e1 = molecule_embedding(posterior(g, model.encoder, model.table))
        e2 = molecule_embedding(posterior(g.relabel(perm), model.encoder,
                                          model.table))
        assert np.allclose(e1, e2, atol=1e-12)


def test_embedding_single_node_and_size():
    mu = np.array([[1.0, -2.0, 0.5]])
    post = Posterior(T.Tensor(mu), T.Tensor(np.ones_like(mu)))
    emb = molecule_embedding(post)
    assert np.array_equal(emb, np.array([1.0, -2.0, 0.5, 1.0, -2.0, 0.5]))

    row = np.array([0.3, 0.7])
    small = Posterior(T.Tensor(np.tile(row, (2, 1))), None)
    large = Posterior(T.Tensor(np.tile(row, (5, 1))), None)
    es, el = molecule_embedding(small), molecule_embedding(large)
    assert np.allclose(es[:2], el[:2])          # mean half agrees
    assert np.allclose(el[2:], 2.5 * es[2:])    # sum half scales with size


# ---------------------------------------------------------------------------
# sparse GP


def test_fitc_full_inducing_matches_exact_gp():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=(50, 2))
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] + 0.05 * rng.standard_normal(50)
    hypers = (1.3, 0.9, 0.05)
    model = sgp_fit(x, y, n_inducing=50, seed=0, hypers=hypers)
    xs = rng.uniform(-2, 2, size=(20, 2))
    mean, var = sgp_predict(model, xs)
    mean_ref, var_ref = _exact_gp_predict(x, y, xs, *hypers)
    assert np.max(np.abs(mean - mean_ref)) < 1e-6
    assert np.max(np.abs(var - var_ref)) < 1e-6


def test_sgp_constant_targets():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 3))
    y = np.full(30, 3.7)
    model = sgp_fit(x, y, n_inducing=10, seed=1, iters=50)
    mean, var = sgp_predict(model, rng.standard_normal((15, 3)))
    assert np.allclose(mean, 3.7, atol=1e-8)
    assert np.all(var <= model.s2f + model.noise + 1e-9)


def test_sgp_sine_regression():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 6.0, size=50))[:, None]
    y = np.sin(x[:, 0]) + 0.05 * rng.standard_normal(50)
    model = sgp_fit(x, y, n_inducing=20, seed=2, iters=150)
    xs = np.linspace(0.3, 5.7, 100)[:, None]
    mean, _ = sgp_predict(model, xs)
    rmse = float(np.sqrt(np.mean((mean - np.sin(xs[:, 0])) ** 2)))
    assert rmse < float(np.std(y))
    mean_ref, _ = _exact_gp_predict(
        x, y, xs, model.s2f, model.lengthscale, model.noise)
    rmse_ref = float(np.sqrt(np.mean((mean_ref - np.sin(xs[:, 0])) ** 2)))
    assert rmse < rmse_ref + 0.1


def test_sgp_interpolation_and_far_field():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(12, 1))
    y = np.cos(2.0 * x[:, 0])
    model = sgp_fit(x, y, n_inducing=12, seed=0, hypers=(1.0, 0.5, 1e-8))
    mean, _ = sgp_predict(model, x)
    assert np.max(np.abs(mean - y)) < 1e-3

    far = np.array([[1e3]])
    mean_far, var_far = sgp_predict(model, far)
    assert abs(mean_far[0] - y.mean()) < 1e-9
    assert abs(var_far[0] - (model.s2f + model.noise)) < 1e-9


def test_sgp_loglik_matches_normal_density():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 2))
    y = x[:, 0] - x[:, 1]
    model = sgp_fit(x, y, n_inducing=8, seed=3, iters=40)
    xs = rng.standard_normal((6, 2))
    ys = rng.standard_normal(6)
    mean, var = sgp_predict(model, xs)
    expect = -0.5 * (np.log(2.0 * math.pi * var) + (ys - mean) ** 2 / var)
    assert np.allclose(sgp_loglik(model, xs, ys), expect, atol=1e-12)


def test_sgp_fit_validation():
    x = np.zeros((5, 2))
    y = np.zeros(5)
    with pytest.raises(ValueError):
        sgp_fit(x, y, n_inducing=0)
    with pytest.raises(ValueError):
        sgp_fit(x, y, n_inducing=6)
    with pytest.raises(ValueError):
        sgp_fit(x, np.zeros(4), n_inducing=2)


@pytest.mark.parametrize("hypers,field", [
    ((1.0, 1.0, 0.0), "noise"), ((0.0, 1.0, 0.1), "s2f"),
    ((1.0, math.inf, 0.1), "lengthscale"), ((1.0, 1.0, -1.0), "noise"),
    ((1.0, math.nan, 0.1), "lengthscale"), ((-2.0, 1.0, 0.1), "s2f")])
def test_sgp_fit_rejects_bad_hypers(hypers, field):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 2))
    with pytest.raises(ValueError, match=f"hypers {field} "):
        sgp_fit(x, x[:, 0], n_inducing=4, hypers=hypers)


def test_sgp_fit_rejects_negative_iters():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((10, 2))
    with pytest.raises(ValueError, match="iters"):
        sgp_fit(x, x[:, 0], n_inducing=4, iters=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sgp_rejects_non_finite_data(bad):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((12, 2))
    y = x[:, 0] - x[:, 1]
    model = sgp_fit(x, y, n_inducing=5, seed=0, iters=5)
    x_bad, y_bad = x.copy(), y.copy()
    x_bad[3, 1] = bad
    y_bad[7] = bad
    with pytest.raises(ValueError, match="^x must be finite"):
        sgp_fit(x_bad, y, n_inducing=5)
    with pytest.raises(ValueError, match="^y must be finite"):
        sgp_fit(x, y_bad, n_inducing=5)
    with pytest.raises(ValueError, match="^xs must be finite"):
        sgp_predict(model, x_bad)
    with pytest.raises(ValueError, match="^xs must be finite"):
        sgp_loglik(model, x_bad, y)
    with pytest.raises(ValueError, match="^ys must be finite"):
        sgp_loglik(model, x, y_bad)


def test_sgp_fit_rejects_overflowing_distances():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((12, 2))
    y = x[:, 0] - x[:, 1]
    x[3, 1] = 1e200  # finite, but its squared distances overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^x is too large"):
            sgp_fit(x, y, n_inducing=5)


def _duplicate_rows(seed=8):
    """Ten random rows, each twice, scored by their first coordinate."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((10, 2))
    return np.vstack([base, base]), np.concatenate([base[:, 0], base[:, 0]])


@pytest.mark.parametrize("case", ["default", "iters0", "hypers",
                                  "duplicates"])
def test_sgp_fit_keeps_factors_of_a_fresh_fitc(case):
    # the model's factors, whether kept from the optimizer's last
    # evaluation or computed after it, equal a fresh _fitc bit for bit
    rng = np.random.default_rng(16)
    x = rng.standard_normal((40, 3))
    y = np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2
    kwargs = {"n_inducing": 15, "seed": 1}
    if case == "iters0":
        kwargs["iters"] = 0
    elif case == "hypers":
        kwargs["hypers"] = (1.3, 0.9, 0.05)
    elif case == "duplicates":
        x, y = _duplicate_rows()
        y = 1e3 * y  # s2f near 2e8: the relative jitter's first rung holds
        kwargs = {"n_inducing": 20, "seed": 0}
    model = sgp_fit(x, y, **kwargs)
    if case == "duplicates":
        assert model.jitter == JITTERS[0]
    li_uu, li_b, _, c = _fitc_at(x, y - float(y.mean()), model.inducing,
                                 model.s2f, model.lengthscale, model.noise,
                                 model.jitter)[:4]
    proj = np.vstack([li_uu, li_b @ li_uu])
    assert np.array_equal(model.proj, proj)
    assert np.array_equal(model.alpha, proj[len(li_uu):].T @ c)


@pytest.mark.parametrize("fail_at", [None, 2])
def test_sgp_fit_does_not_refactorize_at_the_optimum(monkeypatch, fail_at):
    # _fitc runs exactly once per optimizer evaluation.  With fail_at=2 the
    # second evaluation at the first jitter fails after the first one, at
    # the start point, succeeded; the next jitter's evaluation of that
    # same point must run again rather than reuse the kept factors.
    calls = []
    nfev = []
    fitc, minimize = latentopt._fitc, latentopt.minimize

    def counting_fitc(*args):
        calls.append(args[3:])
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError("injected")
        return fitc(*args)

    def recording_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(latentopt, "_fitc", counting_fitc)
    monkeypatch.setattr(latentopt, "minimize", recording_minimize)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((40, 3))
    y = np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2
    model = sgp_fit(x, y, n_inducing=15, seed=2)
    assert len(nfev) == 1 and nfev[0] > 1
    at_fit = [h for h in calls if h[3] == model.jitter]
    assert len(at_fit) == nfev[0]
    assert len(calls) == nfev[0] + (fail_at or 0)
    assert calls[-1] == (model.s2f, model.lengthscale, model.noise,
                         model.jitter)
    if fail_at:
        assert model.jitter == JITTERS[1]
        assert calls[0][:3] == at_fit[0][:3]


def test_sgp_duplicate_rows_survive_via_jitter():
    x, y = _duplicate_rows()               # kernel matrix is singular
    model = sgp_fit(x, y, n_inducing=20, seed=0, hypers=(1.0, 1.0, 1e-9))
    # the first rung already holds; the climb to later rungs is covered by
    # the injected failure in test_sgp_fit_does_not_refactorize_at_the_optimum
    assert model.jitter == JITTERS[0]
    mean, var = sgp_predict(model, x[:10])
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sgp_fit_survives_large_scores(seed):
    # s2f near 1e14: an absolute jitter of 1e-6 is lost in K_uu's rounding
    # and every rung failed; one relative to s2f holds at the first
    x, y = _duplicate_rows(seed)
    model = sgp_fit(x, 1e6 * y, n_inducing=20, seed=seed)
    assert model.jitter == JITTERS[0]
    mean, var = sgp_predict(model, x[:10])
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))


def test_sgp_fit_holds_given_hypers_exactly():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((40, 3))
    y = np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2
    for hypers in ((1.3, 0.9, 0.05), (0.37, 2.9, 0.013), (7.1, 0.11, 0.29)):
        model = sgp_fit(x, y, n_inducing=15, seed=1, hypers=hypers)
        assert (model.s2f, model.lengthscale, model.noise) == hypers


@pytest.mark.parametrize("start,part", [
    ((1.0, 1.0), None), ((1.0, 1.0, 0.1, 2.0), None),
    ((math.nan, 1.0, 0.1), "s2f"), ((1.0, math.inf, 0.1), "lengthscale"),
    ((1.0, 1.0, 0.0), "noise"), ((-1.0, 1.0, 0.1), "s2f")])
def test_sgp_fit_rejects_bad_start(start, part):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 2))
    match = "^start must be" if part is None else f"^start {part} "
    with pytest.raises(ValueError, match=match):
        sgp_fit(x, x[:, 0], n_inducing=4, start=start)


def test_sgp_fit_rejects_start_with_hypers():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 2))
    with pytest.raises(ValueError, match="start"):
        sgp_fit(x, x[:, 0], n_inducing=4, hypers=(1.0, 1.0, 0.1),
                start=(1.0, 1.0, 0.1))


def test_sgp_fit_clips_start_into_the_box(monkeypatch):
    seen = []
    minimize = latentopt.minimize

    def recording_minimize(fun, x0, **kwargs):
        seen.append((np.array(x0), kwargs["bounds"]))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(latentopt, "minimize", recording_minimize)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((40, 3))
    y = np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2
    cold = sgp_fit(x, y, n_inducing=15, seed=1, iters=5)
    lo, hi = np.array(seen[0][1]).T
    assert np.array_equal(hi - lo, np.full(3, 2.0 * HYPER_BOX))
    start = (1e30, cold.lengthscale, 1e-30)  # above, inside, below the box
    warm = sgp_fit(x, y, n_inducing=15, seed=1, iters=5, start=start)
    x0, bounds = seen[1]
    assert bounds == seen[0][1]  # the box stays centred on the data's point
    assert np.array_equal(x0, [hi[0], math.log(cold.lengthscale), lo[2]])
    assert lo[0] <= math.log(warm.s2f) <= hi[0]
    held = sgp_fit(x, y, n_inducing=15, seed=1, iters=0, start=start)
    assert len(seen) == 2  # iters=0 holds the clipped start, no optimizer
    assert (held.s2f, held.noise) == (math.exp(hi[0]), math.exp(lo[2]))
    assert held.lengthscale == pytest.approx(cold.lengthscale, rel=1e-15)


def _fitc_at(x, yc, xu, s2f, lengthscale, noise, jitter):
    """``_fitc`` on the data rows and inducing inputs themselves."""
    return _fitc(_sqdist(xu, xu), _sqdist(xu, x), yc, s2f, lengthscale,
                 noise, jitter)


def _dense_fitc_log_marginal(x, yc, xu, s2f, lengthscale, noise, jitter):
    """O(n^3) log N(yc; 0, K_fu K_uu^-1 K_uf + diag(lam)), no Woodbury."""

    def kern(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return s2f * np.exp(-0.5 * d2 / lengthscale ** 2)

    kuu = kern(xu, xu) + jitter * s2f * np.eye(len(xu))
    kuf = kern(xu, x)
    qff = kuf.T @ np.linalg.solve(kuu, kuf)
    cov = qff + np.diag(s2f - np.diag(qff) + noise)
    return multivariate_normal(np.zeros(len(yc)), cov).logpdf(yc)


@pytest.mark.parametrize("hypers", [(1.3, 0.9, 0.05), (0.4, 1.5, 0.3),
                                    (2.5, 0.4, 0.01)])
def test_fitc_log_marginal_matches_dense_density(hypers):
    rng = np.random.default_rng(12)
    for n, m in ((30, 7), (12, 12), (5, 1)):
        x = rng.uniform(-2.0, 2.0, size=(n, 2))
        yc = rng.standard_normal(n)
        xu = x[rng.choice(n, size=m, replace=False)]
        lml = _fitc_at(x, yc, xu, *hypers, 1e-10)[4]
        ref = _dense_fitc_log_marginal(x, yc, xu, *hypers, 1e-10)
        assert abs(lml - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("n,m,hypers,jitter", [
    (30, 10, (1.3, 0.9, 0.05), 1e-10),
    (30, 30, (0.4, 1.5, 0.3), 1e-8),
    (60, 25, (2.5, 0.4, 0.01), 1e-6),
    (8, 8, (1.0, 2.0, 1e-3), 1e-6),
    (5, 1, (0.7, 0.6, 0.2), 1e-10),
    (20, 12, (2.0, 0.7, 0.1), 1e-1),  # jitter large enough to see in dK_uu
])
def test_fitc_gradient_matches_central_differences(n, m, hypers, jitter):
    rng = np.random.default_rng(n + m)
    x = rng.uniform(-2.0, 2.0, size=(n, 3))
    yc = rng.standard_normal(n)
    xu = x[rng.choice(n, size=m, replace=False)]
    log_h = np.log(hypers)
    grad = _fitc_at(x, yc, xu, *hypers, jitter)[5]
    step = 1e-5
    fd = np.array([
        (_fitc_at(x, yc, xu, *np.exp(log_h + e), jitter)[4]
         - _fitc_at(x, yc, xu, *np.exp(log_h - e), jitter)[4]) / (2.0 * step)
        for e in step * np.eye(3)])
    assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))


def _fitc_by_solves(d_uu, d_uf, yc, s2f, lengthscale, noise, jitter):
    """``_fitc`` by triangular solves against L_uu and L_b instead of
    products with their inverses: the reference for its algebra.  Returns
    (L_uu, L_b, c, log marginal likelihood, gradient)."""
    m = d_uu.shape[0]
    inv_l2 = 1.0 / lengthscale ** 2
    kuu = s2f * np.exp(-0.5 * inv_l2 * d_uu)
    kuu_jit = kuu + (jitter * s2f) * np.eye(m)
    l_uu = np.linalg.cholesky(kuu_jit)
    kuf = s2f * np.exp(-0.5 * inv_l2 * d_uf)
    a = solve_triangular(l_uu, kuf, lower=True)
    lam = s2f - np.einsum("mn,mn->n", a, a) + noise
    sqrt_lam = np.sqrt(lam)
    l_b = np.linalg.cholesky(np.eye(m) + (a / sqrt_lam) @ (a / sqrt_lam).T)
    v = solve_triangular(l_b, a / sqrt_lam, lower=True) / sqrt_lam
    c = v @ yc
    log_det = np.log(lam).sum() + 2.0 * np.log(np.diag(l_b)).sum()
    lml = -0.5 * (len(yc) * math.log(2.0 * math.pi) + log_det
                  + yc @ (yc / lam) - c @ c)
    alpha = yc / lam - v.T @ c
    r = alpha ** 2 - 1.0 / lam + np.einsum("mn,mn->n", v, v)
    h = (np.outer(solve_triangular(l_b, c, trans=1, lower=True), alpha)
         - solve_triangular(l_b, v, trans=1, lower=True) - a * r)
    g = solve_triangular(l_uu, h, trans=1, lower=True)
    a_gt = a @ g.T
    gpt = solve_triangular(l_uu, a_gt, trans=1, lower=True)
    grad = 0.5 * np.array([
        2.0 * np.einsum("ij,ji->", l_uu, a_gt)
        - np.einsum("ij,ij->", gpt, kuu_jit) + s2f * r.sum(),
        inv_l2 * (2.0 * np.einsum("mn,mn->", g, d_uf * kuf)
                  - np.einsum("ij,ij,ij->", gpt, kuu, d_uu)),
        noise * r.sum()])
    return l_uu, l_b, c, lml, grad


def _predict_by_solves(model, x, y, xs, best):
    """Predictive mean and variance at the rows of ``xs``, and -EI and its
    gradient at each row, by triangular solves against the factors of
    ``_fitc_by_solves`` on the model's data: the reference for
    ``_predictive`` and ``_neg_ei``."""
    xu = model.inducing
    l_uu, l_b, c = _fitc_by_solves(
        _sqdist(xu, xu), _sqdist(xu, x), y - y.mean(), model.s2f,
        model.lengthscale, model.noise, model.jitter)[:3]
    alpha = solve_triangular(l_uu.T, solve_triangular(l_b.T, c, lower=False),
                             lower=False)
    ks = model.s2f * np.exp(-0.5 * _sqdist(xs, xu) / model.lengthscale ** 2)
    t1 = solve_triangular(l_uu, ks.T, lower=True)
    t2 = solve_triangular(l_b, t1, lower=True)
    mean = ks @ alpha + y.mean()
    var = np.maximum(model.s2f - np.einsum("mn,mn->n", t1, t1)
                     + np.einsum("mn,mn->n", t2, t2), 0.0) + model.noise
    wk = solve_triangular(l_uu, t1 - solve_triangular(l_b, t2, trans=1,
                                                      lower=True),
                          trans=1, lower=True)
    neg_ei = []
    for i, v in enumerate(xs):
        sd = math.sqrt(var[i])
        z = (mean[i] - best) / sd
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        big_phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        dk = ks[i][:, None] * (xu - v) / model.lengthscale ** 2
        d_var = -2.0 * (wk[:, i] @ dk) if var[i] > model.noise else 0.0
        neg_ei.append((-sd * (z * big_phi + phi),
                       -(big_phi * (alpha @ dk) + phi * d_var / (2.0 * sd))))
    return mean, var, neg_ei


def _close(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _assert_matches_solves(x, y, model, rel):
    yc = y - y.mean()
    xu = model.inducing
    args = (_sqdist(xu, xu), _sqdist(xu, x), yc, model.s2f,
            model.lengthscale, model.noise, model.jitter)
    lml, grad = _fitc(*args)[4:]
    lml_ref, grad_ref = _fitc_by_solves(*args)[3:]
    assert _close(lml, lml_ref, rel)
    assert _close(grad, grad_ref, rel)
    rng = np.random.default_rng(len(x))
    xs = np.vstack([x[:5], x[:5] + 0.3 * rng.standard_normal((5, x.shape[1]))])
    best = float(np.median(y))
    mean_ref, var_ref, neg_ei_ref = _predict_by_solves(model, x, y, xs, best)
    mean, var = sgp_predict(model, xs)
    assert _close(mean, mean_ref, rel)
    assert _close(var, var_ref, rel)
    checked = 0
    for v, (value_ref, grad_ref) in zip(xs, neg_ei_ref):
        if -value_ref < 1e-6:  # far tail: EI's relative error grows as z^2
            continue
        value, grad = _neg_ei(v, model, best)
        assert _close(value, value_ref, rel)
        assert _close(grad, grad_ref, rel)
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("hypers", [(1.0, 1.0, 0.1), (2.0, 2.0, 0.05),
                                    (1.0, 3.0, 0.01)])
@pytest.mark.parametrize("n,m,d", [(40, 15, 3), (120, 40, 6), (200, 100, 10)])
def test_inverse_factors_match_triangular_solves(n, m, d, hypers):
    # K_uu's condition number is at most about 1e6 here
    rng = np.random.default_rng(n + d)
    x = rng.standard_normal((n, d))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    model = sgp_fit(x, y, n_inducing=m, seed=0, hypers=hypers)
    _assert_matches_solves(x, y, model, 1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("hypers", [(1.0, 1.0, 1e-9), (2.0, 0.5, 1e-3)])
def test_inverse_factors_match_solves_on_singular_kernels(seed, hypers):
    # every row twice: K_uu is singular but for its 1e-10 jitter
    x, y = _duplicate_rows(seed)
    model = sgp_fit(x, y, n_inducing=20, seed=seed, hypers=hypers)
    assert model.jitter == JITTERS[0]
    _assert_matches_solves(x, y, model, 1e-6)


@st.composite
def _lower_triangles(draw):
    """A well-conditioned lower-triangular matrix in C, Fortran or
    strided layout, and a diagonal index."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    l = np.tril(rng.normal(size=(n, n))) + n * np.eye(n)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    l = {"C": lambda: l, "F": lambda: np.asfortranarray(l),
         "strided": lambda: np.repeat(l, 2, axis=1)[:, ::2]}[layout]()
    return l, draw(st.integers(0, n - 1))


@settings(max_examples=200)
@given(_lower_triangles())
def test_tri_inv_inverts_and_raises_on_zero_pivot(case):
    l, pivot = case
    inv = _tri_inv(l)
    ref = solve_triangular(l, np.eye(len(l)), lower=True)
    assert np.array_equal(inv, np.tril(inv))
    assert np.max(np.abs(inv - ref)) <= 1e-13 * np.max(np.abs(ref))
    l = np.array(l)
    l[pivot, pivot] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _tri_inv(l)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sgp_fit_raises_log_marginal(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, 3))
    y = np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(40)

    def lml(model):
        hypers = (model.s2f, model.lengthscale, model.noise)
        return _fitc_at(x, y - y.mean(), model.inducing, *hypers,
                     model.jitter)[4]

    start = sgp_fit(x, y, n_inducing=15, seed=seed, iters=0)
    fitted = sgp_fit(x, y, n_inducing=15, seed=seed)
    assert np.array_equal(start.inducing, fitted.inducing)
    assert start.jitter == fitted.jitter
    assert lml(fitted) > lml(start)


# ---------------------------------------------------------------------------
# expected improvement


def test_ei_zero_variance():
    assert expected_improvement(0.5, 0.0, 1.0) == 0.0
    assert expected_improvement(1.0, 0.0, 1.0) == 0.0
    assert expected_improvement(1.7, 0.0, 1.0) == pytest.approx(0.7)


def test_ei_at_mean_equal_best():
    for sd in (0.1, 1.0, 3.0):
        ei = float(expected_improvement(2.0, sd ** 2, 2.0))
        assert ei == pytest.approx(sd / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert ei == pytest.approx(0.3989 * sd, rel=1e-3)


def test_ei_matches_monte_carlo():
    rng = np.random.default_rng(9)
    cases = [(0.3, 0.25, 0.0), (-0.2, 1.0, 0.1), (1.0, 0.0625, 0.5)]
    draws = rng.standard_normal(1_000_000)
    for mean, var, best in cases:
        mc = float(np.mean(np.maximum(mean + math.sqrt(var) * draws - best, 0.0)))
        ei = float(expected_improvement(mean, var, best))
        assert abs(ei - mc) / mc < 0.01


def test_ei_objective_matches_predict_and_gradient():
    rng = np.random.default_rng(10)
    checked = 0
    for n, m, d in ((40, 15, 3), (25, 25, 2), (30, 6, 8)):
        x = rng.standard_normal((n, d))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        model = sgp_fit(x, y, n_inducing=m, seed=0)
        best = float(y.max())
        for _ in range(8):
            v = 1.5 * rng.standard_normal(d)
            value, grad = _neg_ei(v, model, best)
            mean, var = sgp_predict(model, v)
            ref = expected_improvement(mean, var, best)[0]
            assert value == -ref
            if ref < 1e-6:   # far tail: EI and its differences underflow
                continue
            assert var[0] > model.noise
            step = 1e-6
            fd = np.array([(_neg_ei(v + e, model, best)[0]
                            - _neg_ei(v - e, model, best)[0]) / (2.0 * step)
                           for e in step * np.eye(d)])
            assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))
            checked += 1
    assert checked >= 10


def test_ei_nonnegative_and_monotone_in_mean():
    means = np.linspace(-5.0, 5.0, 201)
    ei = expected_improvement(means, np.full_like(means, 0.49), 0.3)
    assert np.all(ei >= 0.0)
    assert np.all(np.diff(ei) > 0.0)
    with pytest.raises(ValueError):
        expected_improvement(0.0, -1.0, 0.0)


# ---------------------------------------------------------------------------
# BO loop


class _Token:
    """Stand-in decode product for the 1D toy problem."""

    def __init__(self, x):
        self.x = float(x)


def test_bo_1d_toy_finds_optimum():
    f = lambda x: -((x - 0.37) ** 2)
    x0 = np.array([-1.0, -0.4, 0.2, 0.8, 1.4])[:, None]
    y0 = f(x0[:, 0])
    calls = {"n": 0}

    def oracle(tok):
        calls["n"] += 1
        return f(tok.x)

    result = bo_loop(x0, y0, decode_fn=lambda v: _Token(v[0]), oracle=oracle,
                     iters=5, batch=5, seed=11,
                     valid_fn=lambda tok: True,
                     key_fn=lambda tok: round(tok.x, 9))
    assert calls["n"] <= 25
    assert result.oracle_calls == calls["n"]
    best_tok, best_score = result.ranked[0]
    assert abs(best_tok.x - 0.37) <= 0.05
    assert best_score == pytest.approx(f(best_tok.x))
    trace = [h["best_so_far"] for h in result.history]
    assert trace == sorted(trace)
    for h, sec in zip(result.history, result.seconds, strict=True):
        assert h["s2f"] > 0 and h["lengthscale"] > 0 and h["noise"] > 0
        assert h["jitter"] in latentopt.JITTERS and h["max_ei"] >= 0.0
        assert h["ascent_picks"] + h["random_picks"] == h["proposed"] == 5
        assert 1 <= h["ascent_picks"] <= latentopt.EI_STARTS
        assert sec["iteration"] == h["iteration"]
        assert all(sec[k] >= 0.0 for k in ("fit", "propose", "decode",
                                           "oracle"))
    again = bo_loop(x0, y0, decode_fn=lambda v: _Token(v[0]),
                    oracle=lambda tok: f(tok.x),
                    iters=5, batch=5, seed=11, valid_fn=lambda tok: True,
                    key_fn=lambda tok: round(tok.x, 9))
    assert again.history == result.history


def test_propose_by_ei_counts_its_ascent_picks(monkeypatch):
    # the first ascent_picks proposals are ascent optima, the rest uniform
    # draws, whether the batch is smaller or larger than EI_STARTS
    ascended = []
    minimize = latentopt.minimize

    def recording_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        ascended.append(res.x)
        return res

    rng = np.random.default_rng(19)
    x = rng.standard_normal((30, 2))
    y = np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2
    model = sgp_fit(x, y, n_inducing=10, seed=0)
    monkeypatch.setattr(latentopt, "minimize", recording_minimize)
    for count in (3, 20):
        ascended.clear()
        picked, ascents, _ = latentopt._propose_by_ei(model, x, float(y.max()),
                                                     count, rng)
        assert len(ascended) == latentopt.EI_STARTS and len(picked) == count
        from_ascent = [any(np.array_equal(p, a) for a in ascended)
                       for p in picked]
        assert from_ascent == [True] * ascents + [False] * (count - ascents)
        assert 1 <= ascents <= min(count, latentopt.EI_STARTS)


def test_bo_loop_warm_starts_each_refit(monkeypatch):
    # iteration k >= 1 starts its fit at iteration k-1's hyperparameters;
    # iteration 0, whose GP is initial_model, starts from the data
    fits = []
    sgp_fit = latentopt.sgp_fit

    def recording_fit(*args, **kwargs):
        model = sgp_fit(*args, **kwargs)
        fits.append((kwargs.get("start"), model))
        return model

    monkeypatch.setattr(latentopt, "sgp_fit", recording_fit)
    f = lambda x: -((x - 0.37) ** 2)
    x0 = np.array([-1.0, -0.4, 0.2, 0.8, 1.4])[:, None]
    result = bo_loop(x0, f(x0[:, 0]), decode_fn=lambda v: _Token(v[0]),
                     oracle=lambda tok: f(tok.x), iters=4, batch=5, seed=11,
                     valid_fn=lambda tok: True,
                     key_fn=lambda tok: round(tok.x, 9))
    assert len(fits) == 4
    assert fits[0][0] is None and result.initial_model is fits[0][1]
    for (start, _), (_, previous) in zip(fits[1:], fits):
        assert start == (previous.s2f, previous.lengthscale, previous.noise)


@pytest.mark.parametrize("batch", [0, -3])
def test_bo_loop_rejects_an_empty_batch(monkeypatch, batch):
    calls = []
    monkeypatch.setattr(latentopt, "sgp_fit",
                        lambda *a, **k: calls.append("fit"))
    x0 = np.array([-1.0, -0.4, 0.2, 0.8, 1.4])[:, None]
    with pytest.raises(ValueError, match="batch"):
        bo_loop(x0, -x0[:, 0] ** 2, decode_fn=lambda v: calls.append("decode"),
                oracle=lambda tok: calls.append("oracle"), iters=2,
                batch=batch, seed=11)
    assert calls == []


def test_bo_never_scores_invalid():
    valid = random_molecule(np.random.default_rng(0), 6, DEFAULT_TABLE)
    invalid = MolecularGraph(("O", "C"), [(0, 1, 3)])   # oxygen over valence
    cycle = [valid, invalid, None]
    state = {"i": 0}

    def decode(v):
        out = cycle[state["i"] % 3]
        state["i"] += 1
        return out

    seen = []

    def oracle(g):
        seen.append(g)
        return 1.0

    result = bo_loop(np.linspace(-1, 1, 6)[:, None], np.zeros(6),
                     decode_fn=decode, oracle=oracle, iters=2, batch=6, seed=0)
    assert all(g is valid for g in seen)
    # each batch of 6: 2 valid, 2 invalid, 2 failed decodes
    assert result.fraction_valid == pytest.approx(0.5)
    assert result.oracle_calls == len(seen) == 4


def test_bo_constant_oracle_terminates():
    rng = np.random.default_rng(12)
    mols = [random_molecule(np.random.default_rng(s), 5, DEFAULT_TABLE)
            for s in range(40)]
    state = {"i": 0}

    def decode(v):
        g = mols[state["i"] % len(mols)]
        state["i"] += 1
        return g

    result = bo_loop(rng.standard_normal((8, 2)), np.zeros(8),
                     decode_fn=decode, oracle=lambda g: 2.0,
                     iters=2, batch=5, seed=1)
    assert result.ranked and all(s == 2.0 for _, s in result.ranked)
    assert 0.0 <= result.fraction_unique <= 1.0
    assert result.fraction_valid == 1.0


def test_bo_dedup_by_certificate():
    g = random_molecule(np.random.default_rng(3), 6, DEFAULT_TABLE)
    relabeled = g.relabel([5, 4, 3, 2, 1, 0])
    state = {"i": 0}

    def decode(v):
        out = g if state["i"] % 2 == 0 else relabeled
        state["i"] += 1
        return out

    result = bo_loop(np.linspace(0, 1, 5)[:, None], np.zeros(5),
                     decode_fn=decode, oracle=lambda m: float(m.n),
                     iters=1, batch=6, seed=2)
    assert len(result.ranked) == 1
    assert result.fraction_unique == pytest.approx(1.0 / 6.0)


def test_bo_scores_molecules_above_certificate_limit():
    chain = MolecularGraph(("C",) * 70, [(i, i + 1, 1) for i in range(69)])
    relabeled = chain.relabel([35] + list(range(1, 35)) + [0]
                              + list(range(36, 70)))
    assert relabeled != chain
    decodes = [chain, chain, relabeled, None]
    state = {"i": 0}

    def decode(v):
        out = decodes[state["i"] % 4]
        state["i"] += 1
        return out

    result = bo_loop(np.linspace(-1, 1, 5)[:, None], np.zeros(5),
                     decode_fn=decode, oracle=lambda g: float(g.n),
                     iters=1, batch=4, seed=3)
    assert result.oracle_calls == 3
    # keyed by the labelled graph: the exact duplicate merges, the
    # relabelled copy does not
    assert [g for g, _ in result.ranked] in ([chain, relabeled],
                                             [relabeled, chain])


def _encoding_model_and_corpus():
    model = init_model(np.random.default_rng(17),
                       Hyperparams(D=4, K=2, iterations=1))
    mols = [random_molecule(np.random.default_rng(200 + s), 5 + s % 3,
                            DEFAULT_TABLE) for s in range(6)]
    embs = np.array([molecule_embedding(posterior(g, model.encoder,
                                                  model.table))
                     for g in mols])
    return model, mols, embs


def test_molecule_decoder_encodes_each_seed_once(monkeypatch):
    model, mols, embs = _encoding_model_and_corpus()
    D = model.encoder.D

    def reencoding_decoder(rng):
        # the decode step as it reads without the posterior store
        def decode(v):
            nearest = int(np.argmin(((embs - v) ** 2).sum(axis=1)))
            post = posterior(mols[nearest], model.encoder, model.table)
            mu = post.mu.data + (v[:D] - embs[nearest][:D])
            z = mu + post.sigma.data * rng.standard_normal(mu.shape)
            return sample_graph(model.decoder, rng, z=z, mask_kind="valence",
                                table=model.table)[0]
        return decode

    calls = []

    def counting_posterior(g, *args):
        calls.append(g)
        return posterior(g, *args)

    monkeypatch.setattr(latentopt, "posterior", counting_posterior)
    cached = make_molecule_decoder(model, mols, embs,
                                   np.random.default_rng(23))
    reference = reencoding_decoder(np.random.default_rng(23))
    prop = np.random.default_rng(29)
    nearest = set()
    for _ in range(30):
        v = embs[prop.integers(len(mols))] + 0.05 * prop.standard_normal(
            embs.shape[1])
        nearest.add(int(np.argmin(((embs - v) ** 2).sum(axis=1))))
        got, want = cached(v), reference(v)
        assert (got.atom_types, got.bonds) == (want.atom_types, want.bonds)
    assert len(calls) == len(nearest) < 30


def test_molecule_pipeline_decodes_valid():
    rng = np.random.default_rng(13)
    hyper = Hyperparams(D=4, K=2, iterations=1)
    model = init_model(rng, hyper)
    mols = [random_molecule(np.random.default_rng(100 + s), 6, DEFAULT_TABLE)
            for s in range(10)]
    embs = np.array([molecule_embedding(posterior(m, model.encoder, model.table))
                     for m in mols])
    decode = make_molecule_decoder(model, mols, embs, rng, mask_kind="valence")
    lam = float(np.mean([m.n for m in mols]))
    oracle = partial(proxy_property, lambda_n=lam)
    scores = np.array([oracle(m) for m in mols])
    result = bo_loop(embs, scores, decode_fn=decode, oracle=oracle,
                     iters=1, batch=4, seed=5)
    assert result.fraction_valid == 1.0
    assert all(isinstance(g, MolecularGraph) for g, _ in result.ranked)


def test_molecule_decoder_validation():
    rng = np.random.default_rng(14)
    model = init_model(rng, Hyperparams(D=4, K=2, iterations=1))
    mols = [random_molecule(rng, 5, DEFAULT_TABLE) for _ in range(3)]
    with pytest.raises(ValueError):
        make_molecule_decoder(model, mols, np.zeros((2, 8)), rng)


# ---------------------------------------------------------------------------
# proxy property


def _ring(n, chords=()):
    bonds = [(i, (i + 1) % n, 1) for i in range(n)] + \
        [(u, v, 1) for u, v in chords]
    return MolecularGraph(("C",) * n, bonds)


def test_proxy_property_acyclic():
    path = MolecularGraph(("C", "C", "C"), [(0, 1, 1), (1, 2, 1)])
    assert proxy_property(path, lambda_n=3.0) == pytest.approx(4.0 / 3.0)
    assert proxy_property(path, lambda_n=5.0) == pytest.approx(4.0 / 3.0 - 0.2)


def test_proxy_property_long_cycles():
    assert proxy_property(_ring(8), lambda_n=8.0) == pytest.approx(2.0 - 0.5)
    assert proxy_property(_ring(10), lambda_n=10.0) == pytest.approx(1.5)
    # 6-rings and smaller carry no penalty
    assert proxy_property(_ring(6), lambda_n=6.0) == pytest.approx(2.0)
    # a chord splits a 7-ring into a 4-cycle and a 5-cycle: no penalty
    chord7 = _ring(7, chords=[(0, 3)])
    assert proxy_property(chord7, lambda_n=7.0) == pytest.approx(16.0 / 7.0)


def test_proxy_property_fused_hexagons():
    # two 6-rings sharing one edge: basis lengths {6, 6}, no long cycle
    bonds = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1),
             (5, 6, 1), (6, 7, 1), (7, 8, 1), (8, 9, 1), (9, 0, 1)]
    g = MolecularGraph(("C",) * 10, bonds)
    assert _min_cycle_basis_lengths(g) == [6, 6]
    assert proxy_property(g, lambda_n=10.0) == pytest.approx(2.2)


def test_proxy_property_relabeling_equal():
    rng = np.random.default_rng(15)
    for seed in range(8):
        g = random_molecule(np.random.default_rng(seed), 9, DEFAULT_TABLE)
        perm = list(rng.permutation(g.n))
        assert proxy_property(g, 8.0) == proxy_property(g.relabel(perm), 8.0)


def test_proxy_property_invalid_raises():
    broken = MolecularGraph(("O", "C"), [(0, 1, 3)])
    with pytest.raises(ValueError):
        proxy_property(broken)
    # disconnected but valence-consistent molecules still score: the gate
    # matches the masked decoder's guarantee, not the stricter metrics one
    disconnected = MolecularGraph(("C", "C", "C"), [(0, 1, 1)])
    assert proxy_property(disconnected, lambda_n=3.0) == pytest.approx(2.0 / 3.0)


def test_import_leaves_scipy_unloaded():
    """SciPy loads only once a GP is fitted or an EI ascent runs."""
    src = str(Path(latentopt.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, molvae.latentopt;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _horton_lengths_by_path_walks(g):
    """Minimum cycle basis lengths with each candidate's tree paths walked
    parent by parent: the bitmask algorithm's reference."""
    n = g.n
    edges = [(u, v) for u, v, _ in g.bonds]
    eidx = {e: i for i, e in enumerate(edges)}
    adj = g.adjacency()
    dim = len(edges) - n + len(connected_components(g))
    if not edges or dim == 0:
        return []
    candidates = []
    for root in range(n):
        dist, parent, queue = {root: 0}, {root: None}, [root]
        while queue:
            nxt = []
            for u in queue:
                for v, _ in adj[u]:
                    if v not in dist:
                        dist[v], parent[v] = dist[u] + 1, u
                        nxt.append(v)
            queue = nxt

        def path_edges(t):
            out = []
            while parent[t] is not None:
                p = parent[t]
                out.append(eidx[(min(p, t), max(p, t))])
                t = p
            return out

        for u, v in edges:
            if u in dist and v in dist:
                mask = 0
                for i in path_edges(u) + path_edges(v) + [eidx[(u, v)]]:
                    mask ^= 1 << i
                if bin(mask).count("1") >= 3:
                    candidates.append((bin(mask).count("1"), mask))
    candidates.sort(key=lambda c: c[0])
    basis, lengths = [], []
    for length, mask in candidates:
        for b in basis:
            mask = min(mask, mask ^ b)
        if mask:
            basis.append(mask)
            lengths.append(length)
            if len(basis) == dim:
                break
    return sorted(lengths)


def test_min_cycle_basis_lengths_match_path_walks():
    rng = np.random.default_rng(18)
    cyclic = 0
    for _ in range(400):
        n = int(rng.integers(3, 15))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # a sparse random tree plus up to n chords: many fused rings, some
        # graphs disconnected where a tree edge is dropped
        bonds = {(int(rng.integers(v)), v) for v in range(1, n)
                 if rng.random() < 0.9}
        for i in rng.choice(len(pairs), size=int(rng.integers(0, n + 1)),
                            replace=False):
            bonds.add(pairs[i])
        g = MolecularGraph(("C",) * n, [(u, v, 1) for u, v in bonds])
        want = _horton_lengths_by_path_walks(g)
        assert _min_cycle_basis_lengths(g) == want
        cyclic += bool(want)
    assert cyclic > 250


def test_min_cycle_basis_lengths():
    k4 = MolecularGraph(("C",) * 4, [(u, v, 1) for u in range(4)
                                     for v in range(u + 1, 4)])
    assert _min_cycle_basis_lengths(k4) == [3, 3, 3]
    assert _min_cycle_basis_lengths(_ring(5)) == [5]
    tree = MolecularGraph(("C",) * 4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    assert _min_cycle_basis_lengths(tree) == []
    # invariance of the sorted length multiset under relabeling
    rng = np.random.default_rng(16)
    g = _ring(7, chords=[(0, 3), (1, 5)])
    base = _min_cycle_basis_lengths(g)
    for _ in range(6):
        perm = list(rng.permutation(g.n))
        assert _min_cycle_basis_lengths(g.relabel(perm)) == base
