"""Autodiff engine: per-op gradient checks, stability, tape determinism, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molvae import tensor as T


def _check(loss_fn, params, tol=1e-6, h=1e-5):
    err = T.finite_diff_check(loss_fn, params, h=h)
    assert err < tol, f"finite-difference mismatch: {err:.3e}"


def test_add_sub_mul_grads():
    rng = np.random.default_rng(0)
    a = T.Tensor(rng.normal(size=(3, 4)))
    b = T.Tensor(rng.normal(size=(3, 4)))

    _check(lambda: T.sum_all((a + b) * a - b), [a, b])


def test_broadcast_grads():
    rng = np.random.default_rng(1)
    a = T.Tensor(rng.normal(size=(5, 3)))
    row = T.Tensor(rng.normal(size=(3,)))
    col = T.Tensor(rng.normal(size=(5, 1)))
    scalar = T.Tensor(0.7)

    _check(lambda: T.sum_all((a + row) * col + scalar), [a, row, col, scalar])


def test_linear_grads():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.normal(size=(6, 4)))
    w = T.Tensor(rng.normal(size=(3, 4)))
    _check(lambda: T.sum_all(T.square(T.linear(x, w))), [x, w])


def test_linear_matches_blas():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 7))
    w = rng.normal(size=(5, 7))
    out = T.linear(T.Tensor(x), T.Tensor(w)).data
    assert np.max(np.abs(out - x @ w.T)) <= 1e-12


@st.composite
def _rows_and_weights(draw):
    """x (n x D), contiguous or one of three strided layouts, and w."""
    n, d = draw(st.integers(1, 64)), draw(st.integers(1, 32))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "fortran", "row_step",
                                   "col_step"]))
    x = {"contiguous": lambda: rng.normal(size=(n, d)),
         "fortran": lambda: np.asfortranarray(rng.normal(size=(n, d))),
         "row_step": lambda: rng.normal(size=(2 * n, d))[::2],
         "col_step": lambda: rng.normal(size=(n, 2 * d))[:, ::2]}[layout]()
    return x, rng.normal(size=(k, d)), rng.permutation(n)


@settings(max_examples=200)
@given(_rows_and_weights())
def test_linear_is_row_stable(case):
    # permuting the input rows must permute the output rows bit-for-bit,
    # whatever the memory layout of x
    x, w, perm = case
    out = T.linear(T.Tensor(x), T.Tensor(w)).data
    out_p = T.linear(T.Tensor(x[perm]), T.Tensor(w)).data
    assert np.array_equal(out[perm], out_p)


def test_exp_log_softplus_grads():
    rng = np.random.default_rng(5)
    a = T.Tensor(rng.normal(size=(4, 4)))
    p = T.Tensor(np.abs(rng.normal(size=(4, 4))) + 0.5)
    _check(lambda: T.sum_all(T.exp(a) + T.log(p) + T.softplus(a * 3.0)), [a, p])


def test_softplus_extreme_inputs_finite():
    x = T.Tensor([-1e6, -50.0, 0.0, 50.0, 1e6])
    out = T.softplus(x).data
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0
    assert np.isclose(out[4], 1e6)
    assert np.isclose(out[2], np.log(2.0))


def test_logsumexp_stability_and_grads():
    out = T.logsumexp(T.Tensor([1000.0, 1000.0]), axis=0)
    assert np.isclose(out.item(), 1000.0 + np.log(2.0))
    out = T.logsumexp(T.Tensor([-1e6, -1e6 + 1.0]), axis=0)
    assert np.isfinite(out.item())

    rng = np.random.default_rng(6)
    a = T.Tensor(rng.normal(size=(7,)))
    _check(lambda: T.logsumexp(a, axis=0), [a])
    m = T.Tensor(rng.normal(size=(3, 5)))
    _check(lambda: T.sum_all(T.square(T.logsumexp(m, axis=1))), [m])
    _check(lambda: T.sum_all(T.square(T.logsumexp(m, axis=0))), [m])


def test_log_domain_error_before_tape_write():
    a = T.Tensor([1.0, -1.0])
    with T.Tape() as tape:
        with pytest.raises(ValueError):
            T.log(a)
    assert len(tape) == 0


def test_exp_overflow_raises():
    with pytest.raises(FloatingPointError):
        T.exp(T.Tensor([1000.0]))


def test_sum_axis_grads():
    rng = np.random.default_rng(8)
    a = T.Tensor(rng.normal(size=(4, 5)))
    _check(lambda: T.sum_all(T.square(T.sum_axis(a, axis=0))), [a])
    _check(lambda: T.sum_all(T.square(T.sum_axis(a, axis=1, keepdims=True))), [a])


def test_gather_rows_grads_with_repeats():
    rng = np.random.default_rng(9)
    a = T.Tensor(rng.normal(size=(5, 3)))
    idx = np.array([0, 2, 2, 4])  # repeated row must accumulate
    _check(lambda: T.sum_all(T.square(T.gather_rows(a, idx))), [a])
    v = T.Tensor(rng.normal(size=(6,)))
    _check(lambda: T.sum_all(T.square(T.gather_rows(v, np.array([1, 1, 3])))), [v])


def test_concat_reshape_grads():
    rng = np.random.default_rng(10)
    a = T.Tensor(rng.normal(size=(2, 3)))
    b = T.Tensor(rng.normal(size=(4, 3)))

    def loss():
        c = T.concat([a, b], axis=0)
        return T.sum_all(T.square(T.reshape(c, (3, 6))))

    _check(loss, [a, b])


def test_unreachable_param_gets_zero_grad():
    a = T.Tensor([1.0, 2.0])
    b = T.Tensor([3.0])
    with T.Tape() as tape:
        loss = T.sum_all(T.square(a))
    ga, gb = tape.gradients(loss, [a, b])
    assert np.allclose(ga, 2.0 * a.data)
    assert np.array_equal(gb, np.zeros(1))


def test_gradients_rejects_nonscalar_loss():
    a = T.Tensor([1.0, 2.0])
    with T.Tape() as tape:
        out = T.square(a)
    with pytest.raises(ValueError):
        tape.gradients(out, [a])


def test_shared_subexpression_accumulates():
    a = T.Tensor(1.5)
    with T.Tape() as tape:
        s = T.square(a)
        loss = T.sum_all(s * 2.0 + s * 3.0)  # d/da = 5 * 2a
    (g,) = tape.gradients(loss, [a])
    assert np.isclose(g, 5.0 * 2.0 * 1.5)


def test_tape_replay_determinism():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 6))
    a = T.Tensor(x)

    def run():
        with T.Tape() as tape:
            loss = T.sum_all(T.softplus(T.linear(a, a)))
        (g,) = tape.gradients(loss, [a])
        return loss.item(), g

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_untaped_ops_do_not_record():
    a = T.Tensor([1.0, 2.0])
    out = T.softplus(a)  # no tape active
    assert np.all(np.isfinite(out.data))
    with T.Tape() as tape:
        pass
    assert len(tape) == 0


def test_nested_tapes_are_independent():
    a = T.Tensor(2.0)
    with T.Tape() as outer:
        x = T.square(a)
        with T.Tape() as inner:
            y = T.square(a)
        z = x * 1.0
    assert len(inner) == 1
    (g,) = inner.gradients(y, [a])
    assert np.isclose(g, 4.0)
    (g2,) = outer.gradients(z, [a])
    assert np.isclose(g2, 4.0)


def test_adam_converges_on_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    w = T.Tensor(np.zeros(3))
    state = T.AdamState([w], lr=0.05)
    for _ in range(400):
        with T.Tape() as tape:
            diff = w - T.Tensor(target)
            objective = -T.sum_all(T.square(diff))  # maximize
        grads = tape.gradients(objective, [w])
        T.adam_step(state, grads)
    assert np.max(np.abs(w.data - target)) < 1e-3


def test_adam_aborts_on_nan_grad():
    w = T.Tensor(np.ones(2))
    state = T.AdamState([w], lr=0.1)
    before = w.data.copy()
    with pytest.raises(FloatingPointError):
        T.adam_step(state, [np.array([np.nan, 0.0])])
    assert np.array_equal(w.data, before)
    assert state.t == 0


def test_finite_diff_check_polynomial_tight():
    a = T.Tensor([0.3, -0.7])

    def loss():
        return T.sum_all(a * a * a - 2.0 * a)

    err = T.finite_diff_check(loss, [a])
    assert err < 1e-8
