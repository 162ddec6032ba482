"""Reverse-mode automatic differentiation over numpy arrays.

A dynamic tape records every operation of a forward pass; gradients are
obtained by replaying the tape back to front.  All values are 64-bit floats.
Operations invoked with no tape active simply compute their forward value,
which gives a single code path for taped training, untaped scoring and
sampling: the decoder's heads are the same ops in all three.
"""

from __future__ import annotations

import numpy as np

_tapes: list = []  # the innermost active tape is last


def _active_tape():
    return _tapes[-1] if _tapes else None


def recording() -> bool:
    """True inside a ``Tape`` block: ops are being recorded for gradients."""
    return bool(_tapes)


class Tensor:
    """A float64 numpy array participating in tape recording.

    Tensors are immutable from the tape's point of view: every op returns a
    fresh Tensor.  Parameters are ordinary long-lived Tensors whose ``data``
    is updated in place by the optimizer between passes.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # Operator sugar; non-Tensor operands are wrapped as constants.
    def __add__(self, other):
        return add(self, wrap(other))

    def __radd__(self, other):
        return add(wrap(other), self)

    def __sub__(self, other):
        return sub(self, wrap(other))

    def __rsub__(self, other):
        return sub(wrap(other), self)

    def __mul__(self, other):
        return mul(self, wrap(other))

    def __rmul__(self, other):
        return mul(wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, wrap(other))


def wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of one forward pass.

    Used as a context manager: ops executed inside the ``with`` block are
    recorded in execution order.  ``gradients`` replays the records in
    reverse, so inputs are guaranteed to appear before the ops that consume
    them.  Identical inputs produce bit-identical forward values and
    gradients on replay.
    """

    def __init__(self):
        self._records = []  # (out Tensor, input Tensors, backward fn)

    def __enter__(self):
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tapes.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._records)

    def gradients(self, loss: Tensor, params) -> list[np.ndarray]:
        """Gradient of scalar ``loss`` with respect to each tensor in ``params``.

        Parameters not reachable from the loss get a zero gradient of their
        own shape.  Raises ValueError when the loss is not a scalar.
        """
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
        for out, inputs, backward in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, contrib in zip(inputs, backward(g)):
                if contrib is None:
                    continue
                acc = grads.get(id(t))
                grads[id(t)] = contrib if acc is None else acc + contrib
        return [np.array(grads.get(id(p), np.zeros_like(p.data))) for p in params]


def _emit(op_name: str, out_data: np.ndarray, inputs, backward) -> Tensor:
    """Finish an op: finiteness check, wrap, and record on the active tape."""
    if not np.all(np.isfinite(out_data)):
        raise FloatingPointError(f"non-finite value produced by op '{op_name}'")
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape._records.append((out, tuple(inputs), backward))
    return out


def custom_op(name: str, inputs, out_data, backward) -> Tensor:
    """Register a caller-defined op on the active tape.

    ``backward(grad_out)`` must return one gradient array (or None) per
    input, in order.  Lets domain modules add structured ops (for example
    graph aggregations) without touching this module.
    """
    return _emit(name, np.asarray(out_data, dtype=np.float64), inputs, backward)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules apply)

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _emit("add", out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _emit("sub", out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ad, bd = a.data, b.data

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _emit("mul", out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return _emit("neg", -a.data, (a,), backward)


def square(a: Tensor) -> Tensor:
    ad = a.data

    def backward(g):
        return (2.0 * g * ad,)

    return _emit("square", ad * ad, (a,), backward)


# ---------------------------------------------------------------------------
# matrix ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def backward(g):
        return g @ bd.T, ad.T @ g

    return _emit("matmul", out, (a, b), backward)


def matvec_rows(x: Tensor, w: Tensor) -> Tensor:
    """Row-stable ``x @ w.T``: each output row is computed as its own matvec.

    The result for row i depends only on x[i] and w, never on which position
    the row occupies, so permuting the rows of x permutes the output rows
    bit-for-bit.  Used by the encoder, whose permutation invariance is
    asserted at zero tolerance.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("matvec_rows expects 2-D operands")
    xd, wd = x.data, w.data
    out = np.empty((xd.shape[0], wd.shape[0]), dtype=np.float64)
    for i in range(xd.shape[0]):
        out[i] = wd @ xd[i]

    def backward(g):
        return g @ wd, g.T @ xd

    return _emit("matvec_rows", out, (x, w), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        return (g.T,)

    return _emit("transpose", a.data.T, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _emit("reshape", a.data.reshape(shape), (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities and reductions

def exp(a: Tensor) -> Tensor:
    with np.errstate(over="raise"):
        try:
            out = np.exp(a.data)
        except FloatingPointError as err:
            raise FloatingPointError("overflow in op 'exp'") from err

    def backward(g):
        return (g * out,)

    return _emit("exp", out, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: non-positive input")
    ad = a.data

    def backward(g):
        return (g / ad,)

    return _emit("log", np.log(ad), (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a: Tensor) -> Tensor:
    """Overflow-safe softplus: max(x, 0) + log1p(exp(-|x|))."""
    ad = a.data
    out = np.maximum(ad, 0.0) + np.log1p(np.exp(-np.abs(ad)))

    def backward(g):
        return (g * _sigmoid(ad),)

    return _emit("softplus", out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def backward(g):
        return (np.full(shape, g),)

    return _emit("sum_all", a.data.sum(), (a,), backward)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.full(shape, g),)

    return _emit("sum_axis", a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows (or elements of a 1-D tensor) by integer index."""
    idx = np.asarray(idx, dtype=np.intp)
    ad = a.data

    def backward(g):
        out = np.zeros_like(ad)
        np.add.at(out, idx, g)
        return (out,)

    return _emit("gather_rows", ad[idx], (a,), backward)


def logsumexp_array(ad: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Shift-stabilized log-sum-exp of a plain array, over all elements or
    one axis; the arithmetic of ``logsumexp`` and of fused ops using it."""
    if ad.size == 0:
        raise ValueError("logsumexp: empty input")
    if axis is None:
        m = ad.max()
        return m + np.log(np.sum(np.exp(ad - m)))
    m = ad.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(ad - m), axis=axis))


def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    """Shift-stabilized log-sum-exp over all elements or one axis."""
    ad = a.data
    out = logsumexp_array(ad, axis)
    if axis is None:
        def backward(g):
            return (g * np.exp(ad - out),)

    else:
        def backward(g):
            return (np.expand_dims(g, axis) * np.exp(ad - np.expand_dims(out, axis)),)

    return _emit("logsumexp", out, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", out, tensors, backward)


# ---------------------------------------------------------------------------
# optimization

class AdamState:
    """Adam moment estimates for a fixed parameter list (ascent convention).

    ``adam_step`` moves parameters in the direction of the gradient, i.e. it
    maximizes the objective; callers working with losses should negate first.
    """

    def __init__(self, params, lr: float = 0.005, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState, grads) -> None:
    """One bias-corrected Adam ascent step, updating params in place.

    Raises FloatingPointError on any non-finite gradient; the step is
    aborted before touching the parameters.
    """
    grads = list(grads)
    if len(grads) != len(state.params):
        raise ValueError("adam_step: gradient count does not match parameter count")
    for p, g in zip(state.params, grads):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("adam_step: non-finite gradient, step aborted")
        if np.shape(g) != p.data.shape:
            raise ValueError("adam_step: gradient shape mismatch")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for i, (p, g) in enumerate(zip(state.params, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        mhat = state.m[i] / (1 - b1 ** state.t)
        vhat = state.v[i] / (1 - b2 ** state.t)
        p.data += state.lr * mhat / (np.sqrt(vhat) + state.eps)


def finite_diff_check(loss_fn, params, h: float = 1e-5) -> float:
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn`` takes no arguments, reads ``params`` (long-lived Tensors),
    and returns a scalar Tensor; it must be deterministic across calls
    (freeze any randomness before checking).  Returns the maximum relative
    error over every coordinate of every parameter, where the relative error
    of analytic a vs numeric n is |a - n| / max(1, |a|, |n|).
    """
    with Tape() as tape:
        loss = loss_fn()
    analytic = tape.gradients(loss, params)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        ga_flat = np.asarray(ga).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            hi = loss_fn().item()
            flat[j] = orig - h
            lo = loss_fn().item()
            flat[j] = orig
            num = (hi - lo) / (2.0 * h)
            err = abs(ga_flat[j] - num) / max(1.0, abs(ga_flat[j]), abs(num))
            worst = max(worst, err)
    return worst
