"""Walk through the reverse-mode tape: record, differentiate, check, step.

The tensor module underpins every trainable piece of the package.  This
demo records a small expression, pulls gradients, verifies them against
central differences, and runs a few Adam ascent steps on a concave toy
objective.
"""

import numpy as np

import molvae.tensor as T

# --- record a computation and differentiate it ---------------------------

w = T.Tensor(np.array([[0.5, -1.0], [2.0, 0.3]]))
b = T.Tensor(np.array([0.1, -0.2]))
x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])

with T.Tape() as tape:
    h = T.softplus(T.add(T.linear(T.Tensor(x), w), b))
    loss = T.sum_all(T.square(h))

gw, gb = tape.gradients(loss, [w, b])
print("loss           :", round(loss.item(), 6))
print("dL/dw          :\n", np.round(gw, 6))
print("dL/db          :", np.round(gb, 6))

# --- confirm with central finite differences ------------------------------


def loss_fn():
    h = T.softplus(T.add(T.linear(T.Tensor(x), w), b))
    return T.sum_all(T.square(h))


err = T.finite_diff_check(loss_fn, [w, b])
print("max fd rel err :", f"{err:.2e}")

# --- gradient ascent with Adam -------------------------------------------
# maximize -(p0 - 3)^2 - (p1 + 1)^2; optimum at (3, -1)

p = T.Tensor(np.zeros(2))
adam = T.AdamState([p], lr=0.1)
for step in range(200):
    with T.Tape() as tape:
        obj = -T.sum_all(T.square(p - T.Tensor(np.array([3.0, -1.0]))))
    T.adam_step(adam, tape.gradients(obj, [p]))
print("ascent reaches :", np.round(p.data, 4), "(target 3, -1)")
