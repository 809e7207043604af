"""Tour of the autodiff core: taped forward passes over numpy arrays and
reverse-mode gradients for exactly the arrays you ask about.

Run from anywhere after installing the package:

    python3 demos/01_autodiff_basics.py
"""

import numpy as np

from prunekit import tensor as T

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------
# 1. a taped convolution + relu + pooling graph on plain float64 arrays
x = rng.standard_normal((2, 3, 8, 8))
w = 0.1 * rng.standard_normal((4, 3, 3, 3))

tape = T.Tape()
h = T.conv2d(x, w, stride=1, padding=1, tape=tape)
h = T.relu(h, tape=tape)
h = T.global_avg_pool(h, tape=tape)          # [2, 4]
loss = T.sum_all(h, tape=tape)
print("forward:  conv -> relu -> pool -> sum =", float(loss))

[dw] = tape.backward(loss, [w])              # one gradient per target
print("backward: dloss/dw has shape", dw.shape)

# ---------------------------------------------------------------------
# 2. the gradient agrees with central finite differences
h_step = 1e-5
i = (0, 0, 1, 1)


def loss_at(v):
    old = w[i]
    w[i] = v
    out = float(T.sum_all(T.global_avg_pool(T.relu(
        T.conv2d(x, w, stride=1, padding=1)))))
    w[i] = old
    return out


fd = (loss_at(w[i] + h_step) - loss_at(w[i] - h_step)) / (2 * h_step)
print(f"analytic {dw[i]:+.6f}  vs  finite difference {fd:+.6f}")

# ---------------------------------------------------------------------
# 3. channel gates: a scalar per channel, differentiable like anything
#    else; naming only the gates as targets leaves the weights alone
gates = np.array([1.0, 0.5, 0.0, 1.0])
tape = T.Tape()
h = T.conv2d(x, w, padding=1, tape=tape)
h = T.gate_modulate(h, gates, tape=tape)     # channel c scaled by gates[c]
loss = T.sum_all(h, tape=tape)
[g] = tape.backward(loss, [gates])
print("gate gradient per channel:", np.round(g, 3))
print("a zero gate silences its channel; its gradient is the channel's",
      "total contribution")

# ---------------------------------------------------------------------
# 4. batchnorm keeps running statistics that update only in train mode
mean, var = np.zeros(4), np.ones(4)
gamma, beta = np.ones(4), np.zeros(4)
before = mean.copy()
T.batchnorm(T.conv2d(x, w, padding=1), gamma, beta, mean, var, train=True)
print("running mean moved in train mode:",
      not np.array_equal(before, mean))
frozen = mean.copy()
T.batchnorm(T.conv2d(x, w, padding=1), gamma, beta, mean, var, train=False)
print("running mean frozen in eval mode:",
      np.array_equal(frozen, mean))
