"""Forward and gradient checks for the autodiff engine."""

import numpy as np
import pytest

from prunekit import tensor as T
from prunekit.errors import (
    GeometryError,
    GraphError,
    LabelError,
    NonFiniteError,
    ShapeError,
)

from helpers import (
    batchnorm_oracle,
    conv2d_oracle,
    cross_entropy_oracle,
    avg_pool_oracle,
    float64_mode,
    numeric_grad,
    rel_err,
)

GRAD_TOL = 1e-6


# ---------------------------------------------------------------------------
# conv2d

def _dense_or_depthwise(groups, cin, cout):
    # the only two forms conv2d implements; other groups raise ShapeError
    return groups == 1 or groups == cin == cout


@pytest.mark.parametrize("stride,padding,groups,cin,cout,k", [
    (1, 0, 1, 3, 4, 3),
    (2, 1, 1, 4, 6, 3),
    (1, 1, 2, 4, 6, 3),   # grouped: neither dense nor depthwise, rejected
    (1, 0, 4, 4, 4, 3),   # depthwise
    (2, 2, 1, 2, 3, 5),
    (1, 0, 1, 3, 5, 1),   # pointwise
])
def test_conv2d_forward_matches_oracle(stride, padding, groups, cin, cout, k):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, cin, 9, 8))
    w = rng.standard_normal((cout, cin // groups, k, k))
    if not _dense_or_depthwise(groups, cin, cout):
        with pytest.raises(ShapeError):
            T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride,
                     padding=padding, groups=groups)
        return
    got = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride,
                   padding=padding, groups=groups).data
    want = conv2d_oracle(x, w, stride=stride, padding=padding, groups=groups)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-5


def test_conv2d_identity_kernel_passthrough():
    # 1x1 kernel with identity weights copies the input channels
    x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
    w = np.eye(3).reshape(3, 3, 1, 1)
    out = T.conv2d(T.Tensor(x, dtype=np.float64),
                   T.Tensor(w, dtype=np.float64)).data
    assert np.array_equal(out, x)


@pytest.mark.parametrize("stride,padding,groups,cin,cout", [
    (1, 0, 1, 2, 3),
    (2, 1, 1, 3, 4),
    (1, 1, 2, 4, 4),      # grouped: neither dense nor depthwise, rejected
    (1, 0, 3, 3, 3),
])
def test_conv2d_gradients(stride, padding, groups, cin, cout):
    rng = np.random.default_rng(11)
    with float64_mode():
        x = T.Tensor(rng.standard_normal((2, cin, 6, 5)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((cout, cin // groups, 3, 3)),
                     requires_grad=True)
        if not _dense_or_depthwise(groups, cin, cout):
            with pytest.raises(ShapeError):
                T.conv2d(x, w, stride=stride, padding=padding,
                         groups=groups, tape=T.Tape())
            return

        def loss_fn(tape=None):
            y = T.conv2d(x, w, stride=stride, padding=padding,
                         groups=groups, tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        tape = T.Tape()
        loss = loss_fn(tape)
        grads = tape.backward(loss, [x, w])
        assert rel_err(grads[x], numeric_grad(loss_fn, x)) < GRAD_TOL
        assert rel_err(grads[w], numeric_grad(loss_fn, w)) < GRAD_TOL


def test_conv2d_rejects_bad_geometry():
    x = T.Tensor(np.zeros((1, 2, 3, 3)))
    w = T.Tensor(np.zeros((4, 2, 5, 5)))
    with pytest.raises(GeometryError):
        T.conv2d(x, w)


def test_conv2d_rejects_group_mismatch():
    x = T.Tensor(np.zeros((1, 4, 8, 8)))
    w = T.Tensor(np.zeros((6, 4, 3, 3)))
    with pytest.raises(ShapeError):
        T.conv2d(x, w, groups=2)  # weight says cin/groups=4, input gives 2
    with pytest.raises(ShapeError):
        T.conv2d(x, w, groups=3)  # 3 divides neither 4 nor 6


# ---------------------------------------------------------------------------
# batchnorm

def test_batchnorm_train_forward_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 5, 5))
    gamma = rng.standard_normal(3) + 1.0
    beta = rng.standard_normal(3)
    running = T.RunningStats.initial(3, dtype=np.float64)
    out = T.batchnorm(T.Tensor(x, dtype=np.float64),
                      T.Tensor(gamma, dtype=np.float64),
                      T.Tensor(beta, dtype=np.float64),
                      running, train=True).data
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    want = batchnorm_oracle(x, gamma, beta, mu, var)
    assert rel_err(out, want) < 1e-12
    # running stats moved one momentum step from (0, 1) toward batch stats
    assert np.allclose(running.mean, 0.1 * mu)
    assert np.allclose(running.var, 0.9 * 1.0 + 0.1 * var)


def test_batchnorm_eval_uses_running_stats_and_keeps_them():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 4))
    running = T.RunningStats(mean=np.array([0.5, -0.2, 0.0]),
                             var=np.array([1.5, 0.7, 2.0]))
    before = running.copy()
    out = T.batchnorm(T.Tensor(x, dtype=np.float64),
                      T.Tensor(np.ones(3), dtype=np.float64),
                      T.Tensor(np.zeros(3), dtype=np.float64),
                      running, train=False).data
    want = batchnorm_oracle(x, np.ones(3), np.zeros(3),
                            before.mean, before.var)
    assert rel_err(out, want) < 1e-12
    assert np.array_equal(running.mean, before.mean)
    assert np.array_equal(running.var, before.var)


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_gradients(train):
    rng = np.random.default_rng(5)
    with float64_mode():
        x = T.Tensor(rng.standard_normal((3, 4, 4, 3)), requires_grad=True)
        gamma = T.Tensor(rng.standard_normal(4) + 1.0, requires_grad=True)
        beta = T.Tensor(rng.standard_normal(4), requires_grad=True)
        frozen = T.RunningStats(rng.standard_normal(4),
                                rng.random(4) + 0.5)

        def loss_fn(tape=None):
            # fresh stats copy per call so repeated evaluation is pure
            y = T.batchnorm(x, gamma, beta, frozen.copy(), train=train,
                            tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        tape = T.Tape()
        loss = loss_fn(tape)
        grads = tape.backward(loss, [x, gamma, beta])
        for t in (x, gamma, beta):
            assert rel_err(grads[t], numeric_grad(loss_fn, t)) < GRAD_TOL


# ---------------------------------------------------------------------------
# gating

def test_gate_modulate_forward_scales_channels():
    x = np.ones((2, 3, 2, 2))
    gates = np.array([0.0, 0.5, 2.0])
    out = T.gate_modulate(T.Tensor(x, dtype=np.float64),
                          T.Tensor(gates, dtype=np.float64)).data
    assert np.array_equal(out[:, 0], np.zeros((2, 2, 2)))
    assert np.array_equal(out[:, 1], np.full((2, 2, 2), 0.5))
    assert np.array_equal(out[:, 2], np.full((2, 2, 2), 2.0))


def test_gate_modulate_gradients():
    rng = np.random.default_rng(6)
    with float64_mode():
        x = T.Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
        g = T.Tensor(rng.random(4), requires_grad=True)

        def loss_fn(tape=None):
            y = T.gate_modulate(x, g, tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        tape = T.Tape()
        grads = tape.backward(loss_fn(tape), [x, g])
        assert rel_err(grads[x], numeric_grad(loss_fn, x)) < GRAD_TOL
        assert rel_err(grads[g], numeric_grad(loss_fn, g)) < GRAD_TOL


def test_gate_modulate_shape_mismatch():
    with pytest.raises(ShapeError):
        T.gate_modulate(T.Tensor(np.zeros((1, 3, 2, 2))),
                        T.Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# pooling, linear, add, relu

def test_avg_pool2d_matches_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 6, 6))
    got = T.avg_pool2d(T.Tensor(x, dtype=np.float64), kernel=2).data
    assert rel_err(got, avg_pool_oracle(x, 2)) < 1e-12
    got = T.avg_pool2d(T.Tensor(x, dtype=np.float64), kernel=3, stride=2).data
    assert rel_err(got, avg_pool_oracle(x, 3, 2)) < 1e-12


def test_pool_linear_add_gradients():
    rng = np.random.default_rng(9)
    with float64_mode():
        x = T.Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        b = T.Tensor(rng.standard_normal(5), requires_grad=True)

        def loss_fn(tape=None):
            p = T.avg_pool2d(x, kernel=2, tape=tape)
            q = T.add(p, p, tape=tape)
            f = T.global_avg_pool(q, tape=tape)
            y = T.linear(f, w, b, tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        tape = T.Tape()
        grads = tape.backward(loss_fn(tape), [x, w, b])
        for t in (x, w, b):
            assert rel_err(grads[t], numeric_grad(loss_fn, t)) < GRAD_TOL


def test_global_avg_pool_value():
    x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
    out = T.global_avg_pool(T.Tensor(x, dtype=np.float64)).data
    assert np.allclose(out, [[1.5, 5.5]])


# ---------------------------------------------------------------------------
# cross-entropy

def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((6, 4)) * 3
    labels = rng.integers(0, 4, size=6)
    for s in (0.0, 0.1):
        got = float(T.cross_entropy(T.Tensor(logits, dtype=np.float64),
                                    labels, smoothing=s).data)
        assert abs(got - cross_entropy_oracle(logits, labels, s)) < 1e-12


def test_cross_entropy_stable_under_large_logits():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    labels = np.array([0, 1])
    got = float(T.cross_entropy(T.Tensor(logits, dtype=np.float64),
                                labels).data)
    assert got < 1e-6  # confident and correct


@pytest.mark.parametrize("smoothing", [0.0, 0.2])
def test_cross_entropy_gradients(smoothing):
    rng = np.random.default_rng(12)
    with float64_mode():
        logits = T.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=5)

        def loss_fn(tape=None):
            return T.cross_entropy(logits, labels, smoothing=smoothing,
                                   tape=tape)

        tape = T.Tape()
        grads = tape.backward(loss_fn(tape), [logits])
        assert rel_err(grads[logits], numeric_grad(loss_fn, logits)) < GRAD_TOL


def test_cross_entropy_rejects_bad_labels():
    logits = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(LabelError):
        T.cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(LabelError):
        T.cross_entropy(logits, np.array([-1, 0]))


# ---------------------------------------------------------------------------
# tape semantics

def test_backward_requires_scalar_loss_from_this_tape():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
    tape = T.Tape()
    vec = T.relu(x, tape=tape)
    with pytest.raises(GraphError):
        tape.backward(vec, [x])  # not scalar
    other = T.sum_all(T.relu(x))  # recorded nowhere
    with pytest.raises(GraphError):
        tape.backward(other, [x])


def test_backward_zero_grad_for_unused_target():
    x = T.Tensor(np.ones(4), requires_grad=True, dtype=np.float64)
    unused = T.Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    tape = T.Tape()
    loss = T.sum_all(x, tape=tape)
    grads = tape.backward(loss, [x, unused])
    assert np.array_equal(grads[x], np.ones(4))
    assert np.array_equal(grads[unused], np.zeros(3))


def test_backward_accumulates_over_reuse():
    with float64_mode():
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        tape = T.Tape()
        y = T.add(x, x, tape=tape)          # used twice
        loss = T.sum_all(y, tape=tape)
        grads = tape.backward(loss, [x])
        assert np.array_equal(grads[x], np.array([2.0, 2.0]))


def test_backward_leaves_nontarget_tensors_untouched():
    # gates-only backward must not annotate or modify the weights
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.standard_normal((2, 3, 5, 5)))
    w = T.Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    gates = T.Tensor(np.ones(4), requires_grad=True)
    w_bytes = w.data.tobytes()
    tape = T.Tape()
    y = T.conv2d(x, w, padding=1, tape=tape)
    y = T.gate_modulate(y, gates, tape=tape)
    loss = T.sum_all(T.relu(y, tape=tape), tape=tape)
    grads = tape.backward(loss, [gates])
    assert set(grads) == {gates}
    assert w.data.tobytes() == w_bytes
    assert not hasattr(w, "grad")


def test_ops_off_tape_record_nothing():
    x = T.Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
    tape = T.Tape()
    T.relu(x)               # no tape argument
    T.relu(T.Tensor(np.ones(3)), tape=tape)  # no grad required
    assert tape.nodes == []


def test_finite_check_raises():
    x = T.Tensor(np.array([[1e20, 0.0]]), dtype=np.float32)
    w = T.Tensor(np.array([[1e20, 0.0]]), dtype=np.float32)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            T.linear(x, w, T.Tensor(np.zeros(1)))  # 1e40 overflows float32
        big = T.Tensor(np.full((1, 2), 3e38), dtype=np.float32)
        with pytest.raises(NonFiniteError):
            T.add(big, big)


def test_forward_is_deterministic():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    a = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1).data
    b = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1).data
    assert a.tobytes() == b.tobytes()


def test_default_dtype_guard():
    with pytest.raises(ShapeError):
        T.set_default_dtype(np.int32)
