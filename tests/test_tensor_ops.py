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
    StatsError,
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
    (2, 1, 4, 4, 4, 3),   # strided depthwise, as depthwise-tiny's dw2/dw4
    (2, 2, 1, 2, 3, 5),
    (1, 0, 1, 3, 5, 1),   # pointwise
])
def test_conv2d_forward_matches_oracle(stride, padding, groups, cin, cout, k):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, cin, 9, 8))
    w = rng.standard_normal((cout, cin // groups, k, k))
    if not _dense_or_depthwise(groups, cin, cout):
        with pytest.raises(ShapeError):
            T.conv2d(x, w, stride=stride, padding=padding, groups=groups)
        return
    got = T.conv2d(x.astype(np.float32), w.astype(np.float32),
                   stride=stride, padding=padding, groups=groups)
    want = conv2d_oracle(x, w, stride=stride, padding=padding, groups=groups)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-5


def test_conv2d_identity_kernel_passthrough():
    # 1x1 kernel with identity weights copies the input channels
    x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
    w = np.eye(3).reshape(3, 3, 1, 1)
    out = T.conv2d(x, w)
    assert np.array_equal(out, x)


_GRAD_ROWS = [
    (1, 0, 1, 2, 3, 3),
    (2, 1, 1, 3, 4, 3),
    (1, 1, 2, 4, 4, 3),   # grouped: neither dense nor depthwise, rejected
    (1, 0, 3, 3, 3, 3),
    (2, 1, 3, 3, 3, 3),   # strided depthwise, as depthwise-tiny's dw2/dw4
    (1, 1, 3, 3, 3, 3),   # dw1/dw3: depthwise input gradient as a conv
    (1, 1, 1, 3, 4, 3),   # vgg-small's convs: input gradient as a conv
    (1, 0, 1, 3, 4, 1),   # pointwise
    (2, 0, 1, 3, 4, 1),   # strided 1x1 projection: spread input gradient
]


# the id names the kernel only where it is not 3x3, so that the rows
# older than the kernel parameter keep their ids
@pytest.mark.parametrize(
    "stride,padding,groups,cin,cout,k", _GRAD_ROWS,
    ids=["-".join(map(str, row if row[-1] != 3 else row[:-1]))
         for row in _GRAD_ROWS])
def test_conv2d_gradients(stride, padding, groups, cin, cout, k):
    rng = np.random.default_rng(11)
    with float64_mode():
        x = rng.standard_normal((2, cin, 6, 5))
        w = rng.standard_normal((cout, cin // groups, k, k))
        if not _dense_or_depthwise(groups, cin, cout):
            with pytest.raises(ShapeError):
                T.conv2d(x, w, stride=stride, padding=padding,
                         groups=groups, tape=T.Tape())
            return

        b = rng.standard_normal(cout)
        for bias in (None, b):
            def loss_fn(tape=None):
                y = T.conv2d(x, w, stride=stride, padding=padding,
                             groups=groups, bias=bias, tape=tape)
                return T.sum_all(T.relu(y, tape=tape), tape=tape)

            tape = T.Tape()
            targets = [x, w] if bias is None else [x, w, bias]
            grads = tape.backward(loss_fn(tape), targets)
            for g, t in zip(grads, targets):
                assert rel_err(g, numeric_grad(loss_fn, t)) < GRAD_TOL


def _conv_loss_and_grads(x, w, stride, padding, groups):
    tape = T.Tape()
    y = T.conv2d(x, w, stride=stride, padding=padding, groups=groups,
                 tape=tape)
    loss = T.sum_all(T.relu(y, tape=tape), tape=tape)
    return (y, *tape.backward(loss, [x, w]))


def _layouts(x):
    """``x`` as C-contiguous [N,C,H,W], channels-last ([N,H,W,C] memory)
    and batch-last ([C,H,W,N] memory), each a distinct memory layout."""
    x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    x_bl = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    assert x.flags.c_contiguous and not x_cl.flags.c_contiguous
    assert x_bl.transpose(1, 2, 3, 0).flags.c_contiguous
    assert not x_cl.transpose(1, 2, 3, 0).flags.c_contiguous
    return x, x_cl, x_bl


def _is_batch_last(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


def _same_bytes(results):
    first, *rest = results
    for other in rest:
        for a, b in zip(first, other, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("stride,padding,k,groups,hw", [
    (1, 1, 3, 1, 6), (2, 0, 1, 1, 6), (2, 1, 3, 1, 6), (1, 1, 3, 5, 6),
    (2, 1, 3, 5, 6),
    (1, 1, 3, 1, 2),   # a map no larger than the kernel: unrolled weight
], ids=["1-1-3", "2-0-1", "2-1-3", "dw-1-1-3", "dw-2-1-3", "1-1-3-2x2"])
def test_conv2d_result_independent_of_input_memory_layout(stride, padding,
                                                          k, groups, hw):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 5, hw, hw)).astype(np.float32)
    cout = 5 if groups > 1 else 4
    w = rng.standard_normal((cout, 5 // groups, k, k)).astype(np.float32)
    _same_bytes([_conv_loss_and_grads(xl, w, stride, padding, groups)
                 for xl in _layouts(x)])


@pytest.mark.parametrize("groups,hw", [(1, 6), (3, 6), (1, 2)],
                         ids=["dense", "depthwise", "dense-2x2"])
def test_conv2d_output_is_batch_last_in_memory(groups, hw):
    # the layout contract is batch-last: [N, C, H, W] over [C, H, W, N],
    # from every input layout
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, hw, hw)).astype(np.float32)
    cout = 4 if groups == 1 else 3
    w = rng.standard_normal((cout, 3 // groups, 3, 3)).astype(np.float32)
    for xl in _layouts(x):
        out = T.conv2d(xl, w, padding=1, groups=groups)
        assert out.shape == (2, cout, hw, hw)
        assert _is_batch_last(out)


# (H, W, k, stride, padding) of dense convs whose map has no more pixels
# than the kernel has taps: 3x3 pad 1 on vgg-small's 1x1 and 2x2 maps, a
# 5x5 kernel on a 2x3 map, and a stride-2 conv on a 3x3 map
_SMALL_MAP_ROWS = [(1, 1, 3, 1, 1), (2, 2, 3, 1, 1), (2, 3, 5, 1, 2),
                   (3, 3, 3, 2, 1)]


@pytest.mark.parametrize("h,w,k,s,p", _SMALL_MAP_ROWS,
                         ids=["{}x{}-k{}s{}p{}".format(*row)
                              for row in _SMALL_MAP_ROWS])
def test_conv2d_on_maps_no_larger_than_the_kernel_matches_oracles(
        monkeypatch, h, w, k, s, p):
    assert h * w <= k * k
    copied = []
    real_patches = T._patches

    def patches(a, *args, **kwargs):
        copied.append(a.shape)
        return real_patches(a, *args, **kwargs)

    monkeypatch.setattr(T, "_patches", patches)
    T._tap_map.cache_clear()
    rng = np.random.default_rng(h * 100 + w * 10 + k)
    with float64_mode():
        x = rng.standard_normal((3, 4, h, w))
        weight = rng.standard_normal((5, 4, k, k))

        def loss_fn(tape=None):
            y = T.conv2d(x, weight, stride=s, padding=p, tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        want = conv2d_oracle(x, weight, stride=s, padding=p)
        got = T.conv2d(x, weight, stride=s, padding=p)
        assert got.shape == want.shape and rel_err(got, want) < 1e-12
        tape = T.Tape()
        gx, gw = tape.backward(loss_fn(tape), [x, weight])
        assert [node.op for node in tape.nodes] == ["conv2d", "relu",
                                                    "sum_all"]
        assert rel_err(gx, numeric_grad(loss_fn, x)) < GRAD_TOL
        assert rel_err(gw, numeric_grad(loss_fn, weight)) < GRAD_TOL
    # the one walk over windows was the tap map's: an identity batch of
    # one image per input pixel, built once per dtype
    assert copied == [(h * w, 1, h, w)]


@pytest.mark.parametrize("cin,cout,hw", [
    (20, 40, 2), (40, 40, 2), (40, 80, 1), (80, 80, 1),
], ids=["conv5", "conv6", "conv7", "conv8"])
def test_conv2d_float32_agrees_on_vgg_small_maps_no_larger_than_the_kernel(
        cin, cout, hw):
    # vgg-small x1.25's last four convs at batch 32, against the float64
    # oracle, and their gradients against the same op in float64
    rng = np.random.default_rng(cin + cout + hw)
    x = rng.standard_normal((32, cin, hw, hw))
    w = rng.standard_normal((cout, cin, 3, 3)) * np.sqrt(2.0 / (9 * cin))
    x32, w32 = x.astype(np.float32), w.astype(np.float32)
    got = T.conv2d(x32, w32, padding=1)
    assert got.dtype == np.float32
    assert rel_err(got, conv2d_oracle(x, w, padding=1)) < 1e-5
    for want, got in zip(_conv_loss_and_grads(x, w, 1, 1, 1),
                         _conv_loss_and_grads(x32, w32, 1, 1, 1)):
        assert got.dtype == np.float32 and rel_err(got, want) < 1e-5


def test_conv2d_taps_that_read_only_padding_get_exactly_zero_gradient():
    # on a 1x1 map a 3x3 pad-1 conv reads its input through the center
    # tap alone; the 8 outer taps read padding only
    rng = np.random.default_rng(16)
    x = rng.standard_normal((4, 3, 1, 1)).astype(np.float32)
    w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
    tape = T.Tape()
    loss = T.sum_all(T.conv2d(x, w, padding=1, tape=tape), tape=tape)
    [gw] = tape.backward(loss, [w])
    outer = np.ones((3, 3), dtype=bool)
    outer[1, 1] = False
    assert gw.shape == w.shape
    assert (gw[:, :, outer] == 0.0).all()
    assert np.abs(gw[:, :, 1, 1]).min() > 0.0


@pytest.mark.parametrize("op", ["batchnorm-train", "batchnorm-eval",
                                "gate_modulate", "avg_pool2d",
                                "avg_pool2d-k3", "global_avg_pool"])
def test_ops_result_independent_of_input_memory_layout(op):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 5, 7, 7)).astype(np.float32)
    gamma = (rng.standard_normal(5) + 1.0).astype(np.float32)
    beta = rng.standard_normal(5).astype(np.float32)
    stats = (rng.standard_normal(5).astype(np.float32),
             (rng.random(5) + 0.5).astype(np.float32))

    def run(x):
        # output, gradients and running statistics after one step
        running = [s.copy() for s in stats]
        tape = T.Tape()
        targets = [x]
        if op.startswith("batchnorm"):
            y = T.batchnorm(x, gamma, beta, *running,
                            train=op == "batchnorm-train", tape=tape)
            targets += [gamma, beta]
        elif op == "gate_modulate":
            y = T.gate_modulate(x, gamma, tape=tape)
            targets.append(gamma)
        elif op == "avg_pool2d":
            y = T.avg_pool2d(x, kernel=2, tape=tape)
        elif op == "avg_pool2d-k3":
            # 3x3 tiles leave the last row and column of the 7x7 map
            y = T.avg_pool2d(x, kernel=3, tape=tape)
        else:
            y = T.global_avg_pool(x, tape=tape)
        loss = T.sum_all(T.relu(y, tape=tape), tape=tape)
        return (y, *tape.backward(loss, targets), *running)

    _same_bytes([run(xl) for xl in _layouts(x)])


def _sweep_geometries(count=30, seed=19):
    """(H, W, k, stride, padding, pool kernel) rows drawn at random: maps
    1x1 to 9x8, kernels 1-5, strides 1-3, padding below the kernel."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < count:
        h, w = int(rng.integers(1, 10)), int(rng.integers(1, 9))
        k, s = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        p = int(rng.integers(0, k))
        if k <= min(h, w) + 2 * p:
            rows.append((h, w, k, s, p, int(rng.integers(1, min(h, w, 5) + 1))))
    return rows


_SWEEP = _sweep_geometries()


def test_sweep_reaches_maps_no_larger_than_the_kernel():
    # dense convs on such maps run on the unrolled weight and the others
    # on patches, so the sweep's dense rows cover both
    assert any(h * w <= k * k for h, w, k, *_ in _SWEEP)
    assert any(h * w > k * k for h, w, k, *_ in _SWEEP)


def test_sweep_reaches_maps_whose_last_rows_no_window_reads():
    assert any((h + 2 * p - k) % s for h, _, k, s, p, _ in _SWEEP)
    assert any(h % kp and w % kp for h, w, *_, kp in _SWEEP)


@pytest.mark.parametrize("h,w,k,s,p,kp", _SWEEP,
                         ids=["{}x{}-k{}s{}p{}-pool{}".format(*row)
                              for row in _SWEEP])
def test_window_ops_match_oracles_over_a_geometry_sweep(h, w, k, s, p, kp):
    rng = np.random.default_rng(h * 1000 + w * 100 + k * 10 + s)
    with float64_mode():
        x = rng.standard_normal((2, 2, h, w))
        for weight, groups in ((rng.standard_normal((3, 2, k, k)), 1),
                               (rng.standard_normal((2, 1, k, k)), 2)):
            bias = rng.standard_normal(len(weight))

            def conv_loss(tape=None):
                y = T.conv2d(x, weight, stride=s, padding=p, groups=groups,
                             bias=bias, tape=tape)
                return T.sum_all(T.relu(y, tape=tape), tape=tape)

            want = conv2d_oracle(x, weight, stride=s, padding=p,
                                 groups=groups)
            got = T.conv2d(x, weight, stride=s, padding=p, groups=groups)
            assert got.shape == want.shape and rel_err(got, want) < 1e-12
            got = T.conv2d(x, weight, stride=s, padding=p, groups=groups,
                           bias=bias)
            assert rel_err(got, want + bias[:, None, None]) < 1e-12
            tape = T.Tape()
            targets = [x, weight, bias]
            grads = tape.backward(conv_loss(tape), targets)
            for g, t in zip(grads, targets):
                assert rel_err(g, numeric_grad(conv_loss, t)) < GRAD_TOL

        def pool_loss(tape=None):
            y = T.avg_pool2d(x, kernel=kp, tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        got = T.avg_pool2d(x, kernel=kp)
        assert rel_err(got, avg_pool_oracle(x, kp)) < 1e-12
        tape = T.Tape()
        [gx] = tape.backward(pool_loss(tape), [x])
        assert rel_err(gx, numeric_grad(pool_loss, x)) < GRAD_TOL


def test_conv2d_rejects_bad_geometry():
    x = np.zeros((1, 2, 3, 3))
    w = np.zeros((4, 2, 5, 5))
    with pytest.raises(GeometryError):
        T.conv2d(x, w)
    # padding that reaches the kernel leaves edge windows reading only
    # padding, and no transposed conv for the input gradient
    with pytest.raises(GeometryError, match="padding below the kernel"):
        T.conv2d(x, np.zeros((4, 2, 3, 3)), padding=3)
    with pytest.raises(GeometryError, match="padding below the kernel"):
        T.conv2d(x, np.zeros((4, 2, 1, 1)), padding=(0, 1))


def test_conv2d_rejects_group_mismatch():
    x = np.zeros((1, 4, 8, 8))
    w = np.zeros((6, 4, 3, 3))
    with pytest.raises(ShapeError):
        T.conv2d(x, w, groups=2)  # weight says cin/groups=4, input gives 2
    with pytest.raises(ShapeError):
        T.conv2d(x, w, groups=3)  # 3 divides neither 4 nor 6


def test_conv2d_rejects_a_bias_of_the_wrong_width():
    x = np.zeros((1, 4, 8, 8))
    w = np.zeros((6, 4, 3, 3))
    with pytest.raises(ShapeError, match="bias"):
        T.conv2d(x, w, bias=np.zeros(4))


@pytest.mark.parametrize("groups", [1, 4])
@pytest.mark.parametrize("gated", [False, True])
def test_fold_batchnorm_matches_conv_then_eval_batchnorm(groups, gated):
    rng = np.random.default_rng(8)
    with float64_mode():
        x = rng.standard_normal((3, 4, 6, 5))
        w = rng.standard_normal((4, 4 // groups, 3, 3))
        gamma, beta, mean = rng.standard_normal((3, 4))
        var = rng.uniform(0.5, 2.0, 4)
        gates = rng.uniform(0.0, 1.0, 4) if gated else None
        want = T.batchnorm(T.conv2d(x, w, padding=1, groups=groups), gamma,
                           beta, mean, var, train=False)
        if gated:
            want = T.gate_modulate(want, gates)
        fw, fb = T.fold_batchnorm(w, gamma, beta, mean, var, gates=gates)
        got = T.conv2d(x, fw, padding=1, groups=groups, bias=fb)
        assert rel_err(got, want) < 1e-12


# ---------------------------------------------------------------------------
# batchnorm

def test_batchnorm_train_forward_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 5, 5))
    gamma = rng.standard_normal(3) + 1.0
    beta = rng.standard_normal(3)
    run_mean, run_var = np.zeros(3), np.ones(3)
    out = T.batchnorm(x, gamma, beta, run_mean, run_var, train=True)
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    want = batchnorm_oracle(x, gamma, beta, mu, var)
    assert rel_err(out, want) < 1e-12
    # running stats moved one momentum step from (0, 1) toward batch stats
    assert np.allclose(run_mean, 0.1 * mu)
    assert np.allclose(run_var, 0.9 * 1.0 + 0.1 * var)


def test_batchnorm_eval_uses_running_stats_and_keeps_them():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 4))
    mean, var = np.array([0.5, -0.2, 0.0]), np.array([1.5, 0.7, 2.0])
    before = mean.copy(), var.copy()
    out = T.batchnorm(x, np.ones(3), np.zeros(3), mean, var, train=False)
    want = batchnorm_oracle(x, np.ones(3), np.zeros(3), *before)
    assert rel_err(out, want) < 1e-12
    assert np.array_equal(mean, before[0])
    assert np.array_equal(var, before[1])


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_gradients(train):
    rng = np.random.default_rng(5)
    with float64_mode():
        x = rng.standard_normal((3, 4, 4, 3))
        gamma = rng.standard_normal(4) + 1.0
        beta = rng.standard_normal(4)
        frozen = rng.standard_normal(4), rng.random(4) + 0.5

        def loss_fn(tape=None):
            # fresh stats copy per call so repeated evaluation is pure
            y = T.batchnorm(x, gamma, beta, frozen[0].copy(),
                            frozen[1].copy(), train=train, tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        tape = T.Tape()
        loss = loss_fn(tape)
        grads = tape.backward(loss, [x, gamma, beta])
        for t, g in zip((x, gamma, beta), grads):
            assert rel_err(g, numeric_grad(loss_fn, t)) < GRAD_TOL


def test_batchnorm_rejects_an_empty_train_batch():
    c = 3
    x = np.zeros((0, c, 4, 4), np.float32)
    args = (np.ones(c, np.float32), np.zeros(c, np.float32),
            np.zeros(c, np.float32), np.ones(c, np.float32))
    with pytest.raises(StatsError, match="empty batch"):
        T.batchnorm(x, *args, train=True)
    assert T.batchnorm(x, *args, train=False).shape == x.shape


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_output_is_batch_last_in_memory(train):
    # the layout contract is batch-last: [N, C, H, W] over [C, H, W, N],
    # from every input layout
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    for xl in _layouts(x):
        out = T.batchnorm(xl, np.ones(3, np.float32),
                          np.zeros(3, np.float32), np.zeros(3, np.float32),
                          np.ones(3, np.float32), train=train)
        assert out.shape == x.shape
        assert _is_batch_last(out)


# ---------------------------------------------------------------------------
# gating

def test_gate_modulate_forward_scales_channels():
    x = np.ones((2, 3, 2, 2))
    gates = np.array([0.0, 0.5, 2.0])
    out = T.gate_modulate(x, gates)
    assert np.array_equal(out[:, 0], np.zeros((2, 2, 2)))
    assert np.array_equal(out[:, 1], np.full((2, 2, 2), 0.5))
    assert np.array_equal(out[:, 2], np.full((2, 2, 2), 2.0))


def test_gate_modulate_gradients():
    rng = np.random.default_rng(6)
    with float64_mode():
        x = rng.standard_normal((2, 4, 3, 3))
        g = rng.random(4)

        def loss_fn(tape=None):
            y = T.gate_modulate(x, g, tape=tape)
            return T.sum_all(T.relu(y, tape=tape), tape=tape)

        tape = T.Tape()
        gx, gg = tape.backward(loss_fn(tape), [x, g])
        assert rel_err(gx, numeric_grad(loss_fn, x)) < GRAD_TOL
        assert rel_err(gg, numeric_grad(loss_fn, g)) < GRAD_TOL


def test_gate_modulate_shape_mismatch():
    with pytest.raises(ShapeError):
        T.gate_modulate(np.zeros((1, 3, 2, 2)), np.zeros(4))


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (1, 4)],
                         ids=["short", "long", "column", "row"])
def test_fold_batchnorm_gate_shape_mismatch(shape):
    w = np.ones((4, 2, 3, 3))
    gamma, beta, mean, var = np.ones((4, 4))
    with pytest.raises(ShapeError, match="gates of shape"):
        T.fold_batchnorm(w, gamma, beta, mean, var, gates=np.ones(shape))


# ---------------------------------------------------------------------------
# pooling, linear, add, relu

def test_avg_pool2d_matches_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 6, 6))
    got = T.avg_pool2d(x, kernel=2)
    assert rel_err(got, avg_pool_oracle(x, 2)) < 1e-12
    # 3x3 tiles of a 7x7 map leave its last row and column unread
    x = rng.standard_normal((2, 3, 7, 7))
    got = T.avg_pool2d(x, kernel=3)
    assert got.shape == (2, 3, 2, 2)
    assert rel_err(got, avg_pool_oracle(x, 3)) < 1e-12


def test_pool_linear_add_gradients():
    rng = np.random.default_rng(9)
    with float64_mode():
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        # 2x2 tiles of a 5x5 map leave its last row and column unread
        x_ragged = rng.standard_normal((2, 3, 5, 5))

        for x in (x, x_ragged):
            def loss_fn(tape=None):
                p = T.avg_pool2d(x, kernel=2, tape=tape)
                q = T.add(p, p, tape=tape)
                f = T.global_avg_pool(q, tape=tape)
                y = T.linear(f, w, b, tape=tape)
                return T.sum_all(T.relu(y, tape=tape), tape=tape)

            tape = T.Tape()
            grads = tape.backward(loss_fn(tape), [x, w, b])
            for t, g in zip((x, w, b), grads):
                assert rel_err(g, numeric_grad(loss_fn, t)) < GRAD_TOL


def test_global_avg_pool_value():
    x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
    out = T.global_avg_pool(x)
    assert np.allclose(out, [[1.5, 5.5]])


# ---------------------------------------------------------------------------
# cross-entropy

def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((6, 4)) * 3
    labels = rng.integers(0, 4, size=6)
    for s in (0.0, 0.1):
        got = float(T.cross_entropy(logits, labels, smoothing=s))
        assert abs(got - cross_entropy_oracle(logits, labels, s)) < 1e-12


def test_cross_entropy_stable_under_large_logits():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    labels = np.array([0, 1])
    got = float(T.cross_entropy(logits, labels))
    assert got < 1e-6  # confident and correct


@pytest.mark.parametrize("smoothing", [0.0, 0.2])
def test_cross_entropy_gradients(smoothing):
    rng = np.random.default_rng(12)
    with float64_mode():
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss_fn(tape=None):
            return T.cross_entropy(logits, labels, smoothing=smoothing,
                                   tape=tape)

        tape = T.Tape()
        [grad] = tape.backward(loss_fn(tape), [logits])
        assert rel_err(grad, numeric_grad(loss_fn, logits)) < GRAD_TOL


def test_cross_entropy_rejects_bad_labels():
    logits = np.zeros((2, 3))
    with pytest.raises(LabelError):
        T.cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(LabelError):
        T.cross_entropy(logits, np.array([-1, 0]))


# ---------------------------------------------------------------------------
# tape semantics

def test_backward_requires_scalar_loss_from_this_tape():
    x = np.ones((2, 2))
    tape = T.Tape()
    vec = T.relu(x, tape=tape)
    with pytest.raises(GraphError):
        tape.backward(vec, [x])  # not scalar
    other = T.sum_all(T.relu(x))  # recorded nowhere
    with pytest.raises(GraphError):
        tape.backward(other, [x])


def test_backward_zero_grad_for_unused_target():
    x = np.ones(4)
    unused = np.ones(3)
    tape = T.Tape()
    loss = T.sum_all(x, tape=tape)
    gx, gunused = tape.backward(loss, [x, unused])
    assert np.array_equal(gx, np.ones(4))
    assert np.array_equal(gunused, np.zeros(3))


def test_backward_accumulates_over_reuse():
    with float64_mode():
        x = np.array([1.0, 2.0])
        tape = T.Tape()
        y = T.add(x, x, tape=tape)          # used twice
        loss = T.sum_all(y, tape=tape)
        [grad] = tape.backward(loss, [x])
        assert np.array_equal(grad, np.array([2.0, 2.0]))


def test_backward_leaves_nontarget_tensors_untouched():
    # gates-only backward must not modify the weights
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    gates = np.ones(4)
    w_bytes = w.tobytes()
    tape = T.Tape()
    y = T.conv2d(x, w, padding=1, tape=tape)
    y = T.gate_modulate(y, gates, tape=tape)
    loss = T.sum_all(T.relu(y, tape=tape), tape=tape)
    grads = tape.backward(loss, [gates])
    assert len(grads) == 1 and grads[0].shape == gates.shape
    assert w.tobytes() == w_bytes


def test_backward_asks_only_for_what_targets_flow_into():
    # in a gates-only backward the conv weight and the input are not
    # differentiated: every closure sees needs == False for them
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    gates = np.ones(4)
    tape = T.Tape()
    y = T.conv2d(x, w, padding=1, tape=tape)
    z = T.gate_modulate(y, gates, tape=tape)
    loss = T.sum_all(T.relu(z, tape=tape), tape=tape)
    seen = {}
    for node in tape.nodes:
        def spy(gout, needs, node=node, inner=node.backward):
            seen[node.op] = needs
            return inner(gout, needs)
        node.backward = spy
    tape.backward(loss, [gates])
    # the conv node's inputs are (x, w): neither gets a gradient, so its
    # closure is never called
    assert "conv2d" not in seen
    assert seen["gate_modulate"] == (False, True)
    assert seen["relu"] == (True,) and seen["sum_all"] == (True,)

    seen.clear()
    tape.backward(loss, [w])
    assert seen["conv2d"] == (False, True)
    assert seen["gate_modulate"] == (True, False)


def test_ops_off_tape_record_nothing():
    x = np.ones((1, 2, 3, 3))
    tape = T.Tape()
    T.relu(x)               # no tape argument
    assert tape.nodes == []


def test_finite_check_raises():
    x = np.array([[1e20, 0.0]], dtype=np.float32)
    w = np.array([[1e20, 0.0]], dtype=np.float32)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            T.linear(x, w, np.zeros(1, dtype=np.float32))  # 1e40 overflows
        big = np.full((1, 2), 3e38, dtype=np.float32)
        with pytest.raises(NonFiniteError):
            T.add(big, big)


def test_forward_is_deterministic():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    a = T.conv2d(x, w, padding=1)
    b = T.conv2d(x, w, padding=1)
    assert a.tobytes() == b.tobytes()


def test_default_dtype_guard():
    with pytest.raises(ShapeError):
        T.set_default_dtype(np.int32)
