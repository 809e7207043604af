"""Independent oracles shared by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, textbook formulas) so that library results are checked against
code that shares no implementation with the library.
"""

import contextlib
import zlib

import numpy as np

from prunekit import tensor as T


@contextlib.contextmanager
def float64_mode():
    """Run the enclosed block with float64 default tensors.

    Finite-difference checks need more mantissa than float32 offers; the
    code path under test is identical in both dtypes.
    """
    old = T.default_dtype()
    T.set_default_dtype(np.float64)
    try:
        yield
    finally:
        T.set_default_dtype(old)


def numeric_grad(loss_fn, tensor, h=1e-5):
    """Central-difference gradient of ``loss_fn()`` w.r.t. ``tensor.data``.

    ``loss_fn`` must recompute the loss from scratch on every call; the
    tensor is perturbed in place one element at a time and restored.
    """
    flat = tensor.data.reshape(-1)
    g = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(loss_fn())
        flat[i] = orig - h
        fm = float(loss_fn())
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(tensor.data.shape)


def rel_err(a, b):
    """Relative error between two arrays under the Euclidean norm."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def conv2d_oracle(x, w, stride=1, padding=0, groups=1):
    """Six-loop cross-correlation, one multiply-add at a time."""
    sh, sw = (stride, stride) if np.isscalar(stride) else stride
    ph, pw = (padding, padding) if np.isscalar(padding) else padding
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    per_g = cout // groups
    for b in range(n):
        for oc in range(cout):
            g = oc // per_g
            for ic in range(cin_g):
                xc = g * cin_g + ic
                for oy in range(ho):
                    for ox in range(wo):
                        patch = xp[b, xc, oy * sh:oy * sh + kh,
                                   ox * sw:ox * sw + kw]
                        out[b, oc, oy, ox] += float((patch * w[oc, ic]).sum())
    return out


def batchnorm_oracle(x, gamma, beta, mean, var, eps=1e-5):
    """Channel-by-channel normalization with the given statistics."""
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    for c in range(x.shape[1]):
        out[:, c] = gamma[c] * (x[:, c] - mean[c]) / np.sqrt(var[c] + eps) \
            + beta[c]
    return out


def cross_entropy_oracle(logits, labels, smoothing=0.0):
    """Per-sample softmax plus explicit target-distribution dot product."""
    n, k = logits.shape
    total = 0.0
    for i in range(n):
        z = logits[i] - logits[i].max()
        p = np.exp(z) / np.exp(z).sum()
        t = np.full(k, smoothing / k)
        t[labels[i]] += 1.0 - smoothing
        total += -(t * np.log(p)).sum()
    return total / n


def avg_pool_oracle(x, kernel, stride=None):
    kh, kw = (kernel, kernel) if np.isscalar(kernel) else kernel
    if stride is None:
        sh, sw = kh, kw
    else:
        sh, sw = (stride, stride) if np.isscalar(stride) else stride
    n, c, h, w = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    for oy in range(ho):
        for ox in range(wo):
            out[:, :, oy, ox] = x[:, :, oy * sh:oy * sh + kh,
                                  ox * sw:ox * sw + kw].mean(axis=(2, 3))
    return out


def pearson_oracle(a, b):
    """Pearson correlation straight from the definition."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    am, bm = a.mean(), b.mean()
    num = ((a - am) * (b - bm)).sum()
    den = np.sqrt(((a - am) ** 2).sum() * ((b - bm) ** 2).sum())
    return float(num / den)


def checksummed_container(magic, meta_bytes, payload=b"", meta_len=None):
    """Container bytes around arbitrary metadata and payload, with a
    valid trailing CRC32, so only the layout checks can reject them.
    ``meta_len`` overrides the declared metadata length."""
    if meta_len is None:
        meta_len = len(meta_bytes)
    body = magic + meta_len.to_bytes(8, "little") + meta_bytes + payload
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


def random_config(arch_mod, arch, rng):
    """Random valid ChannelConfig for an architecture."""
    counts = []
    indices = []
    for c in arch_mod.gated_channel_counts(arch):
        k = int(rng.integers(1, c + 1))
        idx = np.sort(rng.choice(c, size=k, replace=False))
        counts.append(k)
        indices.append(tuple(int(i) for i in idx))
    return arch_mod.ChannelConfig(tuple(counts), tuple(indices))


def model_flops_oracle(model, input_shape):
    """Count MACs by executing a forward pass and reading actual shapes.

    ``tensor.conv2d`` and ``tensor.linear`` are wrapped for the duration
    of the pass to record every (weight shape, output shape) pair they
    execute; convolution and linear layers are the only ones counted.
    """
    x = np.zeros((1,) + tuple(input_shape), dtype=np.float32)
    executed = []
    originals = {"conv2d": T.conv2d, "linear": T.linear}

    def recording(fn):
        def run(inp, w, *args, **kwargs):
            out = fn(inp, w, *args, **kwargs)
            executed.append((w.shape, out.shape))
            return out
        return run

    try:
        for name, fn in originals.items():
            setattr(T, name, recording(fn))
        model.forward(x, train=False)
    finally:
        for name, fn in originals.items():
            setattr(T, name, fn)
    total = 0
    for w_shape, out_shape in executed:
        if len(w_shape) == 4:
            cout, cin_g, kh, kw = w_shape
            _, _, ho, wo = out_shape
            total += cout * cin_g * kh * kw * ho * wo
        else:
            out_f, in_f = w_shape
            total += out_f * in_f
    return total
