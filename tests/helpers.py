"""Independent oracles shared by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, textbook formulas) so that library results are checked against
code that shares no implementation with the library.
"""

import contextlib
import zlib

import numpy as np

from prunekit import analysis as AN
from prunekit import arch as A
from prunekit import data as D
from prunekit import gates as G
from prunekit import tensor as T


@contextlib.contextmanager
def float64_mode():
    """Run the enclosed block with float64 as the default dtype.

    Finite-difference checks need more mantissa than float32 offers; the
    code path under test is identical in both dtypes.
    """
    old = T.default_dtype()
    T.set_default_dtype(np.float64)
    try:
        yield
    finally:
        T.set_default_dtype(old)


def numeric_grad(loss_fn, array, h=1e-5):
    """Central-difference gradient of ``loss_fn()`` w.r.t. ``array``.

    ``loss_fn`` must recompute the loss from scratch on every call; the
    array is perturbed in place one element at a time and restored.
    """
    flat = array.reshape(-1)
    assert np.shares_memory(flat, array), "array must be contiguous"
    g = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(loss_fn())
        flat[i] = orig - h
        fm = float(loss_fn())
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(array.shape)


def objective(model, images, labels, gates, gamma, r, train=False):
    """Classification loss plus weighted sparsity penalty, as a float.

    ``gates`` holds one vector per gated layer, in
    ``model.arch.gated_ids`` order."""
    logits = model.forward(images, train=train,
                           gates=dict(zip(model.arch.gated_ids, gates)))
    return (float(T.cross_entropy(logits, labels))
            + gamma * G.sparsity_penalty(gates, r))


def restore_stats(model, backup):
    """Put back running statistics that a train-mode forward updated."""
    for name, a in model.stats.items():
        a[...] = backup[name]


def rel_err(a, b):
    """Relative error between two arrays under the Euclidean norm."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def encode_cifar_batch(images, labels):
    """Inverse of ``data.parse_cifar_batch``: one label byte, then the
    image bytes, per record."""
    n = len(labels)
    rec = np.empty((n, D.RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = images.reshape(n, -1)
    return rec.tobytes()


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


def avg_pool_oracle(x, kernel):
    """Mean of each whole kernel x kernel tile, one tile at a time."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // kernel, w // kernel), dtype=np.float64)
    for oy in range(h // kernel):
        for ox in range(w // kernel):
            out[:, :, oy, ox] = x[:, :, oy * kernel:(oy + 1) * kernel,
                                  ox * kernel:(ox + 1) * kernel].mean(
                                      axis=(2, 3))
    return out


def pearson_oracle(a, b):
    """Pearson correlation straight from the definition."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    am, bm = a.mean(), b.mean()
    num = ((a - am) * (b - bm)).sum()
    den = np.sqrt(((a - am) ** 2).sum() * ((b - bm) ** 2).sum())
    return float(num / den)


def parse_matrix_csv(text):
    """The SimilarityMatrix that ``analysis.matrix_csv`` wrote as text."""
    lines = text.strip().split("\n")
    labels = tuple(lines[0].split(",")[1:])
    values = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    return AN.SimilarityMatrix(labels, values)


class DiesMidWrite:
    """Writable file whose first write stores half, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")


def checksummed_container(magic, meta_bytes, payload=b"", meta_len=None):
    """Container bytes around arbitrary metadata and payload, with a
    valid trailing CRC32, so only the layout checks can reject them.
    ``meta_len`` overrides the declared metadata length."""
    if meta_len is None:
        meta_len = len(meta_bytes)
    body = magic + meta_len.to_bytes(8, "little") + meta_bytes + payload
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


def random_config(arch, rng):
    """Random valid ChannelConfig for an architecture."""
    indices = []
    for c in arch.gated_widths:
        k = int(rng.integers(1, c + 1))
        idx = np.sort(rng.choice(c, size=k, replace=False))
        indices.append(tuple(int(i) for i in idx))
    return A.ChannelConfig(tuple(indices))


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
