"""Minimal differentiable kernels: conv/deconv/dense layers, losses, Adam.

Layers run only through ``Sequential``, on batched float32 arrays shaped
(N, C, H, W) for image-like data and (N, F) for flat data. The network
graphs used here are fixed feed-forward chains, so gradients are computed
from explicit per-layer cached inputs instead of a general tape.
All operations are deterministic: identical inputs give bit-identical
outputs.

Conv kernels. A conv layer computes W @ im2col(x) per sample, on an
(N, C*k*k, OH*OW) patch matrix. ``_im2col`` pads the input into a zeroed
buffer and gathers the patches with one ``np.take`` per (sample, channel)
row, in (u, v, row, column) tap order. The weight gradient sums over
samples and cells with ``np.tensordot``; it keeps the contiguous operands
that tensordot builds, because every transposed-operand form of that
product was measured to change dw bytes on small shapes, where OpenBLAS
switches to kernels that sum in another order.

The adjoint col2im(W.T @ d), used for conv dx and the deconv forward, sums
by output phase. Output cell (y, x) lies in phase (y % stride, x % stride);
tap u of patch row a lands on row a*stride + u - pad, which is in phase
(u - pad) % stride at plane row a + (u - pad) // stride, and likewise for
columns. Each phase plane is stored flat with the patch grid's row length
OW (wider, zero-filled, when a plane has more columns than OW), so a tap is
one shifted copy of its dense patch plane into a zero-filled buffer and one
dense add into the phase plane. Patch columns that fall outside the plane
are zeroed first; they would otherwise wrap into a neighbouring row. The
taps are added in the (u, v) order of a direct scatter-add, onto planes
that start at +0.0, and adding a +0.0 never changes a sum that started
there, so every output cell gets the same bytes as the scatter-add. One
strided copy per phase then interleaves the planes into (N, C, H, W).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TrainingError

ACTIVATIONS = ("linear", "relu", "leaky_relu", "sigmoid")

_BCE_EPS = 1e-7
_SIGMOID_CLIP = 88.0  # exp stays inside float32 range


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def deconv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size - 1) * stride - 2 * padding + k


@dataclass
class LayerParams:
    """Parameters of one layer.

    Weight layout: conv (out_ch, in_ch, k, k); deconv (in_ch, out_ch, k, k),
    i.e. a deconv applies the adjoint of a conv holding the same array;
    dense (out_features, in_features).
    """

    kind: str  # conv | deconv | dense
    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    activation: str = "linear"
    slope: float = 0.2

    def __post_init__(self):
        if self.kind not in ("conv", "deconv", "dense"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "leaky_relu" and not 0.0 < self.slope < 1.0:
            raise ValueError(f"leaky_relu slope must be in (0,1), got {self.slope}")
        if self.stride < 1 or self.padding < 0:
            raise ValueError("stride must be >= 1 and padding >= 0")
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)

    @property
    def kernel_size(self) -> int:
        return 1 if self.kind == "dense" else int(self.weights.shape[-1])

    def out_channels(self) -> int:
        if self.kind == "deconv":
            return int(self.weights.shape[1])
        return int(self.weights.shape[0])

    def in_channels(self) -> int:
        if self.kind == "deconv":
            return int(self.weights.shape[0])
        return int(self.weights.shape[1])


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def conv_layer(in_ch, out_ch, k, stride=1, padding=0, activation="linear",
               slope=0.2, *, rng: np.random.Generator) -> LayerParams:
    w = _uniform_init(rng, (out_ch, in_ch, k, k), in_ch * k * k)
    return LayerParams("conv", w, np.zeros(out_ch, np.float32), stride, padding,
                       activation, slope)


def deconv_layer(in_ch, out_ch, k, stride=1, padding=0, activation="linear",
                 slope=0.2, *, rng: np.random.Generator) -> LayerParams:
    w = _uniform_init(rng, (in_ch, out_ch, k, k), in_ch * k * k)
    return LayerParams("deconv", w, np.zeros(out_ch, np.float32), stride, padding,
                       activation, slope)


def dense_layer(in_features, out_features, activation="linear", slope=0.2,
                *, rng: np.random.Generator) -> LayerParams:
    w = _uniform_init(rng, (out_features, in_features), in_features)
    return LayerParams("dense", w, np.zeros(out_features, np.float32),
                       activation=activation, slope=slope)


# ---------------------------------------------------------------------------
# activations

def activate(kind: str, x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """Elementwise activation; total on all finite inputs."""
    x = np.asarray(x, dtype=np.float32)
    if kind == "linear":
        return x
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        return np.where(x >= 0.0, x, np.float32(slope) * x)
    if kind == "sigmoid":
        z = np.clip(x, -_SIGMOID_CLIP, _SIGMOID_CLIP)
        return (1.0 / (1.0 + np.exp(-z))).astype(np.float32)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(kind: str, z: np.ndarray, slope: float) -> np.ndarray:
    if kind == "linear":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(np.float32)
    if kind == "leaky_relu":
        return np.where(z >= 0.0, np.float32(1.0), np.float32(slope))
    if kind == "sigmoid":
        s = activate("sigmoid", z)
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# im2col plumbing

def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(N,C,H,W) -> (N, C*k*k, OH*OW) patch matrix, OH and OW."""
    n, c, h, w = x.shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k} with stride {stride}, padding {pad} does not "
                         f"fit input {h}x{w}")
    xp = np.zeros((n * c, h + 2 * pad, w + 2 * pad), x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x.reshape(n * c, h, w)
    u, v, a, b = np.ix_(range(k), range(k), range(0, stride * oh, stride),
                        range(0, stride * ow, stride))
    cells = ((u + a) * (w + 2 * pad) + v + b).ravel()  # patch order (u, v, a, b)
    cols = np.take(xp.reshape(n * c, -1), cells, axis=1)
    return cols.reshape(n, c * k * k, oh * ow), oh, ow


# ---------------------------------------------------------------------------
# layer forward/backward kernels

# A conv layer's two linear maps, on its (out, in*k*k) weight matrix W:
# x -> W @ im2col(x) and its adjoint d -> col2im(W.T @ d). A deconv holding
# the same array applies them the other way round.

def _conv_map(wmat: np.ndarray, x: np.ndarray, k: int, stride: int, pad: int):
    """W @ im2col(x); returns it as (N, out, OH*OW), the patches, OH and OW."""
    cols, oh, ow = _im2col(x, k, stride, pad)
    return np.matmul(wmat, cols), cols, oh, ow


def _conv_adjoint(wmat: np.ndarray, d: np.ndarray, x_shape, k: int, stride: int,
                  pad: int) -> np.ndarray:
    """col2im(W.T @ d) for d shaped (N, out, OH*OW); returns x_shape.

    The taps are summed by output phase, as the module docstring describes.
    """
    n, c, h, w = x_shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    rows, width = -(-h // stride), max(ow, -(-w // stride))
    cols = np.matmul(wmat.T, d).reshape(n, c, k, k, oh, ow)
    if width > ow:
        cols = np.pad(cols, ((0, 0),) * 5 + ((0, width - ow),))
    # tap t lands in phase (t - pad) % stride, shifted by (t - pad) // stride
    taps = [((t - pad) % stride, (t - pad) // stride) for t in range(k)]
    for v, (rx, dj) in enumerate(taps):  # these columns would wrap into another row
        cols[:, :, :, v, :, :max(0, -dj)] = 0
        cols[:, :, :, v, :, max(0, -(-(w - rx) // stride) - dj):] = 0
    cols = cols.reshape(n, c, k, k, oh * width)
    size = rows * width
    planes = np.zeros((stride, stride, n, c, size), d.dtype)
    shifted = np.empty((n, c, size), d.dtype)
    for u, (ry, di) in enumerate(taps):
        for v, (rx, dj) in enumerate(taps):
            s = di * width + dj
            lo, hi = max(0, s), max(0, s, min(size, oh * width + s))
            shifted[:, :, :lo] = shifted[:, :, hi:] = 0
            shifted[:, :, lo:hi] = cols[:, :, u, v, lo - s:hi - s]
            planes[ry, rx] += shifted
    out = np.empty(x_shape, d.dtype)
    for ry, rx in np.ndindex(stride, stride):
        out[:, :, ry::stride, rx::stride] = planes[ry, rx].reshape(
            n, c, rows, width)[:, :, :-(-(h - ry) // stride), :-(-(w - rx) // stride)]
    return out


def _conv_forward(p: LayerParams, x: np.ndarray):
    o, ci, k, _ = p.weights.shape
    if x.shape[1] != ci:
        raise ShapeError(f"conv: input has {x.shape[1]} channels but weights "
                         f"{p.weights.shape} expect {ci} (input shape {x.shape})")
    z, cols, oh, ow = _conv_map(p.weights.reshape(o, -1), x, k, p.stride,
                                p.padding)
    z = np.add(z, p.bias[:, None], out=z).reshape(x.shape[0], o, oh, ow)
    return z, (x.shape, cols)


def _conv_backward(p: LayerParams, cache, dz: np.ndarray):
    x_shape, cols = cache
    n, o = dz.shape[0], dz.shape[1]
    dz2 = dz.reshape(n, o, -1)
    dw = np.tensordot(dz2, cols, axes=([0, 2], [0, 2])).reshape(p.weights.shape)
    db = dz2.sum(axis=(0, 2))
    dx = _conv_adjoint(p.weights.reshape(o, -1), dz2, x_shape, p.kernel_size,
                       p.stride, p.padding)
    return dx, dw, db


def _deconv_forward(p: LayerParams, x: np.ndarray):
    ci, co, k, _ = p.weights.shape
    if x.shape[1] != ci:
        raise ShapeError(f"deconv: input has {x.shape[1]} channels but weights "
                         f"{p.weights.shape} expect {ci} (input shape {x.shape})")
    n, _, h, w = x.shape
    oh = deconv_out_size(h, k, p.stride, p.padding)
    ow = deconv_out_size(w, k, p.stride, p.padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"deconv output would be {oh}x{ow} for input {h}x{w}")
    z = _conv_adjoint(p.weights.reshape(ci, -1), x.reshape(n, ci, h * w),
                      (n, co, oh, ow), k, p.stride, p.padding)
    z += p.bias[None, :, None, None]
    return z, x


def _deconv_backward(p: LayerParams, x, dz: np.ndarray):
    n, ci, h, w = x.shape
    dx, cols_dz, _, _ = _conv_map(p.weights.reshape(ci, -1), dz, p.kernel_size,
                                  p.stride, p.padding)
    dw = np.tensordot(x.reshape(n, ci, h * w), cols_dz,
                      axes=([0, 2], [0, 2])).reshape(p.weights.shape)
    db = dz.sum(axis=(0, 2, 3))
    return dx.reshape(x.shape), dw, db


def _dense_forward(p: LayerParams, x: np.ndarray):
    o, fi = p.weights.shape
    if x.shape[1] != fi:
        raise ShapeError(f"dense: input has {x.shape[1]} features but weights "
                         f"{p.weights.shape} expect {fi}")
    z = x @ p.weights.T + p.bias
    return z, x


def _dense_backward(p: LayerParams, cache, dz: np.ndarray):
    x = cache
    dw = dz.T @ x
    db = dz.sum(axis=0)
    dx = dz @ p.weights
    return dx, dw, db


_FORWARD = {"conv": _conv_forward, "deconv": _deconv_forward, "dense": _dense_forward}
_BACKWARD = {"conv": _conv_backward, "deconv": _deconv_backward, "dense": _dense_backward}


def _layer_forward(p: LayerParams, x: np.ndarray, record: bool):
    z, cache = _FORWARD[p.kind](p, x)
    y = activate(p.activation, z, p.slope)
    return y, ((cache, z) if record else None)


def _layer_backward(p: LayerParams, cache, dy: np.ndarray):
    inner, z = cache
    dz = dy * _activate_grad(p.activation, z, p.slope)
    return _BACKWARD[p.kind](p, inner, dz)


# ---------------------------------------------------------------------------
# losses (scalar values in double precision, gradients in float32)

def _same_shape(a: np.ndarray, b: np.ndarray, op: str):
    """Both operands as float32 arrays; ShapeError unless their shapes match."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    return a, b


def bce_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean binary cross-entropy; predictions clamped away from {0,1}."""
    pred, target = _same_shape(pred, target, "bce_loss")
    p = np.clip(pred, _BCE_EPS, 1.0 - _BCE_EPS).astype(np.float64)
    t = target.astype(np.float64)
    return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log1p(-p)))


def bce_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    pred, target = _same_shape(pred, target, "bce_grad")
    p = np.clip(pred, _BCE_EPS, 1.0 - _BCE_EPS)
    g = (-target / p + (1.0 - target) / (1.0 - p)) / pred.size
    g[(pred < _BCE_EPS) | (pred > 1.0 - _BCE_EPS)] = 0.0  # clamp is flat
    return g.astype(np.float32)


def l1_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference; zero iff a == b."""
    a, b = _same_shape(a, b, "l1_loss")
    return float(np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def l1_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _same_shape(a, b, "l1_grad")
    return (np.sign(a - b) / a.size).astype(np.float32)


# ---------------------------------------------------------------------------
# feed-forward chain with recorded caches

class Sequential:
    """Ordered chain of layers with explicit forward/backward.

    ``forward(x, record=True)`` stores the per-layer inputs needed by
    ``backward``; a backward call without a recorded forward is rejected.
    A ``forward`` without ``record`` leaves the stored inputs alone, so
    inference may run between a recorded forward and its backward.
    """

    def __init__(self, layers):
        self.layers: list[LayerParams] = list(layers)
        self._caches = None

    def forward(self, x: np.ndarray, record: bool = False) -> np.ndarray:
        caches = []
        y = np.asarray(x, dtype=np.float32)
        for p in self.layers:
            y, cache = _layer_forward(p, y, record)
            caches.append(cache)
        if record:
            self._caches = caches
        return y

    def backward(self, dy: np.ndarray):
        """Return (dx, grads); grads align with parameters(). Consumes the cache."""
        if self._caches is None:
            raise RuntimeError("backward called without a recorded forward pass")
        grads: list[np.ndarray] = []
        d = np.asarray(dy, dtype=np.float32)
        for p, cache in zip(reversed(self.layers), reversed(self._caches)):
            d, dw, db = _layer_backward(p, cache, d)
            grads.append(db)
            grads.append(dw)
        self._caches = None
        grads.reverse()
        return d, grads

    def parameters(self) -> list[np.ndarray]:
        out = []
        for p in self.layers:
            out.append(p.weights)
            out.append(p.bias)
        return out


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    """Adam accumulators for one parameter list."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params, **hyper):
        """Zeroed accumulators for ``params``; ``hyper`` overrides lr, beta1,
        beta2 or epsilon."""
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], **hyper)


def adam_step(params, grads, state: AdamState) -> AdamState:
    """One bias-corrected Adam update, applied to the arrays in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(f"adam_step: {len(params)} params vs {len(grads)} grads vs "
                         f"{len(state.m)} accumulators")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient at step {state.step + 1}")
    state.step += 1
    b1 = np.float32(state.beta1)
    b2 = np.float32(state.beta2)
    corr1 = np.float32(1.0 - state.beta1 ** state.step)
    corr2 = np.float32(1.0 - state.beta2 ** state.step)
    lr = np.float32(state.lr)
    eps = np.float32(state.epsilon)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g.astype(np.float32, copy=False)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
    return state
