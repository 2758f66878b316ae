"""Minimal differentiable kernels: conv/deconv/dense layers, losses, Adam.

Layers run only through ``Sequential``, which takes and returns batched
float32 arrays shaped (N, C, H, W) for image-like data and (N, F) for flat
data. Inside the chain activations are channel-major, (C, N, H, W) or
(F, N): ``Sequential`` swaps the first two axes once on the way in and once
on the way out. The network graphs used here are fixed feed-forward chains,
so gradients are computed from explicit per-layer cached inputs instead of a
general tape. All operations are deterministic: identical inputs give
bit-identical outputs.

Conv kernels. A conv layer's patch matrix is (C*k*k, N*OH*OW): row
(c, u, v) holds tap (u, v) of channel c, and the samples' patch columns sit
side by side, so the batch is a GEMM's column count without any copy.
``_im2col`` fills a zeroed matrix with one strided copy per tap, of the
patch cells whose tap lands inside the input; the rest is the zero padding.

The GEMM rule. A forward map (W @ im2col(x) for conv, its adjoint W.T @ x
for deconv, W @ x for dense) runs one GEMM per sample, on that sample's
column block. A backward product (dw = d @ cols.T, the conv dx = W.T @ d,
the deconv dx = W @ im2col(d)) is one GEMM over the whole batch. Why:
OpenBLAS picks its kernels and blocking by the operand shapes, so a GEMM
whose column count grows with the batch may sum in another order than the
per-sample one. Folding the batch was measured to change bytes on some
shapes, all with 4 or 16 cells per sample or at most 2 output rows, the
16x16 generator's second and third conv among them. A per-sample GEMM has
the same shape at any batch size, so a grid's forward output does not depend
on the batch it rides in. The backward products feed only training, where
one GEMM per product is faster. The bias gradient is summed over a
contiguous batch-major copy, so it has the bytes of a sum over an
(N, O, cells) array, which no reduction on the channel-major layout gives.
One shape falls outside the rule: a map with one output row and one cell
per sample (the discriminator head on a 16x16 grid) is a dot product, which
OpenBLAS sums in another order on the strided column block of a batch than
on the contiguous one of a single sample.

The adjoint col2im, used for conv dx and the deconv forward, sums by output
phase. Output cell (y, x) lies in phase (y % stride, x % stride); tap u of
patch row a lands on row a*stride + u - pad, which is in phase
(u - pad) % stride at plane row a + (u - pad) // stride, and likewise for
columns. Each phase plane is stored flat with the patch grid's row length
OW (wider, zero-filled, when a plane has more columns than OW), so a tap is
one dense add of its shifted patch plane into a slice of the phase plane.
Patch columns that fall outside the plane are zeroed first; they would
otherwise wrap into a neighbouring row. The taps are added in the (u, v)
order of a direct scatter-add, onto planes that start at +0.0. A
round-to-nearest sum that starts at +0.0 never becomes -0.0, and adding
+0.0 to it changes nothing, so the zeroed columns and the skipped ends of a
shifted tap leave every output cell with the bytes of the scatter-add. One
strided copy per phase then interleaves the planes into (C, N, H, W).
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
        if self.activation == "leaky_relu":
            _check_slope(self.slope)
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)
        if self.weights.ndim != (2 if self.kind == "dense" else 4):
            raise ValueError(f"{self.kind} weights of shape {self.weights.shape}")
        if not (type(self.stride) is int and type(self.padding) is int  # no bool
                and self.stride >= 1 and 0 <= self.padding < self.kernel_size):
            raise ValueError(f"stride {self.stride!r} must be an int >= 1 and padding "
                             f"{self.padding!r} an int in [0, {self.kernel_size})")

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

def _check_slope(slope: float):
    """leaky_relu is max(x, slope*x), which needs slope in (0, 1)."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0,1), got {slope}")


def activate(kind: str, x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """Elementwise activation; total on all finite inputs."""
    x = np.asarray(x, dtype=np.float32)
    if kind == "linear":
        return x
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        _check_slope(slope)
        return np.maximum(x, np.float32(slope) * x)
    if kind == "sigmoid":
        z = np.clip(x, -_SIGMOID_CLIP, _SIGMOID_CLIP)
        return (1.0 / (1.0 + np.exp(-z))).astype(np.float32)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(kind: str, z: np.ndarray, dy: np.ndarray, slope: float) -> np.ndarray:
    """dy times the activation's derivative at z."""
    if kind == "linear":
        return dy
    if kind == "relu":
        return dy * (z > 0.0)
    if kind == "leaky_relu":
        return np.where(z >= 0.0, dy, np.float32(slope) * dy)
    if kind == "sigmoid":
        s = activate("sigmoid", z)
        return dy * (s * (1.0 - s))
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# im2col plumbing

def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(C,N,H,W) -> (C*k*k, N*OH*OW) patch matrix, OH and OW."""
    c, n, h, w = x.shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k} with stride {stride}, padding {pad} does not "
                         f"fit input {h}x{w}")

    def inside(t, size, out):
        """Patch rows (or columns) lo:hi whose tap t lands inside the input,
        and the input row (or column) of patch row lo."""
        lo = max(0, -((t - pad) // stride))
        hi = min(out, (size - 1 + pad - t) // stride + 1)
        return lo, max(lo, hi), lo * stride + t - pad

    cols = np.zeros((c, k, k, n, oh, ow), x.dtype)  # the padding stays zero
    for u in range(k):
        a0, a1, y0 = inside(u, h, oh)
        for v in range(k):
            b0, b1, x0 = inside(v, w, ow)
            cols[:, u, v, :, a0:a1, b0:b1] = x[:, :, y0:y0 + (a1 - a0) * stride:stride,
                                               x0:x0 + (b1 - b0) * stride:stride]
    return cols.reshape(c * k * k, n * oh * ow), oh, ow


def _per_sample(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a @ b as one GEMM per sample: b is (rows, n*cells), its column blocks
    the samples; returns (a rows, n*cells) in the same block layout."""
    out = np.empty((a.shape[0], b.shape[1]), np.float32)
    np.matmul(a, b.reshape(b.shape[0], n, -1).swapaxes(0, 1),
              out=out.reshape(a.shape[0], n, -1).swapaxes(0, 1))
    return out


def _bias_grad(d: np.ndarray, n: int) -> np.ndarray:
    """Per-row sum of a channel-major (O, N*cells) gradient, reduced over a
    contiguous (N, O, cells) copy so the sum runs in the order of a
    batch-major layout."""
    return np.ascontiguousarray(d.reshape(d.shape[0], n, -1).swapaxes(0, 1)).sum(
        axis=(0, 2))


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of ``_im2col``: sums a (C*k*k, N*OH*OW) patch matrix into
    x_shape (C, N, H, W), by output phase as the module docstring describes."""
    c, n, h, w = x_shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    rows, width = -(-h // stride), max(ow, -(-w // stride))
    cols = cols.reshape(c, k, k, n, oh, ow)
    if width > ow:
        cols = np.pad(cols, ((0, 0),) * 5 + ((0, width - ow),))
    # tap t lands in phase (t - pad) % stride, shifted by (t - pad) // stride
    taps = [((t - pad) % stride, (t - pad) // stride) for t in range(k)]
    for v, (rx, dj) in enumerate(taps):  # these columns would wrap into another row
        cols[:, :, v, :, :, :max(0, -dj)] = 0
        cols[:, :, v, :, :, max(0, -(-(w - rx) // stride) - dj):] = 0
    cols = cols.reshape(c, k, k, n, oh * width)
    size = rows * width
    planes = np.zeros((stride, stride, c, n, size), cols.dtype)
    for u, (ry, di) in enumerate(taps):
        for v, (rx, dj) in enumerate(taps):
            s = di * width + dj
            lo, hi = max(0, s), min(size, oh * width + s)
            if lo < hi:
                planes[ry, rx, :, :, lo:hi] += cols[:, u, v, :, lo - s:hi - s]
    out = np.empty(x_shape, cols.dtype)
    for ry, rx in np.ndindex(stride, stride):
        out[:, :, ry::stride, rx::stride] = planes[ry, rx].reshape(
            c, n, rows, width)[:, :, :-(-(h - ry) // stride), :-(-(w - rx) // stride)]
    return out


# ---------------------------------------------------------------------------
# layer forward/backward kernels, on channel-major arrays
#
# A conv layer's two linear maps, on its (out, in*k*k) weight matrix W:
# x -> W @ im2col(x) and its adjoint d -> col2im(W.T @ d). A deconv holding
# the same array applies them the other way round. A forward runs its map
# one GEMM per sample; a backward product is one GEMM over the whole batch.
# Each backward returns (dx, dw, db), with None for a product not asked for.

def _conv_forward(p: LayerParams, x: np.ndarray):
    o, _, k, _ = p.weights.shape
    n = x.shape[1]
    cols, oh, ow = _im2col(x, k, p.stride, p.padding)
    z = _per_sample(p.weights.reshape(o, -1), cols, n)
    z += p.bias[:, None]
    return z.reshape(o, n, oh, ow), (x.shape, cols)


def _conv_backward(p: LayerParams, cache, dz: np.ndarray, input_grad: bool,
                   param_grads: bool):
    x_shape, cols = cache
    wmat = p.weights.reshape(p.weights.shape[0], -1)
    d = dz.reshape(wmat.shape[0], -1)
    dx = dw = db = None
    if param_grads:
        dw = (d @ cols.T).reshape(p.weights.shape)
        db = _bias_grad(d, x_shape[1])
    if input_grad:
        dx = _col2im(wmat.T @ d, x_shape, p.kernel_size, p.stride, p.padding)
    return dx, dw, db


def _deconv_forward(p: LayerParams, x: np.ndarray):
    ci, co, k, _ = p.weights.shape
    _, n, h, w = x.shape
    oh = deconv_out_size(h, k, p.stride, p.padding)
    ow = deconv_out_size(w, k, p.stride, p.padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"deconv output would be {oh}x{ow} for input {h}x{w}")
    d = _per_sample(p.weights.reshape(ci, -1).T, x.reshape(ci, -1), n)
    z = _col2im(d, (co, n, oh, ow), k, p.stride, p.padding)
    z += p.bias[:, None, None, None]
    return z, x


def _deconv_backward(p: LayerParams, x, dz: np.ndarray, input_grad: bool,
                     param_grads: bool):
    ci = x.shape[0]
    wmat = p.weights.reshape(ci, -1)
    cols_dz, _, _ = _im2col(dz, p.kernel_size, p.stride, p.padding)
    dx = dw = db = None
    if param_grads:
        dw = (x.reshape(ci, -1) @ cols_dz.T).reshape(p.weights.shape)
        db = _bias_grad(dz.reshape(dz.shape[0], -1), dz.shape[1])
    if input_grad:
        dx = (wmat @ cols_dz).reshape(x.shape)
    return dx, dw, db


def _dense_forward(p: LayerParams, x: np.ndarray):
    z = _per_sample(p.weights, x, x.shape[1])
    z += p.bias[:, None]
    return z, x


def _dense_backward(p: LayerParams, x, dz: np.ndarray, input_grad: bool,
                    param_grads: bool):
    dx = dw = db = None
    if param_grads:
        dw = dz @ x.T
        db = _bias_grad(dz, dz.shape[1])
    if input_grad:
        dx = p.weights.T @ dz
    return dx, dw, db


_FORWARD = {"conv": _conv_forward, "deconv": _deconv_forward, "dense": _dense_forward}
_BACKWARD = {"conv": _conv_backward, "deconv": _deconv_backward, "dense": _dense_backward}


def _layer_forward(p: LayerParams, x: np.ndarray, record: bool):
    if x.shape[0] != p.in_channels():
        raise ShapeError(f"{p.kind}: input has {x.shape[0]} channels but weights "
                         f"{p.weights.shape} expect {p.in_channels()} (input shape "
                         f"{(x.shape[1], x.shape[0]) + x.shape[2:]})")
    z, cache = _FORWARD[p.kind](p, x)
    y = activate(p.activation, z, p.slope)
    return y, ((cache, z) if record else None)


def _layer_backward(p: LayerParams, cache, dy: np.ndarray, input_grad: bool,
                    param_grads: bool):
    inner, z = cache
    dz = _activate_grad(p.activation, z, dy, p.slope)
    return _BACKWARD[p.kind](p, inner, dz, input_grad, param_grads)


def _swap_batch(x: np.ndarray) -> np.ndarray:
    """Contiguous copy with the first two axes swapped: (N, C, ...) to
    (C, N, ...) on the way in, and back on the way out."""
    return np.ascontiguousarray(np.swapaxes(x, 0, 1))


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


def bce_grad(pred: np.ndarray, target: np.ndarray, count: int) -> np.ndarray:
    """Gradient of ``bce_loss`` as a mean over ``count`` predictions:
    ``pred.size`` for a whole batch, the batch's count for a lane of it."""
    pred, target = _same_shape(pred, target, "bce_grad")
    p = np.clip(pred, _BCE_EPS, 1.0 - _BCE_EPS)
    g = (-target / p + (1.0 - target) / (1.0 - p)) / count
    g[(pred < _BCE_EPS) | (pred > 1.0 - _BCE_EPS)] = 0.0  # clamp is flat
    return g.astype(np.float32)


def l1_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference; zero iff a == b."""
    a, b = _same_shape(a, b, "l1_loss")
    return float(np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def l1_grad(a: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """Gradient of ``l1_loss`` as a mean over ``count`` elements, as in
    ``bce_grad``."""
    a, b = _same_shape(a, b, "l1_grad")
    return (np.sign(a - b) / count).astype(np.float32)


# ---------------------------------------------------------------------------
# feed-forward chain with recorded caches

class Sequential:
    """Ordered chain of layers with explicit forward/backward.

    ``forward(x, record=True)`` stores the per-layer inputs needed by
    ``backward``; a backward call without a recorded forward is rejected.
    A ``forward`` without ``record`` leaves the stored inputs alone, so
    inference may run between a recorded forward and its backward.

    The recorded inputs belong to this ``Sequential``, the parameters to its
    ``LayerParams``. Two threads therefore train one network through two
    ``Sequential``s over the same layers: each keeps its own recorded
    inputs, and an in-place update of the shared arrays reaches both.
    """

    def __init__(self, layers):
        self.layers: list[LayerParams] = list(layers)
        self._caches = None

    def forward(self, x: np.ndarray, record: bool = False) -> np.ndarray:
        caches = []
        y = _swap_batch(np.asarray(x, dtype=np.float32))
        for p in self.layers:
            y, cache = _layer_forward(p, y, record)
            caches.append(cache)
        if record:
            self._caches = caches
        return _swap_batch(y)

    def backward(self, dy: np.ndarray, *, input_grad: bool = True,
                 param_grads: bool = True):
        """Return (dx, grads); grads align with parameters(). Consumes the cache.

        ``input_grad=False`` skips the first layer's input gradient and
        ``param_grads=False`` every weight and bias gradient; a skipped
        product comes back as None.
        """
        if self._caches is None:
            raise RuntimeError("backward called without a recorded forward pass")
        grads: list[np.ndarray] = []
        d = _swap_batch(np.asarray(dy, dtype=np.float32))
        for i in reversed(range(len(self.layers))):
            d, dw, db = _layer_backward(self.layers[i], self._caches[i], d,
                                        input_grad or i > 0, param_grads)
            grads += [db, dw]
        self._caches = None
        grads.reverse()
        return (None if d is None else _swap_batch(d),
                grads if param_grads else None)

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
