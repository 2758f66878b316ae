"""Conditional-GAN channel estimation.

The generator maps a 4-channel condition image (received pilots and known
pilot symbols, re/im planes) to the 2-channel gain image; a discriminator
judges (condition, gains) pairs. Training alternates discriminator and
generator updates with a BCE adversarial objective plus a strong L1
reconstruction term, and is fully seed-deterministic.

Model file format (magic ``CGE1``, version 1):
  4 bytes magic, 1 byte version, little-endian uint32 header length,
  UTF-8 JSON header (grid extents, hyperparameters, history, layer specs),
  then the float32 weight and bias arrays in layer order, generator first.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fileio, nn
from .channel import (ChannelRealization, PilotPattern, apply_channel,
                      gen_channel, insert_pilots, nmse)
from .errors import ConfigError, FormatError, ShapeError, TrainingError

_CGE_MAGIC = b"CGE1"
_CGE_VERSION = 1

CONDITION_CHANNELS = 4  # re/im of masked rx grid + re/im of pilot mask
GAIN_CHANNELS = 2


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    lambda_l1: float = 100.0
    val_fraction: float = 0.1


@dataclass
class TrainHistory:
    d_loss: list = field(default_factory=list)  # per epoch
    g_loss: list = field(default_factory=list)
    val_nmse: list = field(default_factory=list)


@dataclass
class CganModel:
    generator: nn.Sequential
    discriminator: nn.Sequential
    rows: int
    cols: int
    hyper: TrainConfig
    history: TrainHistory


def build_generator(rows: int, cols: int, seed: int) -> list[nn.LayerParams]:
    """Three strided conv blocks down, two deconv blocks up, deconv output."""
    if rows % 8 or cols % 8:
        raise ValueError(f"generator needs extents divisible by 8, got "
                         f"{rows}x{cols}")
    rng = np.random.default_rng(seed)
    slope = 0.2
    return [
        nn.conv_layer(4, 32, 4, 2, 1, "leaky_relu", slope, rng=rng),
        nn.conv_layer(32, 64, 4, 2, 1, "leaky_relu", slope, rng=rng),
        nn.conv_layer(64, 128, 4, 2, 1, "leaky_relu", slope, rng=rng),
        nn.deconv_layer(128, 64, 4, 2, 1, "leaky_relu", slope, rng=rng),
        nn.deconv_layer(64, 32, 4, 2, 1, "leaky_relu", slope, rng=rng),
        nn.deconv_layer(32, GAIN_CHANNELS, 4, 2, 1, "linear", rng=rng),
    ]


def build_discriminator(rows: int, cols: int, seed: int) -> list[nn.LayerParams]:
    """Four conv layers over (condition, candidate gains); spatial mean head."""
    if rows % 16 or cols % 16:
        raise ValueError(f"discriminator needs extents divisible by 16, got "
                         f"{rows}x{cols}")
    rng = np.random.default_rng(seed)
    return [
        nn.conv_layer(CONDITION_CHANNELS + GAIN_CHANNELS, 32, 4, 2, 1, "relu",
                      rng=rng),
        nn.conv_layer(32, 64, 4, 2, 1, "relu", rng=rng),
        nn.conv_layer(64, 128, 4, 2, 1, "relu", rng=rng),
        nn.conv_layer(128, 1, 4, 2, 1, "linear", rng=rng),
    ]


def make_condition(y: np.ndarray, pattern: PilotPattern) -> np.ndarray:
    """Stack [re/im of y at pilot cells, re/im of pilot symbols] as planes.

    ``y`` is one grid or a (..., rows, cols) stack of them; the result is
    (..., 4, rows, cols), each grid's planes the same as for that grid alone.
    """
    y = np.asarray(y)
    if y.shape[-2:] != (pattern.rows, pattern.cols):
        raise ShapeError(f"make_condition: grid {y.shape} vs pattern "
                         f"{pattern.rows}x{pattern.cols}")
    masked = gains_to_planes(np.where(pattern.mask(), y, 0.0).astype(np.complex64))
    pilots = np.broadcast_to(gains_to_planes(_pilot_frame(pattern)), masked.shape)
    return np.concatenate([masked, pilots], axis=-3)


def _pilot_frame(pattern: PilotPattern) -> np.ndarray:
    """The pilot-only frame: the known pilot symbols, zero at every data cell."""
    return insert_pilots(np.zeros((pattern.rows, pattern.cols), np.complex64),
                         pattern)


def gains_to_planes(gains: np.ndarray) -> np.ndarray:
    """(..., rows, cols) complex gains as (..., 2, rows, cols) float32 re/im
    planes: the inverse of ``planes_to_gains``."""
    gains = np.asarray(gains)
    if gains.ndim < 2:
        raise ShapeError(f"gains_to_planes: {gains.shape} is not a grid")
    return np.concatenate([gains.real[..., None, :, :], gains.imag[..., None, :, :]],
                          axis=-3).astype(np.float32, copy=False)


def planes_to_gains(planes: np.ndarray) -> np.ndarray:
    return (planes[..., 0, :, :] + 1j * planes[..., 1, :, :]).astype(np.complex64)


def estimate(model: CganModel, condition: np.ndarray) -> np.ndarray:
    """Generator forward pass on one (4,H,W) condition or an (N,4,H,W) batch.

    Returns the estimated complex gain grid, or the N grids of a batch.
    """
    batch = np.asarray(condition, dtype=np.float32)
    grid = (CONDITION_CHANNELS, model.rows, model.cols)
    if batch.ndim not in (3, 4) or batch.shape[-3:] != grid:
        raise ShapeError(f"condition shape {batch.shape} does not match the "
                         f"model grid {model.rows}x{model.cols}")
    gains = planes_to_gains(model.generator.forward(batch.reshape((-1,) + grid)))
    return gains[0] if batch.ndim == 3 else gains


# ---------------------------------------------------------------------------
# training

def _disc_pass(disc: nn.Sequential, conds: np.ndarray, x: np.ndarray,
               target: float, count: int, **skip):
    """One recorded discriminator pass on (condition, x) pairs against a BCE
    ``target`` for every pair: conv chain, sigmoid of the spatial mean as the
    (N,) score, then back through the chain, with the BCE gradient a mean
    over the ``count`` pairs of the whole batch, which these may be a lane
    of. ``skip`` takes the keywords of ``Sequential.backward``. Returns
    (scores, (dx, grads))."""
    z = disc.forward(np.concatenate([conds, x], 1), record=True)
    p = nn.activate("sigmoid", z.mean(axis=(1, 2, 3)))
    t = np.full(p.shape, target, np.float32)
    ds = nn.bce_grad(p, t, count) * p * (1.0 - p)
    dz = np.broadcast_to((ds / z[0].size)[:, None, None, None], z.shape)
    return p, disc.backward(np.ascontiguousarray(dz, dtype=np.float32), **skip)


def _bce(scores, target: float) -> float:
    """Mean BCE of the lanes' scores, joined in lane order, against ``target``."""
    p = np.concatenate(scores)
    return nn.bce_loss(p, np.full(p.shape, target, np.float32))


def _stack_batch(dataset, indices):
    conds, gains = (np.stack(part) for part in zip(*(dataset[i] for i in indices)))
    return conds, gains_to_planes(gains)


def check_training_setup(hyper: TrainConfig, count: int, rows: int, cols: int) -> None:
    """Raise ConfigError for a training set-up that cannot run to the end."""
    if count < 64:
        raise ConfigError(f"training needs at least 64 pairs, got {count}")
    if hyper.epochs < 1:
        raise ConfigError(f"training needs at least 1 epoch, got {hyper.epochs}")
    if hyper.batch_size < 1:
        raise ConfigError(f"batch size must be at least 1, got {hyper.batch_size}")
    if rows % 16 or cols % 16:
        raise ConfigError(f"CGE training needs grid extents divisible by 16, got "
                          f"{rows}x{cols}")


def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None where numpy's BLAS does not expose it."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_blas_lock = threading.Lock()
_blas_pin = {"holders": 0, "saved": 0}  # trainings in flight; the count before them


@contextlib.contextmanager
def _blas_pinned(get, put):
    """Pin OpenBLAS to 1 thread for the block. Overlapping blocks, in any
    threads, share the pin: the first in saves the thread count and the last
    out puts it back, also on an error."""
    with _blas_lock:
        if not _blas_pin["holders"]:
            _blas_pin["saved"] = get()
            put(1)
        _blas_pin["holders"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pin["holders"] -= 1
            if not _blas_pin["holders"]:
                put(_blas_pin["saved"])


@contextlib.contextmanager
def _lane_runner():
    """Yield ``run(fn, lanes)``, which returns ``[fn(*args) for args in
    lanes]`` for one or two lanes of arguments.

    Where numpy's OpenBLAS exposes its thread count, it is pinned to 1 thread
    for the whole block, process-wide (``_blas_pinned``); lane 0 runs on the
    calling thread and lane 1 on one worker thread. Elsewhere the lanes run
    one after the other. A lane's error surfaces as itself.
    """
    blas = _openblas()
    if blas is None:
        yield lambda fn, lanes: [fn(*args) for args in lanes]
        return
    with _blas_pinned(*blas), ThreadPoolExecutor(max_workers=1) as pool:
        def run(fn, lanes):
            second = pool.submit(fn, *lanes[1]) if len(lanes) > 1 else None
            return [fn(*lanes[0])] + ([second.result()] if second else [])

        yield run


def _lane_slices(n: int) -> list[slice]:
    """The two fixed lanes of an n-sample batch: the first ceil(n/2) samples
    and the rest; a batch of one is one lane."""
    half = -(-n // 2)
    return [slice(0, half), slice(half, n)] if n > 1 else [slice(0, n)]


def _lane_sum(grads) -> list[np.ndarray]:
    """Per-parameter sum of gradient lists (the lanes', or a lane's two
    discriminator passes) in list order, added into the first list's arrays,
    which it returns: ``np.add(a, b, out=a)`` has the bytes of ``a + b``
    without a third array."""
    first, *rest = grads
    for other in rest:
        for a, b in zip(first, other):
            np.add(a, b, out=a)
    return first


def _critic_lane(gen: nn.Sequential, disc: nn.Sequential, conds, gains, n: int):
    """Phase 1 of a lane of an n-pair batch: the generated gains, then the
    discriminator's scores and summed gradients on real pairs (target 1) and
    generated pairs (target 0). Returns (fake, real scores, fake scores,
    grads)."""
    fake = gen.forward(conds, record=True)
    p_real, (_, grads_real) = _disc_pass(disc, conds, gains, 1.0, n, input_grad=False)
    p_fake, (_, grads_fake) = _disc_pass(disc, conds, fake, 0.0, n, input_grad=False)
    return fake, p_real, p_fake, _lane_sum((grads_real, grads_fake))


def _generator_lane(gen: nn.Sequential, disc: nn.Sequential, conds, gains, n: int,
                    fake, lam: np.float32):
    """Phase 2 of a lane: fool the updated discriminator (target 1) and stay
    close to the true gains in L1, weighted by ``lam``, back through the
    generator pass of phase 1. Only the gain channels' input gradient of the
    discriminator is taken. Returns (adversarial scores, generator grads)."""
    p_adv, (dx, _) = _disc_pass(disc, conds, fake, 1.0, n, param_grads=False,
                                input_grad=slice(CONDITION_CHANNELS, None))
    dfake = dx + lam * nn.l1_grad(fake, gains, n * fake[0].size)
    return p_adv, gen.backward(dfake, input_grad=False)[1]


def train_cgan(dataset, hyper: TrainConfig | None = None, seed: int = 0,
               on_epoch=None) -> CganModel:
    """Adversarial training on (condition, true gains) pairs.

    The dataset is split 90/10 train/validation by the seed; losses and
    validation NMSE are recorded per epoch, and ``on_epoch(epoch, history)``,
    if given, is called after each epoch is recorded. Deterministic: the same
    seed and dataset give bit-identical weights.

    Each batch runs as two fixed lanes (``_lane_slices``), each through its
    own ``Sequential`` pair over the model's layers, in two phases: generator
    forward and the real and fake discriminator passes, then the adversarial
    pass and the generator backward. After each phase the lanes' gradients
    are summed in lane order into lane 0's arrays for one Adam step (the full
    batch's gradient up to float order), and released after it. The lanes run
    in two threads with OpenBLAS pinned to 1 thread (``_lane_runner``), or one
    after the other with the same bytes.
    """
    hyper = hyper or TrainConfig()
    rows, cols = dataset[0][1].shape if len(dataset) else (0, 0)
    check_training_setup(hyper, len(dataset), rows, cols)
    rng = np.random.default_rng(seed)
    model = _init_model(rows, cols, rng, hyper)
    gen, disc = model.generator, model.discriminator
    adam = {"lr": hyper.lr, "beta1": hyper.beta1, "beta2": hyper.beta2}
    g_state = nn.AdamState.for_params(gen.parameters(), **adam)
    d_state = nn.AdamState.for_params(disc.parameters(), **adam)
    nets = [(nn.Sequential(gen.layers), nn.Sequential(disc.layers)) for _ in range(2)]

    perm = rng.permutation(len(dataset))
    n_val = max(1, int(round(len(dataset) * hyper.val_fraction)))
    val_pairs = [dataset[i] for i in perm[:n_val]]
    train_idx = perm[n_val:]

    history = model.history
    lam = np.float32(hyper.lambda_l1)
    with _lane_runner() as run:
        for epoch in range(hyper.epochs):
            order = rng.permutation(train_idx)
            d_losses = []
            g_losses = []
            for start in range(0, len(order), hyper.batch_size):
                batch = order[start:start + hyper.batch_size]
                conds, gains = _stack_batch(dataset, batch)
                lanes = [(*net, conds[s], gains[s], len(batch))
                         for net, s in zip(nets, _lane_slices(len(batch)))]

                fakes, p_real, p_fake, d_grads = zip(*run(_critic_lane, lanes))
                d_loss = _bce(p_real, 1.0) + _bce(p_fake, 0.0)
                nn.adam_step(disc.parameters(), _lane_sum(d_grads), d_state)
                del d_grads  # not alive through phase 2

                p_adv, g_grads = zip(*run(_generator_lane, [
                    (*lane, fake, lam) for lane, fake in zip(lanes, fakes)]))
                l1 = nn.l1_loss(np.concatenate(fakes), gains)
                g_loss = _bce(p_adv, 1.0) + float(lam) * l1
                nn.adam_step(gen.parameters(), _lane_sum(g_grads), g_state)
                del g_grads  # not alive through the next batch's phase 1

                if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, step "
                                        f"{start // hyper.batch_size}: d={d_loss}, "
                                        f"g={g_loss}")
                d_losses.append(d_loss)
                g_losses.append(g_loss)
            history.d_loss.append(float(np.mean(d_losses)))
            history.g_loss.append(float(np.mean(g_losses)))
            history.val_nmse.append(evaluate_nmse(model, val_pairs))
            if on_epoch is not None:
                on_epoch(epoch, history)
    return model


def _init_model(rows: int, cols: int, rng: np.random.Generator,
                hyper: TrainConfig) -> CganModel:
    """Fresh generator and discriminator, seeded by two draws from ``rng``."""
    gen = nn.Sequential(build_generator(rows, cols, int(rng.integers(2 ** 63))))
    disc = nn.Sequential(build_discriminator(rows, cols, int(rng.integers(2 ** 63))))
    return CganModel(gen, disc, rows, cols, hyper, TrainHistory())


def untrained_model(rows: int, cols: int, seed: int = 0) -> CganModel:
    """Freshly initialized networks, e.g. as the learnability baseline."""
    return _init_model(rows, cols, np.random.default_rng(seed), TrainConfig())


def evaluate_nmse(model: CganModel, pairs) -> float:
    """Mean NMSE of the generator over (condition, true gains) pairs.

    The conditions go through ``estimate`` in batches of the model's
    training batch size.
    """
    pairs = list(pairs)
    size = model.hyper.batch_size
    scores = []
    for start in range(0, len(pairs), size):
        chunk = pairs[start:start + size]
        conds, gains = (np.stack(part) for part in zip(*chunk))
        scores.extend(nmse(estimate(model, conds), gains))
    return float(np.mean(scores))


def _pilot_pair(h: ChannelRealization, pattern: PilotPattern, snr_db: float,
                noise_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(condition, gains) of a pilot-only frame sent through ``h``."""
    y = apply_channel(_pilot_frame(pattern), h, snr_db, noise_seed)
    return make_condition(y, pattern), h.gains


def make_training_set(count: int, rows: int, cols: int, sigma_f: float,
                      sigma_t: float, pattern: PilotPattern, snr_db: float,
                      seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Synthesize (condition, gains) pairs from pilot-only frames."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        h = gen_channel(int(rng.integers(2 ** 63)), rows, cols, sigma_f, sigma_t)
        pairs.append(_pilot_pair(h, pattern, snr_db, int(rng.integers(2 ** 63))))
    return pairs


def pairs_from_realizations(realizations: list[ChannelRealization],
                            pattern: PilotPattern, snr_db: float,
                            noise_seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Build (condition, gains) pairs from stored channel realizations."""
    rng = np.random.default_rng(noise_seed)
    return [_pilot_pair(h, pattern, snr_db, int(rng.integers(2 ** 63)))
            for h in realizations]


# ---------------------------------------------------------------------------
# persistence

def _layer_spec(p: nn.LayerParams) -> dict:
    return {"kind": p.kind, "stride": p.stride, "padding": p.padding,
            "activation": p.activation, "slope": p.slope,
            "w_shape": list(p.weights.shape), "b_shape": list(p.bias.shape)}


def save_model(model: CganModel, path) -> None:
    header = {"rows": model.rows, "cols": model.cols, "hyper": asdict(model.hyper),
              "history": asdict(model.history),
              "generator": [_layer_spec(p) for p in model.generator.layers],
              "discriminator": [_layer_spec(p) for p in model.discriminator.layers]}
    fileio.write_framed(path, _CGE_MAGIC, _CGE_VERSION, header,
                        (np.ascontiguousarray(a, dtype="<f4").tobytes()
                         for p in model.generator.layers + model.discriminator.layers
                         for a in (p.weights, p.bias)))


def load_model(path) -> CganModel:
    """Read a CGE1 file: the layer shapes of both networks fix the body's
    length, which is checked once, then every weight for finiteness, and the
    body is split into the layers' arrays in one pass. The generator then
    runs once on a zero condition, so a file whose generator cannot map a
    (1, 4, rows, cols) batch to (1, 2, rows, cols) is refused here, not at
    its first estimate."""
    header, body = fileio.read_framed(path, _CGE_MAGIC, _CGE_VERSION, "CGE model")
    try:
        rows, cols = int(header["rows"]), int(header["cols"])
        hyper = TrainConfig(**header["hyper"])
        if not isinstance(hyper.batch_size, int) or hyper.batch_size < 1:
            raise ValueError(f"batch_size {hyper.batch_size!r} is not a positive int")
        history = TrainHistory(**header["history"])
        nets = [header["generator"], header["discriminator"]]
        shapes = [tuple(spec[key]) for net in nets for spec in net
                  for key in ("w_shape", "b_shape")]
        if not all(isinstance(d, int) and d >= 0 for shape in shapes for d in shape):
            raise ValueError(f"layer shapes must hold non-negative ints: {shapes}")
        sizes = [math.prod(shape) for shape in shapes]
        if 4 * sum(sizes) != len(body):
            raise FormatError(f"{path}: the layer shapes need {4 * sum(sizes)} "
                              f"weight bytes, found {len(body)} (truncated or "
                              f"trailing data)")
        values = np.frombuffer(body, dtype="<f4")
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: non-finite weight data")
        # a copy per array, not a view: in the file's read buffer the body
        # starts at byte 9 + header length, so float32 views of it may be
        # misaligned, and numpy's matmul sums misaligned operands another
        # way (a 16x16 model's batch-1 estimate changed bytes)
        arrays = (a.reshape(shape).copy() for a, shape in
                  zip(np.split(values, np.cumsum(sizes[:-1])), shapes))
        gen, disc = (nn.Sequential([nn.LayerParams(
            spec["kind"], next(arrays), next(arrays), spec["stride"], spec["padding"],
            spec["activation"], spec["slope"]) for spec in net]) for net in nets)
        # inference runs only the generator, on (N, 4, rows, cols) batches
        out = gen.forward(np.zeros((1, CONDITION_CHANNELS, rows, cols), np.float32))
        if out.shape != (1, GAIN_CHANNELS, rows, cols):
            raise ValueError(f"the generator maps a {rows}x{cols} grid to {out.shape}")
    except (ValueError, KeyError, TypeError, OverflowError, ShapeError) as exc:
        raise FormatError(f"{path}: malformed CGE model header ({exc})") from exc
    return CganModel(gen, disc, rows, cols, hyper, history)
