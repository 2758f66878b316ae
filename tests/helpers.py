"""Shared numeric test utilities."""

import dataclasses
import sys

import numpy as np

from lammsc import cge, codec, nn, pipeline, semeval
from lammsc.channel import (ChannelRealization, _gauss_taps, ls_estimate, nmse,
                            noise_variance)
from lammsc.errors import LamMscError
from lammsc.mma import ScenePayload


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a of a byte string, one byte at a time (reference oracle)."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def reference_vector_ok(vector) -> bool:
    """The per-element rule for an /embed reply's vector (reference oracle):
    a list of DIM JSON numbers (a bool is not one), each finite and within
    float64's range."""
    return isinstance(vector, list) and len(vector) == semeval.DIM and all(
        type(x) in (int, float) and abs(x) <= sys.float_info.max for x in vector)


def reference_circular_smooth(plane: np.ndarray, sigma: float,
                              axis: int) -> np.ndarray:
    """Circular Gaussian smoothing as a sum of weighted rolls, one per tap
    (reference oracle)."""
    if sigma <= 0.0:
        return plane
    taps = _gauss_taps(sigma)
    radius = taps.size // 2
    out = np.zeros_like(plane)
    for off, w in zip(range(-radius, radius + 1), taps):
        out += w * np.roll(plane, off, axis=axis)
    return out


def reference_gen_channel(seed: int, rows: int, cols: int, sigma_f: float,
                          sigma_t: float) -> ChannelRealization:
    """channel.gen_channel with roll-loop smoothing (reference oracle)."""
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    h /= np.sqrt(2.0)
    h = reference_circular_smooth(h, sigma_f, axis=0)
    h = reference_circular_smooth(h, sigma_t, axis=1)
    h *= np.sqrt(h.size / np.sum(np.abs(h) ** 2))
    return ChannelRealization(h.astype(np.complex64), float(sigma_f), float(sigma_t),
                              int(seed))


def _reference_axis_weights(n: int, knots: np.ndarray):
    """Per-target lower knot index and linear weight, clamped at the edges."""
    targets = np.arange(n, dtype=np.float64)
    if knots.size == 1:
        return np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.float64)
    lo = np.clip(np.searchsorted(knots, targets, side="right") - 1, 0, knots.size - 2)
    left = knots[lo].astype(np.float64)
    right = knots[lo + 1].astype(np.float64)
    w = np.clip((targets - left) / (right - left), 0.0, 1.0)
    return lo, w


def reference_ls_estimate(y: np.ndarray, pattern) -> np.ndarray:
    """channel.ls_estimate as a weighted sum of each cell's four surrounding
    pilots (reference oracle)."""
    at_pilots = (np.asarray(y)[..., pattern.pilot_rows[:, None], pattern.pilot_cols]
                 .astype(np.complex128) / pattern.symbols.astype(np.complex128))
    r0, wr = _reference_axis_weights(pattern.rows, pattern.pilot_rows)
    c0, wc = _reference_axis_weights(pattern.cols, pattern.pilot_cols)
    r0, r1 = r0[:, None], np.minimum(r0 + 1, pattern.pilot_rows.size - 1)[:, None]
    c1 = np.minimum(c0 + 1, pattern.pilot_cols.size - 1)
    wr = wr[:, None]
    wc = wc[None, :]
    est = ((1 - wr) * (1 - wc) * at_pilots[..., r0, c0]
           + (1 - wr) * wc * at_pilots[..., r0, c1]
           + wr * (1 - wc) * at_pilots[..., r1, c0]
           + wr * wc * at_pilots[..., r1, c1])
    return est.astype(np.complex64)


def _ref_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def reference_im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(N,C,H,W) -> (N, C*k*k, OH*OW) patch matrix (reference oracle)."""
    n, c, h, w = x.shape
    oh = _ref_out_size(h, k, stride, pad)
    ow = _ref_out_size(w, k, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def reference_col2im(cols: np.ndarray, x_shape, k: int, stride: int,
                     pad: int) -> np.ndarray:
    """Adjoint of reference_im2col: one strided scatter-add per tap into a
    padded buffer, then a crop (reference oracle)."""
    n, c, h, w = x_shape
    oh = _ref_out_size(h, k, stride, pad)
    ow = _ref_out_size(w, k, stride, pad)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, k, k, oh, ow)
    for u in range(k):
        for v in range(k):
            xp[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += cols6[:, :, u, v]
    if pad:
        return np.ascontiguousarray(xp[:, :, pad:pad + h, pad:pad + w])
    return xp


def _fold_batch(a: np.ndarray) -> np.ndarray:
    """(N, R, P) -> contiguous (R, N*P): the samples side by side."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], -1)


def reference_layer(kind: str, weights: np.ndarray, bias: np.ndarray, stride: int,
                    pad: int, x: np.ndarray, dz: np.ndarray):
    """(z, dx, dw, db) of one linear conv or deconv layer on a batch, with
    im2col/col2im; the weight gradient is one GEMM over the samples' columns
    side by side (reference oracle)."""
    n = x.shape[0]
    k = weights.shape[-1]
    if kind == "conv":
        o, ci = weights.shape[:2]
        wmat = weights.reshape(o, -1)
        cols, oh, ow = reference_im2col(x, k, stride, pad)
        z = (np.matmul(wmat, cols) + bias[:, None]).reshape(n, o, oh, ow)
        dz2 = dz.reshape(n, o, -1)
        dw = (_fold_batch(dz2) @ _fold_batch(cols).T).reshape(weights.shape)
        db = dz2.sum(axis=(0, 2))
        dx = reference_col2im(np.matmul(wmat.T, dz2), x.shape, k, stride, pad)
        return z, dx, dw, db
    ci, co = weights.shape[:2]
    wmat = weights.reshape(ci, -1)
    _, _, h, w = x.shape
    oh = (h - 1) * stride - 2 * pad + k
    ow = (w - 1) * stride - 2 * pad + k
    z = reference_col2im(np.matmul(wmat.T, x.reshape(n, ci, h * w)),
                         (n, co, oh, ow), k, stride, pad)
    z += bias[None, :, None, None]
    cols_dz, _, _ = reference_im2col(dz, k, stride, pad)
    dx = np.matmul(wmat, cols_dz).reshape(x.shape)
    dw = (_fold_batch(x.reshape(n, ci, h * w)) @ _fold_batch(cols_dz).T
          ).reshape(weights.shape)
    db = dz.sum(axis=(0, 2, 3))
    return z, dx, dw, db


def reference_first_step(dataset, hyper, seed: int):
    """The first step of cge.train_cgan as one full-batch lane on the model's
    own networks, drawn from the same seed: the discriminator step on real
    and generated pairs, then the generator step against the updated
    discriminator. Returns (model, d_loss, g_loss) (reference oracle for the
    two-lane step)."""
    rng = np.random.default_rng(seed)
    model = cge._init_model(*dataset[0][1].shape, rng, hyper)
    gen, disc = model.generator, model.discriminator
    adam = {"lr": hyper.lr, "beta1": hyper.beta1, "beta2": hyper.beta2}
    g_state = nn.AdamState.for_params(gen.parameters(), **adam)
    d_state = nn.AdamState.for_params(disc.parameters(), **adam)
    perm = rng.permutation(len(dataset))
    n_val = max(1, int(round(len(dataset) * hyper.val_fraction)))
    order = rng.permutation(perm[n_val:])
    conds, gains = cge._stack_batch(dataset, order[:hyper.batch_size])

    def disc_pass(x, target, **skip):
        z = disc.forward(np.concatenate([conds, x], 1), record=True)
        p = nn.activate("sigmoid", z.mean(axis=(1, 2, 3)))
        t = np.full(p.shape, target, np.float32)
        ds = nn.bce_grad(p, t, p.size) * p * (1.0 - p)
        dz = np.broadcast_to((ds / z[0].size)[:, None, None, None], z.shape)
        return nn.bce_loss(p, t), disc.backward(
            np.ascontiguousarray(dz, dtype=np.float32), **skip)

    fake = gen.forward(conds, record=True)
    loss_real, (_, grads_real) = disc_pass(gains, 1.0, input_grad=False)
    loss_fake, (_, grads_fake) = disc_pass(fake, 0.0, input_grad=False)
    nn.adam_step(disc.parameters(), [a + b for a, b in zip(grads_real, grads_fake)],
                 d_state)
    lam = np.float32(hyper.lambda_l1)
    adv_loss, (dx, _) = disc_pass(fake, 1.0, param_grads=False)
    dfake = dx[:, cge.CONDITION_CHANNELS:] + lam * nn.l1_grad(fake, gains, fake.size)
    _, g_grads = gen.backward(dfake, input_grad=False)
    nn.adam_step(gen.parameters(), g_grads, g_state)
    return (model, loss_real + loss_fake,
            adv_loss + float(lam) * nn.l1_loss(fake, gains))


def rel_err(a: float, b: float, floor: float = 1e-3) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_gradient(loss_fn, arr: np.ndarray, idx, eps: float = 1e-3) -> float:
    """Central finite difference of loss_fn w.r.t. one float32 array element.

    The denominator uses the actually stored perturbed values so float32
    quantization of the step does not bias the estimate.
    """
    orig = arr[idx]
    arr[idx] = orig + eps
    hi = float(arr[idx])
    lp = loss_fn()
    arr[idx] = orig - eps
    lo = float(arr[idx])
    lm = loss_fn()
    arr[idx] = orig
    return (lp - lm) / (hi - lo)


def fd_probe(loss_fn, arr: np.ndarray, idx, eps: float = 1e-3):
    """Central difference plus a kink detector.

    Returns (estimate, kinked). A coordinate is kinked when the two
    one-sided slopes disagree, i.e. an activation kink sits inside the
    probing interval; central differences are meaningless there.
    """
    orig = arr[idx]
    mid = float(orig)
    l0 = loss_fn()
    arr[idx] = orig + eps
    hi = float(arr[idx])
    lp = loss_fn()
    arr[idx] = orig - eps
    lo = float(arr[idx])
    lm = loss_fn()
    arr[idx] = orig
    slope_hi = (lp - l0) / (hi - mid)
    slope_lo = (l0 - lm) / (mid - lo)
    # measured: float32 noise plus sigmoid curvature stay below ~0.015 here,
    # while a crossed kink jumps the slope by ~0.1 or more
    kinked = abs(slope_hi - slope_lo) > max(
        0.01 * max(abs(slope_hi), abs(slope_lo)), 0.02)
    return (lp - lm) / (hi - lo), kinked


def check_grad(loss_fn, grad: np.ndarray, arr: np.ndarray, rng: np.random.Generator,
               n_coords: int = 4, eps: float = 1e-3, tol: float = 1e-2) -> float:
    """Compare analytic grad against finite differences on random coordinates.

    Coordinates whose gradient is near zero are skipped: float32 forward
    noise makes their relative FD error meaningless.
    """
    worst = 0.0
    flat_grad = grad.ravel()
    flat_arr = arr.reshape(-1)
    mags = np.abs(flat_grad)
    eligible = np.flatnonzero(mags >= 0.25 * float(mags.mean()))
    if eligible.size == 0:
        eligible = np.arange(flat_arr.size)
    order = rng.permutation(eligible)
    checked = 0
    for c in order:
        fd, kinked = fd_probe(loss_fn, flat_arr, int(c), eps=eps)
        if kinked:
            continue
        worst = max(worst, rel_err(float(flat_grad[c]), fd))
        checked += 1
        if checked >= n_coords:
            break
    assert checked > 0, "no kink-free coordinate found to verify"
    assert worst < tol, f"gradient mismatch: worst relative error {worst:.4g}"
    return worst


def reference_equalize(y: np.ndarray, h_est: np.ndarray, noise_var: float,
                       mode: str) -> np.ndarray:
    """codec.equalize on one grid, as one expression (reference oracle)."""
    h = h_est.astype(np.complex128)
    reg = 1e-9 if mode == "zf" else max(noise_var, 1e-9)
    out = y.astype(np.complex128) * np.conj(h) / (np.abs(h) ** 2 + reg)
    return out.astype(np.complex64)


def reference_demodulate(symbols: np.ndarray, repetition: int) -> codec.TokenStream:
    """codec.demodulate on one stream, searching for its terminator after
    decoding (reference oracle)."""
    symbols = np.asarray(symbols).ravel()
    per_token = codec.SYMBOLS_PER_TOKEN * repetition
    symbols = symbols[:(symbols.size // per_token) * per_token]
    if repetition > 1:
        symbols = symbols.reshape(-1, repetition).mean(axis=1)
    bits = np.empty((symbols.size, 2), dtype=np.int64)
    bits[:, 0], bits[:, 1] = ~(symbols.real >= 0.0), ~(symbols.imag >= 0.0)
    values = bits.reshape(-1, codec.BITS_PER_TOKEN) @ (
        1 << np.arange(codec.BITS_PER_TOKEN - 1, -1, -1, dtype=np.int64))
    term = np.flatnonzero(values == codec.TERMINATOR)
    missing = term.size == 0
    values = np.append(values, codec.TERMINATOR) if missing else values[:term[0] + 1]
    tokens = np.where(values == codec.TERMINATOR, codec.TERMINATOR, values & 0xFF)
    return codec.TokenStream(tokens.astype(np.uint16), missing_terminator=missing)


def reference_receive(rec, cfg, frames, channel, pattern, cge_gains) -> str:
    """Estimate, equalize and demodulate one record's frames, one grid at a
    time; sets frame_ser, nmse, ser and flags and returns the text (reference
    oracle for the stacked pass)."""
    gains, ys = channel
    if rec.estimator == "perfect":
        h_ests = gains
    elif rec.estimator == "ls":
        h_ests = [ls_estimate(y, pattern) for y in ys]
    elif rec.estimator == "cge":
        h_ests = cge_gains()
    else:
        h_ests = [np.ones_like(h) for h in gains]
    noise_var = noise_variance(rec.snr_db)
    received, nmses, frame_ser = [], [], []
    for frame, h, y, h_est in zip(frames, gains, ys, h_ests):
        nmses.append(nmse(h_est, h))
        got = frame.extract(reference_equalize(y, h_est, noise_var, cfg.equalizer))
        received.append(got)
        frame_ser.append(float(codec.ser(frame.extract(frame.grid), got)))
    rec.frame_ser, rec.nmse = frame_ser, float(np.mean(nmses))
    rec.ser = (sum(s * frame.occupancy for s, frame in zip(frame_ser, frames))
               / sum(frame.occupancy for frame in frames))
    stream_rx = reference_demodulate(np.concatenate(received), cfg.repetition)
    if stream_rx.missing_terminator:
        rec.flags.append("missing-terminator")
    return codec.detokenize(stream_rx)


def _reference_attempt(record, stage: str, fn, fallback):
    try:
        return fn()
    except (LamMscError, ValueError) as exc:
        if record.error_stage is None:
            record.error_stage, record.error_message = stage, str(exc)
        return fallback


def reference_run_message(payload, cfg, stages, pattern, model, draws, arms) -> list:
    """A message's records, each (draw, arm) record received on its own by
    reference_receive, with one CGE batch per draw; timings are not kept
    (reference oracle for pipeline._run_message)."""
    caption, to_payload, extract, recover, embed = stages
    attempt = _reference_attempt
    base = pipeline.TransmissionRecord(input_payload=payload)
    base.caption = attempt(base, "modal-transform", lambda: (
        payload if isinstance(payload, str) else caption(payload)), "")
    base.semantics = attempt(base, "personalize-extract",
                             lambda: extract(base.caption), "")
    if not base.semantics:
        base.flags.append("empty-semantics")
    base.reference_text = attempt(base, "reference", lambda: recover(base.semantics),
                                  base.semantics)
    frames = attempt(base, "transmit", lambda: codec.map_to_grid(codec.modulate(
        codec.tokenize(base.semantics), cfg.repetition), pattern), None)
    modality = payload.modality if isinstance(payload, ScenePayload) else "image"
    records = []
    for snr_db, seed in draws:
        draw = dataclasses.replace(base, snr_db=snr_db, seed=seed,
                                   flags=list(base.flags))
        channel = frames and attempt(draw, "transmit", lambda: pipeline._draw_channel(
            cfg, frames, snr_db, seed), None)
        for estimator in arms:
            rec = dataclasses.replace(draw, estimator=estimator, flags=list(draw.flags))
            if channel:
                rec.received_text = attempt(rec, "transmit", lambda: reference_receive(
                    rec, cfg, frames, channel, pattern, lambda: cge.estimate(
                        model, np.stack([cge.make_condition(y, pattern)
                                         for y in channel[1]]))), "")
            rec.recovered_text = attempt(rec, "personalize-recover", lambda: recover(
                rec.received_text), rec.received_text)
            rec.recovered_payload = attempt(rec, "modal-recovery", lambda: to_payload(
                rec.recovered_text, modality), None)
            score = attempt(rec, "scoring", lambda: semeval.cosine(
                embed(base.reference_text), embed(rec.recovered_text)), None)
            rec.cosine = 0.0 if score is None else score
            rec.correct = (score is not None and score > cfg.threshold
                           and bool(rec.frame_ser) and rec.error_stage not in (
                               "modal-transform", "personalize-extract", "transmit"))
            records.append(rec)
    return records
