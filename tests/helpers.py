"""Shared numeric test utilities."""

import numpy as np


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a of a byte string, one byte at a time (reference oracle)."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


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
