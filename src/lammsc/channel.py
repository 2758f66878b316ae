"""Correlated Rayleigh fading grids, pilots, and the least-squares baseline.

A "grid" is a 2-D complex64 array (subcarrier rows x time-symbol columns).
Fading is flat per cell: the received grid is y = H * x + n. Spatial
correlation comes from circularly smoothing an i.i.d. CN(0,1) draw with a
separable Gaussian kernel (taps truncated at 3 sigma) and re-normalizing to
unit mean power. The smoothing along each axis is one product with a
circulant matrix, h = Cf @ h @ Ct.T in complex128, cached per (extent,
sigma); its rows hold the taps wrapped around the extent, summed where the
kernel is wider than the grid.

The least-squares (LS) baseline divides each received pilot by its known
symbol, then interpolates linearly along each axis, again as one matrix
product per axis: est = Wr @ at_pilots @ Wc.T in complex128, where each W
holds the (extent, pilots) linear-interpolation weights with edge values held.

Dataset file format (magic ``LMCH``, version 1), in the ``fileio`` frame:
  4 bytes magic, 1 byte version, little-endian uint32 header length,
  UTF-8 JSON header {rows, cols, sigma_f, sigma_t, count, seeds},
  then ``count`` grids as little-endian interleaved float32 re/im pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError
from .fileio import read_framed, write_framed

NO_NOISE = math.inf  # snr_db sentinel that disables additive noise
# Lowest SNR whose per-cell noise power 10^(-snr_db/10) is a finite float32
# (about -385.3 dB). The complex64 received grid holds the noise amplitude
# sqrt(power/2)*n, at most 1.3e19*|n| here: finite for any Gaussian draw n,
# by a margin that does not depend on the draw.
MIN_SNR_DB = -10.0 * math.log10(float(np.finfo(np.float32).max))
# Largest smoothing std, in cells. The kernel has 2*ceil(3 sigma)+1 taps, so
# its size grows with sigma while the grid's does not; at 1e4 (60001 taps) it
# is already wider than any grid whose extent x extent complex128 circulant
# (1.6 GB at extent 1e4) fits a desk machine.
MAX_SIGMA = 1e4

_LMCH_MAGIC = b"LMCH"
_LMCH_VERSION = 1

_QPSK = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)).astype(np.complex64)


@dataclass
class ChannelRealization:
    """True channel gains plus the parameters that generated them."""

    gains: np.ndarray  # complex64 (rows, cols)
    sigma_f: float
    sigma_t: float
    seed: int

    @property
    def rows(self) -> int:
        return self.gains.shape[0]

    @property
    def cols(self) -> int:
        return self.gains.shape[1]


@dataclass(frozen=True)
class PilotPattern:
    """Regular comb lattice of known unit-power QPSK pilots."""

    rows: int
    cols: int
    pilot_rows: np.ndarray
    pilot_cols: np.ndarray
    symbols: np.ndarray  # complex64 (len(pilot_rows), len(pilot_cols))

    def mask(self) -> np.ndarray:
        m = np.zeros((self.rows, self.cols), dtype=bool)
        m[np.ix_(self.pilot_rows, self.pilot_cols)] = True
        return m

    def data_indices(self) -> np.ndarray:
        """Flat row-major indices of the non-pilot (data) cells."""
        return np.flatnonzero(~self.mask().ravel())


def make_pilot_pattern(rows: int, cols: int, d_f: int = 4, d_t: int = 4,
                       seed: int = 97) -> PilotPattern:
    if d_f < 1 or d_t < 1:
        raise ValueError(f"pilot spacings must be >= 1, got ({d_f}, {d_t})")
    if d_f > rows or d_t > cols:
        raise ValueError(f"pilot spacings ({d_f}, {d_t}) exceed grid {rows}x{cols}")
    pilot_rows = np.arange(0, rows, d_f)
    pilot_cols = np.arange(0, cols, d_t)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 4, size=(pilot_rows.size, pilot_cols.size))
    return PilotPattern(rows, cols, pilot_rows, pilot_cols, _QPSK[idx])


def _gauss_taps(sigma: float) -> np.ndarray:
    """Normalized Gaussian kernel truncated at 3 sigma."""
    radius = int(math.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # t/sigma -> inf at tiny sigma: a zero tap
        taps = np.exp(-0.5 * (t / sigma) ** 2)
    return taps / taps.sum()


@functools.lru_cache(maxsize=64)
def _smoothing_matrix(extent: int, sigma: float) -> np.ndarray:
    """Circulant C with C @ x == sum over taps of w * np.roll(x, off, axis=0).

    C[i, j] is the sum, in tap order from 0.0, of the taps whose offset is
    i - j modulo the extent, so where the kernel is wider than the extent the
    wrapped taps sum as the rolls would. Read-only, because every caller
    shares the cached array.
    """
    taps = _gauss_taps(sigma)
    offsets = np.arange(taps.size) - taps.size // 2
    wrapped = np.bincount(offsets % extent, weights=taps, minlength=extent)
    idx = np.arange(extent)
    mat = wrapped[(idx[:, None] - idx[None, :]) % extent].astype(np.complex128)
    mat.flags.writeable = False
    return mat


def gen_channel(seed: int, rows: int, cols: int, sigma_f: float = 0.0,
                sigma_t: float = 0.0) -> ChannelRealization:
    """Draw a correlated Rayleigh gain grid, normalized to unit mean power."""
    if rows < 4 or cols < 4:
        raise ValueError(f"channel grid must be at least 4x4, got {rows}x{cols}")
    if sigma_f < 0 or sigma_t < 0:
        raise ValueError("smoothing stds must be non-negative")
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    h /= np.sqrt(2.0)
    h = h if sigma_f <= 0 else _smoothing_matrix(rows, sigma_f) @ h
    h = h if sigma_t <= 0 else h @ _smoothing_matrix(cols, sigma_t).T
    h *= np.sqrt(h.size / np.sum(np.abs(h) ** 2))
    return ChannelRealization(h.astype(np.complex64), float(sigma_f), float(sigma_t),
                              int(seed))


def noise_variance(snr_db: float) -> float:
    """Per-cell complex noise power at ``snr_db``: 10^(-snr_db/10), or 0 for
    NO_NOISE."""
    return 0.0 if snr_db == NO_NOISE else 10.0 ** (-snr_db / 10.0)


def apply_channel(x: np.ndarray, h, snr_db: float, noise_seed: int = 0) -> np.ndarray:
    """Per-cell fading plus complex Gaussian noise of power noise_variance(snr_db)."""
    gains = h.gains if isinstance(h, ChannelRealization) else np.asarray(h)
    x = np.asarray(x)
    if x.shape != gains.shape:
        raise ShapeError(f"apply_channel: frame {x.shape} vs gains {gains.shape}")
    y = x.astype(np.complex128) * gains.astype(np.complex128)
    if snr_db != NO_NOISE:
        nvar = noise_variance(snr_db)
        rng = np.random.default_rng(noise_seed)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y += np.sqrt(nvar / 2.0) * noise
    return y.astype(np.complex64)


def insert_pilots(x: np.ndarray, pattern: PilotPattern) -> np.ndarray:
    """Overwrite the pilot lattice with the known pilot symbols."""
    if x.shape[0] < pattern.rows or x.shape[1] < pattern.cols:
        raise ShapeError(f"grid {x.shape} does not cover pattern "
                         f"{pattern.rows}x{pattern.cols}")
    y = np.array(x, dtype=np.complex64, copy=True)
    y[np.ix_(pattern.pilot_rows, pattern.pilot_cols)] = pattern.symbols
    return y


def _interp_matrix(extent: int, knots: np.ndarray) -> np.ndarray:
    """(extent, knots) linear-interpolation weights, edge values held."""
    targets = np.arange(extent, dtype=np.float64)
    return np.array([np.interp(targets, knots, unit) for unit in np.eye(knots.size)]).T


def ls_estimate(y: np.ndarray, pattern: PilotPattern) -> np.ndarray:
    """Least-squares pilot estimates, bilinearly interpolated to the full grid.

    ``y`` is one grid or a (..., rows, cols) stack of them, each estimated on
    its own. Cells beyond the outermost pilot row/column take the nearest
    pilot value. Every weight, zero ones included, multiplies every pilot of
    its grid, so one non-finite pilot makes that grid's whole estimate
    non-finite (0 * inf is NaN); ``apply_channel`` gives none at any SNR
    >= MIN_SNR_DB.
    """
    if pattern.pilot_rows.size == 0 or pattern.pilot_cols.size == 0:
        raise ValueError("pilot pattern is empty")
    y = np.asarray(y)
    if y.ndim < 2 or y.shape[-2] < pattern.rows or y.shape[-1] < pattern.cols:
        raise ShapeError(f"grid {y.shape} does not cover pattern "
                         f"{pattern.rows}x{pattern.cols}")
    at_pilots = (y[..., pattern.pilot_rows[:, None], pattern.pilot_cols]
                 .astype(np.complex128) / pattern.symbols.astype(np.complex128))
    est = (_interp_matrix(pattern.rows, pattern.pilot_rows) @ at_pilots
           @ _interp_matrix(pattern.cols, pattern.pilot_cols).T)
    return est.astype(np.complex64)


def nmse(est: np.ndarray, truth: np.ndarray):
    """Normalized mean squared error sum|est-truth|^2 / sum|truth|^2 of each grid.

    ``est`` is one grid (a float) or a (..., rows, cols) stack (an array over
    the leading axes); ``truth`` broadcasts against it, so each of its grids'
    denominators is summed once however many estimates share it.
    """
    est = np.asarray(est)
    truth = np.asarray(truth).astype(np.complex128)
    if (est.ndim < 2 or truth.ndim > est.ndim or truth.shape[-2:] != est.shape[-2:]
            or any(a not in (1, b) for a, b in zip(truth.shape[::-1], est.shape[::-1]))):
        raise ShapeError(f"nmse: shapes {est.shape} and {truth.shape} differ")
    denom = np.sum(np.abs(truth) ** 2, axis=(-2, -1))
    if (denom == 0.0).any():
        raise ValueError("nmse undefined for all-zero truth")
    # est widens to complex128 inside the subtraction, one buffer at a time
    diff = np.abs(np.subtract(est, truth))
    ratio = np.sum(np.square(diff, out=diff), axis=(-2, -1)) / denom
    return float(ratio) if est.ndim == 2 else ratio


# ---------------------------------------------------------------------------
# dataset persistence

def save_channel_dataset(path, realizations: list[ChannelRealization]) -> None:
    if not realizations:
        raise ValueError("cannot save an empty channel dataset")
    first = realizations[0]
    for r in realizations:
        if (r.rows, r.cols, r.sigma_f, r.sigma_t) != (first.rows, first.cols,
                                                      first.sigma_f, first.sigma_t):
            raise ValueError("all realizations in a dataset must share parameters")
    header = {"rows": first.rows, "cols": first.cols, "sigma_f": first.sigma_f,
              "sigma_t": first.sigma_t, "count": len(realizations),
              "seeds": [r.seed for r in realizations]}
    write_framed(path, _LMCH_MAGIC, _LMCH_VERSION, header,
                 (np.ascontiguousarray(r.gains, dtype="<c8").tobytes()
                  for r in realizations))


def load_channel_dataset(path) -> list[ChannelRealization]:
    header, body = read_framed(path, _LMCH_MAGIC, _LMCH_VERSION, "channel dataset")
    try:
        rows, cols = int(header["rows"]), int(header["cols"])
        count = int(header["count"])
        seeds = [int(s) for s in header["seeds"]]
        sigma_f, sigma_t = float(header["sigma_f"]), float(header["sigma_t"])
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed channel dataset header ({exc})") from exc
    if len(seeds) != count:
        raise FormatError(f"{path}: header lists {len(seeds)} seeds for {count} grids")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: grid extents must be positive, got {rows}x{cols}")
    if len(body) != count * rows * cols * 8:
        raise FormatError(f"{path}: expected {count * rows * cols * 8} data bytes, "
                          f"found {len(body)}")
    grids = np.frombuffer(body, "<c8").reshape(count, rows, cols).astype(np.complex64)
    return [ChannelRealization(g, sigma_f, sigma_t, s) for g, s in zip(grids, seeds)]
