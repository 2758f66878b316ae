"""Deterministic transmission chain: byte tokens -> QPSK frames and back.

Text is serialized as byte tokens 0..255 plus a terminator token 256. Each
token is sent as 10 bits (the 9-bit token value, MSB first, left-padded to
an even bit count), i.e. 5 Gray-mapped QPSK symbols per token. Symbols fill
the non-pilot cells of a grid row-major, spilling into further frames as
needed; unused data cells stay at zero power and are excluded from symbol
statistics. The chain is the pluggable stand-in for a learned codec: any
replacement must map text to unit-power data symbols and back.

Every QPSK decision (``demodulate``, ``hard_decide``, ``ser``) uses one
quadrant rule: a real or imaginary part is negative unless it is ``>= 0``,
so zero counts as positive and NaN as negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PilotPattern, insert_pilots
from .errors import ShapeError

TERMINATOR = 256
BITS_PER_TOKEN = 10
SYMBOLS_PER_TOKEN = BITS_PER_TOKEN // 2

_SQRT2 = math.sqrt(2.0)
_BIT_SHIFTS = np.arange(BITS_PER_TOKEN - 1, -1, -1, dtype=np.uint16)
_BIT_WEIGHTS = (1 << _BIT_SHIFTS.astype(np.int64))


@dataclass
class TokenStream:
    """Byte tokens plus exactly one trailing terminator."""

    tokens: np.ndarray  # uint16, values 0..256
    missing_terminator: bool = False

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.uint16)
        terms = np.flatnonzero(self.tokens == TERMINATOR)
        if terms.size != 1 or terms[0] != self.tokens.size - 1:
            raise ValueError("token stream must contain exactly one terminator, "
                             "at the end")

    @classmethod
    def _trusted(cls, tokens: np.ndarray, missing_terminator: bool) -> TokenStream:
        """A stream of uint16 tokens that already end in their one terminator,
        built without ``__post_init__``'s check."""
        ts = object.__new__(cls)
        ts.tokens, ts.missing_terminator = tokens, missing_terminator
        return ts

    def payload(self) -> np.ndarray:
        return self.tokens[:-1]


def tokenize(text: str) -> TokenStream:
    """Serialize UTF-8 text to byte tokens; invertible via detokenize."""
    data = text.encode("utf-8")
    tokens = np.empty(len(data) + 1, dtype=np.uint16)
    tokens[:len(data)] = np.frombuffer(data, dtype=np.uint8)
    tokens[-1] = TERMINATOR
    return TokenStream(tokens)


def detokenize(ts: TokenStream) -> str:
    """Decode the byte payload; corrupted sequences yield replacement chars."""
    return bytes(ts.payload().astype(np.uint8)).decode("utf-8", errors="replace")


def modulate(ts: TokenStream, repetition: int = 1) -> np.ndarray:
    """Map tokens to unit-modulus QPSK symbols, each repeated ``repetition`` times."""
    if repetition < 1:
        raise ValueError(f"repetition must be >= 1, got {repetition}")
    bits = ((ts.tokens[:, None] >> _BIT_SHIFTS) & 1).reshape(-1, 2).astype(np.float32)
    symbols = ((1.0 - 2.0 * bits[:, 0]) + 1j * (1.0 - 2.0 * bits[:, 1])) / _SQRT2
    symbols = np.repeat(symbols, repetition)
    return symbols.astype(np.complex64)


def _negative(symbols: np.ndarray):
    """The quadrant rule: (real, imag) masks of the parts that decide negative."""
    symbols = np.asarray(symbols)
    return ~(symbols.real >= 0.0), ~(symbols.imag >= 0.0)


def demodulate(symbols: np.ndarray, repetition: int = 1) -> list[TokenStream]:
    """Average repetition groups, hard-decide bit pairs, reassemble tokens.

    Decodes each trailing row of a (..., n) stack on its own (a 0-d or 1-D
    input is one row) and returns a list of TokenStreams, one per row, in
    row-major order of the leading axes.
    Each stream is truncated at its first decoded terminator. Decoded 10-bit
    values outside the token alphabet keep their low byte, so noise never
    silently changes the stream length. A trailing partial token is dropped;
    a missing terminator is appended (flagged). Any complex
    input decodes, NaN and inf included; only ``repetition < 1`` raises
    (ValueError).
    """
    if repetition < 1:
        raise ValueError(f"repetition must be >= 1, got {repetition}")
    symbols = np.atleast_1d(symbols)
    n_rows, n = math.prod(symbols.shape[:-1]), symbols.shape[-1]
    n_tokens = n // SYMBOLS_PER_TOKEN // repetition
    usable = n_tokens * SYMBOLS_PER_TOKEN * repetition
    rows = symbols.reshape(n_rows, n)[:, :usable]
    if repetition > 1:
        rows = rows.reshape(n_rows, usable // repetition, repetition).mean(axis=-1)
    bits = np.empty(rows.shape + (2,), dtype=np.int64)
    bits[..., 0], bits[..., 1] = _negative(rows)
    # a terminator after the last token, kept only where none was decoded
    values = np.full((n_rows, n_tokens + 1), TERMINATOR)
    values[:, :-1] = bits.reshape(n_rows, n_tokens, BITS_PER_TOKEN) @ _BIT_WEIGHTS
    ends = np.argmax(values == TERMINATOR, axis=1)
    tokens = np.where(values == TERMINATOR, TERMINATOR, values & 0xFF).astype(np.uint16)
    return [TokenStream._trusted(row[:end + 1], bool(end == n_tokens))
            for row, end in zip(tokens, ends)]


@dataclass
class Frame:
    """One grid of symbols: pilots at the lattice, data row-major elsewhere."""

    grid: np.ndarray  # complex64 (rows, cols)
    data_cells: np.ndarray  # flat row-major indices of non-pilot cells
    occupancy: int  # leading data cells that carry symbols; the rest is padding

    def extract(self, received: np.ndarray) -> np.ndarray:
        """Pull this frame's occupied data symbols out of a same-shaped grid,
        or out of each grid of a (..., rows, cols) stack."""
        if received.shape[-2:] != self.grid.shape:
            raise ShapeError(f"frame is {self.grid.shape}, received grid is "
                             f"{received.shape}")
        flat = received.reshape(*received.shape[:-2], -1)
        return flat[..., self.data_cells[:self.occupancy]]


def map_to_grid(symbols: np.ndarray, pattern: PilotPattern) -> list[Frame]:
    """Pack symbols into as many frames as needed; pad the last with zeros."""
    symbols = np.asarray(symbols, dtype=np.complex64).ravel()
    data_cells = pattern.data_indices()
    per_frame = data_cells.size
    if per_frame == 0:
        raise ShapeError("the pilot pattern leaves no data cell")
    n_frames = max(1, -(-symbols.size // per_frame))
    frames = []
    for i in range(n_frames):
        chunk = symbols[i * per_frame:(i + 1) * per_frame]
        flat = np.zeros(pattern.rows * pattern.cols, dtype=np.complex64)
        flat[data_cells[:chunk.size]] = chunk
        grid = insert_pilots(flat.reshape(pattern.rows, pattern.cols), pattern)
        frames.append(Frame(grid, data_cells, occupancy=int(chunk.size)))
    return frames


def equalize(y: np.ndarray, h_est: np.ndarray, noise_var: float | np.ndarray = 0.0,
             mode: str = "zf") -> np.ndarray:
    """Divide out estimated gains: zero-forcing or MMSE weighting.

    ``h_est`` may be a (..., rows, cols) stack; ``y`` and ``noise_var`` (a
    float or an array) broadcast against it, so one received grid and noise
    power per draw serve every estimate of that draw without a copy.
    """
    y = np.asarray(y)
    h_est = np.asarray(h_est)
    if y.ndim > h_est.ndim or any(
            a not in (1, b) for a, b in zip(y.shape[::-1], h_est.shape[::-1])):
        raise ShapeError(f"equalize: received {y.shape} vs estimate {h_est.shape}")
    if (np.asarray(noise_var) < 0).any():
        raise ValueError("noise_var must be non-negative")
    if mode not in ("zf", "mmse"):
        raise ValueError(f"unknown equalizer mode {mode!r}")
    h = h_est.astype(np.complex128)
    power = np.abs(h) ** 2 + (1e-9 if mode == "zf" else np.maximum(noise_var, 1e-9))
    # in place, to keep a stack's peak memory low; y stays the left factor,
    # because numpy's SIMD complex product can round differently when its
    # operands swap
    out = np.multiply(y.astype(np.complex128), np.conj(h, out=h), out=h)
    return np.divide(out, power, out=out).astype(np.complex64)


def hard_decide(symbols: np.ndarray) -> np.ndarray:
    """Nearest QPSK constellation point by quadrant."""
    neg_re, neg_im = _negative(symbols)
    re = np.where(neg_re, -1.0, 1.0)
    im = np.where(neg_im, -1.0, 1.0)
    return ((re + 1j * im) / _SQRT2).astype(np.complex64)


def ser(sent: np.ndarray, decided: np.ndarray) -> np.ndarray:
    """Fraction of QPSK decisions that differ from the sent constellation points.

    A symbol is in error when the sign of its real or imaginary part differs,
    with ``hard_decide``'s quadrants (zero counts as positive, NaN as negative).
    ``decided`` is one row or a (..., n) stack of rows, each scored against the
    same ``sent``; the rates come as an array over the leading axes.
    """
    sent, decided = np.asarray(sent).ravel(), np.atleast_1d(decided)
    if sent.size != decided.shape[-1]:
        raise ShapeError(f"ser: {len(sent)} sent vs {decided.shape[-1]} decided symbols")
    (sent_re, sent_im), (got_re, got_im) = _negative(sent), _negative(decided)
    errors = (sent_re != got_re) | (sent_im != got_im)
    return errors.sum(axis=-1) / max(sent.size, 1)
