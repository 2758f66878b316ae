import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from lammsc import channel, codec
from lammsc.errors import ShapeError

SQ2 = math.sqrt(2.0)


def pattern32():
    return channel.make_pilot_pattern(32, 32, 4, 4, seed=1)


def loopback(text: str, repetition: int = 1, pattern=None) -> str:
    """Full chain under an identity channel with noise disabled."""
    pattern = pattern or pattern32()
    ones = np.ones((pattern.rows, pattern.cols), np.complex64)
    ts = codec.tokenize(text)
    frames = codec.map_to_grid(codec.modulate(ts, repetition), pattern)
    received = []
    for frame in frames:
        y = channel.apply_channel(frame.grid, ones, channel.NO_NOISE)
        eq = codec.equalize(y, ones, 0.0, "zf")
        received.append(frame.extract(eq))
    return codec.detokenize(codec.demodulate(np.concatenate(received), repetition)[0])


class TestTokenize:
    def test_empty_string(self):
        ts = codec.tokenize("")
        assert ts.tokens.tolist() == [codec.TERMINATOR]
        assert ts.payload().size == 0

    def test_ascii_bytes(self):
        assert codec.tokenize("ab").tokens.tolist() == [97, 98, codec.TERMINATOR]

    def test_multibyte_utf8(self):
        ts = codec.tokenize("é")
        assert ts.payload().size == 2
        assert codec.detokenize(ts) == "é"

    @given(st.text(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_identity(self, text):
        assert codec.detokenize(codec.tokenize(text)) == text

    def test_stream_requires_single_trailing_terminator(self):
        with pytest.raises(ValueError, match="terminator"):
            codec.TokenStream(np.array([65, 66], np.uint16))
        with pytest.raises(ValueError, match="terminator"):
            codec.TokenStream(np.array([256, 65, 256], np.uint16))


class TestModulate:
    def test_token_zero_all_plus(self):
        ts = codec.TokenStream(np.array([codec.TERMINATOR], np.uint16))
        ts.tokens = np.array([0, codec.TERMINATOR], np.uint16)
        syms = codec.modulate(codec.tokenize("\x00"))[:5]
        assert np.allclose(syms, (1 + 1j) / SQ2, atol=1e-6)

    def test_max_nine_bit_token(self):
        # 0x1FF -> bits 0111111111 -> (0,1) then (1,1) four times
        bits = ((np.uint16(0x1FF) >> np.arange(9, -1, -1, dtype=np.uint16)) & 1)
        assert bits.tolist() == [0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        ts = codec.TokenStream(np.array([0x1FF, codec.TERMINATOR], np.uint16))
        syms = codec.modulate(ts)[:5]
        assert np.allclose(syms[0], (1 - 1j) / SQ2, atol=1e-6)
        assert np.allclose(syms[1:], (-1 - 1j) / SQ2, atol=1e-6)

    def test_unit_modulus(self):
        syms = codec.modulate(codec.tokenize("hello world"), repetition=2)
        assert np.allclose(np.abs(syms), 1.0, atol=1e-6)

    def test_symbol_count(self):
        syms = codec.modulate(codec.tokenize("abc"), repetition=3)
        assert syms.size == 4 * codec.SYMBOLS_PER_TOKEN * 3


class TestMapToGrid:
    def test_data_cell_count(self):
        assert pattern32().data_indices().size == 1024 - 64

    def test_exact_fill_single_frame(self):
        frames = codec.map_to_grid(np.ones(960, np.complex64), pattern32())
        assert len(frames) == 1
        assert frames[0].occupancy == 960

    def test_spill_into_second_frame(self):
        frames = codec.map_to_grid(np.ones(961, np.complex64), pattern32())
        assert len(frames) == 2
        assert frames[1].occupancy == 1
        assert frames[1].data_cells.size - frames[1].occupancy == 959

    def test_pilots_inserted_and_padding_zero(self):
        pat = pattern32()
        frames = codec.map_to_grid(np.full(10, (1 + 1j) / SQ2, np.complex64), pat)
        grid = frames[0].grid
        assert np.allclose(np.abs(grid[pat.mask()]), 1.0, atol=1e-6)
        flat = grid.ravel()
        assert np.all(flat[frames[0].data_cells[10:]] == 0)

    def test_all_pilot_lattice_rejected(self):
        pattern = channel.make_pilot_pattern(16, 16, 1, 1)
        with pytest.raises(ShapeError, match="no data cell"):
            codec.map_to_grid(np.ones(4, np.complex64), pattern)


class TestEqualize:
    def test_perfect_csi_inverts_constant_gain(self):
        pat = pattern32()
        x = codec.map_to_grid(
            codec.modulate(codec.tokenize("equalizer check"), 1), pat)[0].grid
        h = np.full((32, 32), 0.8 - 0.6j, np.complex64)
        y = channel.apply_channel(x, h, channel.NO_NOISE)
        eq = codec.equalize(y, h, 0.0, "zf")
        err = np.abs(eq - x) / np.maximum(np.abs(x), 1e-12)
        assert float(np.max(err[np.abs(x) > 0])) < 1e-6

    def test_perfect_csi_inverts_fading_away_from_nulls(self):
        # the 1e-9 regularizer only bites where |H| is nearly zero
        pat = pattern32()
        h = channel.gen_channel(3, 32, 32, 4, 4)
        x = codec.map_to_grid(
            codec.modulate(codec.tokenize("equalizer check"), 1), pat)[0].grid
        y = channel.apply_channel(x, h, channel.NO_NOISE)
        eq = codec.equalize(y, h.gains, 0.0, "zf")
        keep = (np.abs(x) > 0) & (np.abs(h.gains) > 0.05)
        err = np.abs(eq - x) / np.maximum(np.abs(x), 1e-12)
        assert float(np.max(err[keep])) < 1e-6

    def test_mmse_zero_noise_equals_zf(self):
        rng = np.random.default_rng(4)
        y = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))).astype(np.complex64)
        h = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))).astype(np.complex64)
        assert np.array_equal(codec.equalize(y, h, 0.0, "mmse"),
                              codec.equalize(y, h, 0.0, "zf"))

    def test_half_gain_doubles(self):
        y = np.full((4, 4), 0.5 + 0.25j, np.complex64)
        out = codec.equalize(y, np.full((4, 4), 0.5, np.complex64), 0.0, "zf")
        assert np.allclose(out, 2.0 * y, rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            codec.equalize(np.zeros((4, 4), np.complex64),
                           np.zeros((8, 8), np.complex64))


class TestDemodulate:
    @given(st.text(max_size=120), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_repetition(self, text, repetition):
        ts = codec.tokenize(text)
        back, = codec.demodulate(codec.modulate(ts, repetition), repetition)
        assert back.tokens.tolist() == ts.tokens.tolist()
        assert not back.missing_terminator

    @given(hnp.arrays(st.sampled_from([np.complex64, np.complex128]),
                      hnp.array_shapes(min_dims=0, max_dims=3, max_side=24),
                      elements=st.complex_numbers(width=64)),
           st.integers(min_value=-2, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_symbols_decode_or_reject_repetition(self, symbols,
                                                           repetition):
        """Any complex array, NaN and inf included, decodes to well-formed
        streams, one per trailing row of a stack, each as that row alone
        decodes; only a repetition below 1 raises, as a ValueError."""
        if repetition < 1:
            with pytest.raises(ValueError, match="repetition"):
                codec.demodulate(symbols, repetition)
            return
        with np.errstate(invalid="ignore"):  # inf - inf in a repetition mean
            back = codec.demodulate(symbols, repetition)
            if symbols.ndim > 1:
                rows = symbols.reshape(math.prod(symbols.shape[:-1]), symbols.shape[-1])
                alone = [codec.demodulate(row, repetition)[0] for row in rows]
                assert [(s.tokens.tolist(), s.missing_terminator) for s in back] == [
                    (s.tokens.tolist(), s.missing_terminator) for s in alone]
            else:
                rows = [symbols.ravel()]
        per_token = codec.SYMBOLS_PER_TOKEN * repetition
        for row, stream in zip(rows, back, strict=True):
            assert stream.tokens[-1] == codec.TERMINATOR
            assert np.count_nonzero(stream.tokens == codec.TERMINATOR) == 1
            assert stream.tokens.size <= row.size // per_token + 1
            assert isinstance(codec.detokenize(stream), str)

    @given(hnp.arrays(st.sampled_from([np.complex64, np.complex128]),
                      st.integers(min_value=0, max_value=40),
                      elements=st.complex_numbers(width=64)))
    @settings(max_examples=200, deadline=None)
    def test_decodes_the_hard_decisions(self, symbols):
        """demodulate reads each quadrant as hard_decide does, NaN and inf
        included: a part is negative unless it is >= 0."""
        got, = codec.demodulate(symbols)
        want, = codec.demodulate(codec.hard_decide(symbols))
        assert got.tokens.tolist() == want.tokens.tolist()
        assert got.missing_terminator == want.missing_terminator

    @given(st.text(max_size=60), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_streams_pass_the_public_check(self, text, repetition, seed):
        """demodulate builds its streams without TokenStream's check; each
        passes it and equals the checked stream field by field. The stack's
        rows are the clean symbols, sign flips, NaNs, a zeroed end and noise."""
        rng = np.random.default_rng(seed)
        clean = codec.modulate(codec.tokenize(text), repetition)
        rows = np.tile(clean, (5, 1))
        flips = rng.random(clean.size) < 0.1
        rows[1, flips] = -rows[1, flips]
        rows[2, rng.random(clean.size) < 0.1] = np.nan
        rows[3, -rng.integers(1, 5 * repetition + 1):] = 0
        rows[4] = rng.standard_normal(clean.size) + 1j * rng.standard_normal(clean.size)
        with np.errstate(invalid="ignore"):
            streams = codec.demodulate(rows.reshape(5, 1, -1), repetition)
        for got in streams:
            checked = codec.TokenStream(got.tokens,
                                        missing_terminator=got.missing_terminator)
            for f in dataclasses.fields(codec.TokenStream):
                a, b = getattr(got, f.name), getattr(checked, f.name)
                assert type(a) is type(b)
                assert np.asarray(a).dtype == np.asarray(b).dtype
                assert np.array_equal(a, b)

    def test_single_flip_outvoted_with_repetition_three(self):
        ts = codec.tokenize("Q")
        syms = codec.modulate(ts, repetition=3).copy()
        syms[3] = -syms[3]  # middle copy of the second symbol
        back, = codec.demodulate(syms, 3)
        assert codec.detokenize(back) == "Q"

    def test_heavy_noise_produces_token_errors(self):
        rng = np.random.default_rng(5)
        ts = codec.tokenize("x" * 1000)
        syms = codec.modulate(ts)
        noisy = syms + (rng.standard_normal(syms.shape)
                        + 1j * rng.standard_normal(syms.shape)) * math.sqrt(10.0 / 2)
        back, = codec.demodulate(noisy.astype(np.complex64))
        sent = ts.payload()
        got = back.payload()
        n = min(sent.size, got.size)
        assert np.count_nonzero(sent[:n] != got[:n]) > 0

    def test_partial_token_dropped_with_flag(self):
        syms = codec.modulate(codec.tokenize("ab"))
        back, = codec.demodulate(syms[:-2])  # clip into the terminator token
        assert back.missing_terminator
        assert codec.detokenize(back) == "ab"

    def test_missing_terminator_flagged(self):
        ts = codec.tokenize("ab")
        syms = codec.modulate(ts)[:10]  # both data tokens, no terminator
        back, = codec.demodulate(syms)
        assert back.missing_terminator
        assert codec.detokenize(back) == "ab"


class TestSer:
    def test_identical_zero(self):
        syms = codec.modulate(codec.tokenize("abc"))
        assert codec.ser(syms, syms) == 0.0

    def test_all_flipped_one(self):
        syms = codec.modulate(codec.tokenize("abc"))
        assert codec.ser(syms, -syms) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            codec.ser(np.ones(4, np.complex64), np.ones(5, np.complex64))

    def test_counts_hard_decide_disagreements(self):
        # every pair of parts from zeros of both signs, NaN, infinities and
        # tiny and unit values, against the hard decisions on both sides
        parts = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-40, -1e-40,
                          1.0, -1.0], np.float32)
        re, im = np.meshgrid(parts, parts)
        points = np.empty(re.size, np.complex128)
        points.real, points.imag = re.ravel(), im.ravel()
        sent = np.repeat(points, points.size)
        decided = np.tile(points, points.size)
        for dtype in (np.complex64, np.complex128):
            s, d = sent.astype(dtype), decided.astype(dtype)
            expected = np.count_nonzero(codec.hard_decide(s) != codec.hard_decide(d))
            assert codec.ser(s, d) == expected / sent.size

    def test_awgn_ten_db_matches_closed_form(self):
        # per-rail error Q(sqrt(snr)) at snr 10 dB, SER = 1-(1-p)^2
        rng = np.random.default_rng(6)
        n = 10 ** 6
        points = codec.hard_decide((rng.standard_normal(n)
                                    + 1j * rng.standard_normal(n)).astype(np.complex64))
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(0.1 / 2)
        received = points + noise.astype(np.complex64)
        p_rail = float(stats.norm.sf(math.sqrt(10.0)))
        decided = codec.hard_decide(received)
        measured_rail = (np.count_nonzero(decided.real != points.real)
                         + np.count_nonzero(decided.imag != points.imag)) / (2 * n)
        assert 0.5 < measured_rail / p_rail < 2.0
        ser_closed = 1.0 - (1.0 - p_rail) ** 2
        measured_ser = codec.ser(points, received)
        assert 0.5 < measured_ser / ser_closed < 2.0

    def test_ser_monotone_in_snr_with_perfect_csi(self):
        pat = pattern32()
        text = "monotone snr check " * 8
        ts = codec.tokenize(text)
        frames = codec.map_to_grid(codec.modulate(ts), pat)
        rates = []
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
            errs = []
            for rep in range(30):
                h = channel.gen_channel(100 + rep, 32, 32, 4, 4)
                for fi, frame in enumerate(frames):
                    y = channel.apply_channel(frame.grid, h, snr,
                                              noise_seed=900 + rep * 7 + fi)
                    eq = codec.equalize(y, h.gains, 10 ** (-snr / 10), "mmse")
                    errs.append(codec.ser(frame.extract(frame.grid),
                                          frame.extract(eq)))
            rates.append(float(np.mean(errs)))
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestEndToEnd:
    def test_identity_on_sample_strings(self):
        samples = ["", "a", "hello, world", "π ≈ 3.14159 🌍", "line\nbreaks\tand tabs",
                   "x" * 2000]
        for text in samples:
            assert loopback(text) == text

    def test_identity_with_repetition(self):
        assert loopback("repeated coding", repetition=3) == "repeated coding"

    @given(st.text(max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_identity_random_text(self, text):
        assert loopback(text) == text
