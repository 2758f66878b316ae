import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from lammsc import channel, fileio
from lammsc.errors import FormatError, LamMscError, ShapeError

from helpers import reference_gen_channel, reference_ls_estimate


LMCH_PINNED_SHA256 = ("7fd93339a939e1c347957f2b19473f4d"
                      "cad3f144178aafe485995d35ebdb8c20")


def ones_grid(rows=32, cols=32):
    return np.ones((rows, cols), np.complex64)


class TestGenChannel:
    def test_same_seed_bit_identical(self):
        a = channel.gen_channel(42, 32, 32, 4, 4)
        b = channel.gen_channel(42, 32, 32, 4, 4)
        assert np.array_equal(a.gains, b.gains)

    def test_different_seed_differs(self):
        a = channel.gen_channel(1, 32, 32)
        b = channel.gen_channel(2, 32, 32)
        assert not np.array_equal(a.gains, b.gains)

    def test_mean_power_normalized(self):
        for seed in (0, 7):
            h = channel.gen_channel(seed, 64, 64, 4, 4).gains
            power = float(np.mean(np.abs(h.astype(np.complex128)) ** 2))
            assert 0.9 < power < 1.1
            assert abs(power - 1.0) < 1e-3

    def test_rayleigh_envelope_mean(self):
        # i.i.d. CN(0,1) cells: E|H| = sqrt(pi)/2
        h = channel.gen_channel(3, 320, 320).gains
        assert h.size >= 10 ** 5
        mean_env = float(np.mean(np.abs(h)))
        expected = math.sqrt(math.pi) / 2.0
        assert abs(mean_env - expected) / expected < 0.02

    def test_rayleigh_envelope_ks(self):
        h = channel.gen_channel(4, 320, 320).gains
        ks = stats.kstest(np.abs(h).ravel(), "rayleigh",
                          args=(0.0, 1.0 / math.sqrt(2.0))).statistic
        assert ks < 0.02

    def test_smoothing_creates_neighbor_correlation(self):
        num = 0.0
        den = 0.0
        for seed in range(50):
            h = channel.gen_channel(seed, 32, 32, 4, 4).gains.astype(np.complex128)
            num += float(np.real(np.sum(h[:, :-1] * np.conj(h[:, 1:]))))
            den += float(np.sum(np.abs(h[:, :-1]) ** 2))
        assert num / den > 0.8

    def test_no_smoothing_uncorrelated(self):
        h = channel.gen_channel(5, 128, 128).gains.astype(np.complex128)
        corr = float(np.real(np.mean(h[:, :-1] * np.conj(h[:, 1:]))))
        assert abs(corr) < 0.05

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            channel.gen_channel(0, 3, 32)

    @pytest.mark.parametrize("sigma_f", [0.0, 0.5, 2.0, 4.0, 6.0])
    def test_bytes_match_roll_oracle(self, sigma_f):
        # extents 4 and 7 at sigma >= 2 give kernels wider than the grid,
        # whose wrapped taps must sum as the rolls do
        extents = (4, 7, 16, 32, 64)
        for rows in extents:
            for cols in extents:
                for sigma_t in (0.0, 0.5, 2.0, 4.0, 6.0):
                    for seed in range(3):
                        got = channel.gen_channel(seed, rows, cols, sigma_f, sigma_t)
                        want = reference_gen_channel(seed, rows, cols, sigma_f,
                                                     sigma_t)
                        assert got.gains.tobytes() == want.gains.tobytes(), (
                            rows, cols, sigma_f, sigma_t, seed)

    @pytest.mark.parametrize("sigma", [7e-155, 1e-200, 5e-324])
    def test_vanishing_sigma_smooths_nothing(self, sigma):
        # (1/sigma)^2 overflows float64 here; the off-centre taps are zero
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = channel.gen_channel(3, 8, 8, sigma, sigma)
        assert got.gains.tobytes() == channel.gen_channel(3, 8, 8).gains.tobytes()

    def test_widest_kernel_wraps_flat(self):
        # 60001 taps wrapped onto 32 cells sum to a nearly flat circulant
        mat = channel._smoothing_matrix(32, channel.MAX_SIGMA)
        assert mat.shape == (32, 32)
        assert np.allclose(mat, 1.0 / 32, rtol=1e-4)


class TestApplyChannel:
    def test_identity_without_noise(self):
        x = (np.arange(16).reshape(4, 4) + 1j).astype(np.complex64)
        y = channel.apply_channel(x, np.ones((4, 4), np.complex64), channel.NO_NOISE)
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("snr_db,expected", [(0.0, 1.0), (10.0, 0.1)])
    def test_noise_power(self, snr_db, expected):
        x = ones_grid(320, 320)
        y = channel.apply_channel(x, np.ones_like(x), snr_db, noise_seed=11)
        noise_power = float(np.mean(np.abs(y.astype(np.complex128) - x) ** 2))
        assert abs(noise_power - expected) / expected < 0.03

    def test_noise_seed_deterministic(self):
        x = ones_grid()
        h = channel.gen_channel(6, 32, 32)
        a = channel.apply_channel(x, h, 10.0, noise_seed=5)
        b = channel.apply_channel(x, h, 10.0, noise_seed=5)
        assert np.array_equal(a, b)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            channel.apply_channel(ones_grid(32, 32), np.ones((16, 16)), 10.0)


class TestPilots:
    def test_pilot_cells_unit_modulus(self):
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=1)
        assert np.allclose(np.abs(pat.symbols), 1.0, atol=1e-6)

    def test_insert_only_touches_pilot_cells(self):
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=2)
        frame = channel.insert_pilots(np.zeros((32, 32), np.complex64), pat)
        mask = pat.mask()
        assert np.all(frame[~mask] == 0)
        assert np.all(frame[mask] != 0)

    def test_data_cells_survive_round_trip(self):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        x = x.astype(np.complex64)
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=3)
        y = channel.insert_pilots(x, pat)
        mask = pat.mask()
        assert np.array_equal(y[~mask], x[~mask])

    def test_lattice_counts(self):
        pat = channel.make_pilot_pattern(32, 32, 4, 4)
        assert pat.mask().sum() == 64
        assert pat.data_indices().size == 1024 - 64


class TestLsEstimate:
    def test_full_lattice_recovers_exactly(self):
        pat = channel.make_pilot_pattern(16, 16, 1, 1, seed=4)
        h = channel.gen_channel(7, 16, 16, 2, 2)
        y = channel.apply_channel(channel.insert_pilots(
            np.zeros((16, 16), np.complex64), pat), h, channel.NO_NOISE)
        est = channel.ls_estimate(y, pat)
        assert np.allclose(est, h.gains, rtol=1e-5, atol=1e-6)

    def test_constant_channel_interpolates_to_constant(self):
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=5)
        c = 0.7 - 0.3j
        y = channel.apply_channel(channel.insert_pilots(
            np.zeros((32, 32), np.complex64), pat),
            np.full((32, 32), c, np.complex64), channel.NO_NOISE)
        est = channel.ls_estimate(y, pat)
        assert np.allclose(est, c, rtol=1e-5, atol=1e-6)

    def test_nmse_decreases_with_snr(self):
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=6)
        frame = channel.insert_pilots(np.zeros((32, 32), np.complex64), pat)
        means = []
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
            vals = []
            for i in range(100):
                h = channel.gen_channel(1000 + i, 32, 32, 4, 4)
                y = channel.apply_channel(frame, h, snr, noise_seed=2000 + i)
                vals.append(channel.nmse(channel.ls_estimate(y, pat), h.gains))
            means.append(float(np.mean(vals)))
        assert all(m > 0 for m in means)
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_empty_pattern_rejected(self):
        pat = channel.make_pilot_pattern(8, 8, 4, 4, seed=7)
        empty = channel.PilotPattern(8, 8, np.array([], dtype=int), pat.pilot_cols,
                                     pat.symbols[:0])
        with pytest.raises(ValueError, match="empty"):
            channel.ls_estimate(np.zeros((8, 8), np.complex64), empty)

    # (rows, cols, d_f, d_t, extra): extra rows and columns beyond the pattern
    @pytest.mark.parametrize("rows, cols, d_f, d_t, extra", [
        (32, 32, 4, 4, 0), (16, 16, 4, 4, 0), (32, 32, 3, 5, 0), (20, 12, 7, 5, 0),
        (8, 8, 8, 8, 0), (32, 32, 1, 32, 0), (20, 12, 7, 5, 3)])
    def test_matches_four_corner_reference_bit_for_bit(self, rows, cols, d_f, d_t,
                                                       extra):
        """On random stacks, each grid's estimate has the bytes of the
        four-corner weighted sum, alone and in the stack; a grid larger than
        the pattern is estimated on the pattern's extents."""
        pat = channel.make_pilot_pattern(rows, cols, d_f, d_t, seed=rows + d_t)
        rng = np.random.default_rng(rows * cols + d_f)
        shape = (2, 25, rows + extra, cols + extra)
        y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        y = y.astype(np.complex64)
        est = channel.ls_estimate(y, pat)
        assert est.shape == (2, 25, rows, cols) and est.dtype == np.complex64
        assert est.tobytes() == reference_ls_estimate(y, pat).tobytes()
        assert est[1, 3].tobytes() == channel.ls_estimate(y[1, 3], pat).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_pilot_makes_its_grid_non_finite(self, bad):
        """Every weight multiplies every pilot of its grid, so one non-finite
        pilot spreads over that grid's whole estimate and to no other grid."""
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=8)
        rng = np.random.default_rng(9)
        y = (rng.standard_normal((3, 32, 32))
             + 1j * rng.standard_normal((3, 32, 32))).astype(np.complex64)
        assert np.isfinite(channel.ls_estimate(y, pat)).all()
        y[1, pat.pilot_rows[2], pat.pilot_cols[5]] = bad
        with np.errstate(invalid="ignore"):
            est = channel.ls_estimate(y, pat)
        assert np.isfinite(est[[0, 2]]).all()
        assert not np.isfinite(est[1]).any()

    @pytest.mark.parametrize("shape", [(16,), (15, 16), (16, 15), (4, 16, 8)])
    def test_grid_smaller_than_pattern_rejected(self, shape):
        pat = channel.make_pilot_pattern(16, 16, 4, 4, seed=10)
        with pytest.raises(ShapeError, match="does not cover"):
            channel.ls_estimate(np.zeros(shape, np.complex64), pat)


class TestNmse:
    def test_zero_for_equal(self):
        h = channel.gen_channel(8, 16, 16).gains
        assert channel.nmse(h, h) == 0.0

    def test_zero_estimate_gives_one(self):
        h = channel.gen_channel(9, 16, 16).gains
        assert channel.nmse(np.zeros_like(h), h) == pytest.approx(1.0)

    def test_double_estimate_gives_one(self):
        h = channel.gen_channel(10, 16, 16).gains
        assert channel.nmse(2.0 * h, h) == pytest.approx(1.0, rel=1e-5)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            channel.nmse(ones_grid(4, 4), np.zeros((4, 4), np.complex64))

    def test_stack_scores_each_grid_as_alone(self):
        """A (draws, arms, rows, cols) stack against a truth broadcast over
        the arms gives, grid for grid, the bytes of the one-grid call."""
        truth = np.stack([channel.gen_channel(20 + i, 8, 8, 1.0, 1.0).gains
                          for i in range(3)])[:, None]
        rng = np.random.default_rng(21)
        est = (truth + rng.standard_normal((3, 4, 8, 8))).astype(np.complex64)
        got = channel.nmse(est, truth)
        assert got.shape == (3, 4)
        assert got.tolist() == [[channel.nmse(e, t[0]) for e in row]
                                for row, t in zip(est, truth)]

    def test_stack_with_one_zero_truth_rejected(self):
        truth = np.stack([ones_grid(4, 4), np.zeros((4, 4), np.complex64)])
        with pytest.raises(ValueError, match="all-zero"):
            channel.nmse(np.ones((5, 2, 4, 4), np.complex64), truth)

    def test_non_broadcasting_shapes_rejected(self):
        with pytest.raises(ShapeError):
            channel.nmse(np.ones((3, 4, 4), np.complex64), np.ones((2, 4, 4)))
        with pytest.raises(ShapeError):
            channel.nmse(np.ones((4, 4), np.complex64), np.ones((2, 4, 4)))


class TestDatasetFile:
    def make_set(self, n=3):
        return [channel.gen_channel(100 + i, 16, 16, 2.0, 2.0) for i in range(n)]

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "set.lmch"
        channel.save_channel_dataset(path, self.make_set())
        before = path.read_bytes()

        def chunks():
            yield bytes(64)
            raise OSError("disk full")

        with pytest.raises(LamMscError, match="disk full"):
            fileio.write_framed(path, b"LMCH", 1, {"count": 9}, chunks())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["set.lmch"]

    @pytest.mark.parametrize("rows, cols", [(-1, -8), (0, 4), (4, 0), (-4, 4)])
    def test_non_positive_extents_rejected(self, tmp_path, rows, cols):
        # (-1, -8) spans the 64-byte body of one grid, so only the check stops it
        path = tmp_path / "bad.lmch"
        fileio.write_framed(path, b"LMCH", 1,
                            {"rows": rows, "cols": cols, "sigma_f": 0.0,
                             "sigma_t": 0.0, "count": 1, "seeds": [0]},
                            [bytes(max(0, rows * cols * 8))])
        with pytest.raises(FormatError, match="extents"):
            channel.load_channel_dataset(path)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "set.lmch"
        original = self.make_set()
        channel.save_channel_dataset(path, original)
        loaded = channel.load_channel_dataset(path)
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert np.array_equal(a.gains, b.gains)
            assert a.gains.tobytes() == b.gains.tobytes()
            assert (a.seed, a.sigma_f, a.sigma_t) == (b.seed, b.sigma_f, b.sigma_t)

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.lmch", tmp_path / "b.lmch"
        data = self.make_set()
        channel.save_channel_dataset(p1, data)
        channel.save_channel_dataset(p2, data)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lmch"
        path.write_bytes(b"NOPE" + b"\x01" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            channel.load_channel_dataset(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "set.lmch"
        channel.save_channel_dataset(path, self.make_set(1))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            channel.load_channel_dataset(path)

    def test_file_bytes_pinned(self, tmp_path):
        # LMCH is a byte-stable format: these bytes must never drift
        grid = (np.arange(16) + 1j * np.arange(16, 32)).reshape(4, 4)
        data = [channel.ChannelRealization(grid.astype(np.complex64), 1.0, 2.0, 5),
                channel.ChannelRealization((-grid).astype(np.complex64), 1.0, 2.0,
                                           6)]
        path = tmp_path / "pinned.lmch"
        channel.save_channel_dataset(path, data)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == LMCH_PINNED_SHA256

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "set.lmch"
        channel.save_channel_dataset(path, self.make_set(2))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(FormatError, match="bytes"):
            channel.load_channel_dataset(path)
