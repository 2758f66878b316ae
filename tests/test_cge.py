import hashlib
import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lammsc import cge, channel, fileio, nn
from lammsc.errors import ConfigError, FormatError, ShapeError, TrainingError

from helpers import reference_first_step


CGE1_PINNED_SHA256 = ("6900d431c8028a7e282965cc67a6b3a5"
                      "af5de8c756c5f1aef675f356f945112d")
# weights after test_tiny_training_pinned's one-epoch run; they must not drift
TINY_WEIGHTS_SHA256 = ("5a57bcdf37dd5b8daee25473e3225329"
                       "e14600720b2cba2f9dd9dbaffff7caa0")

# cge.estimate on a batch of 8 conditions through an untrained 32x32 model
ESTIMATE_32_PINNED_SHA256 = ("dec8174b227d641ddabef13334e38057"
                             "bad62cf88fba862ed8e75a09c5661ede")


def small_pattern(rows=16, cols=16):
    return channel.make_pilot_pattern(rows, cols, 4, 4, seed=5)


def small_dataset(n=64, rows=16, cols=16, snr=10.0, seed=3):
    return cge.make_training_set(n, rows, cols, 2.0, 2.0,
                                 small_pattern(rows, cols), snr, seed)


class TestArchitecture:
    def test_generator_layer_plan(self):
        layers = cge.build_generator(32, 32, seed=0)
        assert len(layers) == 6
        assert [p.kind for p in layers] == ["conv"] * 3 + ["deconv"] * 3
        assert all(p.activation == "leaky_relu" for p in layers[:-1])
        assert all(p.slope == 0.2 for p in layers[:-1])
        assert layers[-1].activation == "linear"
        assert [(p.in_channels(), p.out_channels()) for p in layers] == [
            (4, 32), (32, 64), (64, 128), (128, 64), (64, 32), (32, 2)]
        assert all(p.kernel_size == 4 and p.stride == 2 and p.padding == 1
                   for p in layers)

    def test_generator_spatial_chain(self):
        y = np.zeros((1, 4, 32, 32), np.float32)
        sizes = []
        for layer in cge.build_generator(32, 32, seed=1):
            y = nn.Sequential([layer]).forward(y)
            sizes.append(y.shape[2])
        assert sizes == [16, 8, 4, 8, 16, 32]
        assert y.shape == (1, 2, 32, 32)

    def test_discriminator_layer_plan(self):
        layers = cge.build_discriminator(32, 32, seed=0)
        assert len(layers) == 4
        assert all(p.kind == "conv" for p in layers)
        assert [p.activation for p in layers] == ["relu", "relu", "relu", "linear"]
        assert layers[0].in_channels() == 6

    def test_discriminator_scalar_in_unit_interval(self):
        disc = nn.Sequential(cge.build_discriminator(32, 32, seed=2))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6, 32, 32)).astype(np.float32)
        for target in (1.0, 0.0):
            # a finite positive BCE: every score lies strictly inside (0, 1)
            scores, (dx, grads) = cge._disc_pass(disc, x[:, :4], x[:, 4:], target, 4)
            loss = nn.bce_loss(scores, np.full(scores.shape, target, np.float32))
            assert np.isfinite(loss) and loss > 0.0
            assert dx.shape == x.shape
            assert [g.shape for g in grads] == [p.shape for p in disc.parameters()]

    def test_indivisible_extents_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            cge.build_generator(20, 32, seed=0)
        with pytest.raises(ValueError, match="divisible"):
            cge.build_discriminator(24, 32, seed=0)


class TestCondition:
    def test_condition_layout(self):
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=7)
        h = channel.gen_channel(8, 32, 32, 4, 4)
        frame = channel.insert_pilots(np.zeros((32, 32), np.complex64), pat)
        y = channel.apply_channel(frame, h, 10.0, noise_seed=9)
        cond = cge.make_condition(y, pat)
        assert cond.shape == (4, 32, 32)
        mask = pat.mask()
        assert np.array_equal(cond[0][mask], y.real[mask])
        assert np.array_equal(cond[1][mask], y.imag[mask])
        assert np.all(cond[0][~mask] == 0) and np.all(cond[1][~mask] == 0)
        assert np.allclose(cond[2][mask] + 1j * cond[3][mask],
                           pat.symbols.ravel())
        assert np.all(cond[2][~mask] == 0) and np.all(cond[3][~mask] == 0)

    def test_stack_matches_each_grid_alone(self):
        pat = small_pattern()
        rng = np.random.default_rng(11)
        for lead in [(), (5,), (2, 3)]:
            ys = (rng.standard_normal(lead + (16, 16))
                  + 1j * rng.standard_normal(lead + (16, 16))).astype(np.complex64)
            conds, planes = cge.make_condition(ys, pat), cge.gains_to_planes(ys)
            assert conds.shape == lead + (4, 16, 16) and conds.dtype == np.float32
            assert planes.shape == lead + (2, 16, 16) and planes.dtype == np.float32
            for idx in np.ndindex(lead):
                assert conds[idx].tobytes() == cge.make_condition(ys[idx], pat).tobytes()
                assert planes[idx].tobytes() == cge.gains_to_planes(ys[idx]).tobytes()
            assert np.array_equal(cge.planes_to_gains(planes), ys)

    def test_extent_mismatch_rejected(self):
        pat = channel.make_pilot_pattern(32, 32, 4, 4, seed=7)
        for shape in [(16, 16), (), (32,), (3, 16, 32), (2, 32, 33)]:
            with pytest.raises(ShapeError):
                cge.make_condition(np.zeros(shape, np.complex64), pat)

    @pytest.mark.parametrize("shape", [(), (16,)])
    def test_planes_need_a_grid(self, shape):
        with pytest.raises(ShapeError):
            cge.gains_to_planes(np.zeros(shape, np.complex64))


class TestEstimate:
    def test_output_extents_and_purity(self):
        model = cge.untrained_model(16, 16, seed=4)
        cond = small_dataset(1)[0][0]
        est1 = cge.estimate(model, cond)
        est2 = cge.estimate(model, cond)
        assert est1.shape == (16, 16)
        assert est1.dtype == np.complex64
        assert np.array_equal(est1, est2)

    def test_condition_shape_checked(self):
        model = cge.untrained_model(16, 16, seed=4)
        with pytest.raises(ShapeError):
            cge.estimate(model, np.zeros((4, 32, 32), np.float32))

    def test_batch_matches_per_grid_bit_for_bit(self):
        model = cge.untrained_model(16, 16, seed=4)
        conds = np.stack([cond for cond, _ in small_dataset(5, seed=8)])
        batched = cge.estimate(model, conds)
        assert batched.shape == (5, 16, 16)
        assert batched.dtype == np.complex64
        per_grid = np.stack([cge.estimate(model, cond) for cond in conds])
        assert batched.tobytes() == per_grid.tobytes()

    def test_batch_bytes_pinned(self):
        pattern = channel.make_pilot_pattern(32, 32, 4, 4, seed=5)
        pairs = cge.make_training_set(8, 32, 32, 4.0, 4.0, pattern, 10.0, seed=9)
        est = cge.estimate(cge.untrained_model(32, 32, seed=6),
                           np.stack([cond for cond, _ in pairs]))
        assert hashlib.sha256(est.tobytes()).hexdigest() == ESTIMATE_32_PINNED_SHA256

    @pytest.mark.parametrize("shape", [(3, 4, 16, 16), (3, 2, 32, 32),
                                       (1, 3, 4, 32, 32)])
    def test_batch_for_other_grid_rejected(self, shape):
        # the convs run at any extent, so only the check stops a 16x16 batch
        model = cge.untrained_model(32, 32, seed=4)
        with pytest.raises(ShapeError, match="32x32"):
            cge.estimate(model, np.zeros(shape, np.float32))


class TestTraining:
    def test_deterministic_weights(self):
        data = small_dataset(64)
        hyper = cge.TrainConfig(epochs=2)
        m1 = cge.train_cgan(data, hyper, seed=11)
        m2 = cge.train_cgan(data, hyper, seed=11)
        for a, b in zip(m1.generator.parameters() + m1.discriminator.parameters(),
                        m2.generator.parameters() + m2.discriminator.parameters()):
            assert np.array_equal(a, b)
        assert m1.history == m2.history

    def test_losses_finite_and_recorded(self):
        model = cge.train_cgan(small_dataset(64), cge.TrainConfig(epochs=2), seed=12)
        assert len(model.history.d_loss) == 2
        assert len(model.history.g_loss) == 2
        assert len(model.history.val_nmse) == 2
        assert all(np.isfinite(v) for v in model.history.d_loss)
        assert all(np.isfinite(v) for v in model.history.g_loss)
        assert all(np.isfinite(v) for v in model.history.val_nmse)

    def test_training_improves_over_untrained(self):
        data = small_dataset(128, seed=21)
        model = cge.train_cgan(data, cge.TrainConfig(epochs=8), seed=13)
        held_out = small_dataset(32, seed=22)
        trained = cge.evaluate_nmse(model, held_out)
        untrained = cge.evaluate_nmse(cge.untrained_model(16, 16, seed=13), held_out)
        assert trained < untrained

    def test_tiny_training_pinned(self):
        model = cge.train_cgan(small_dataset(64), cge.TrainConfig(epochs=1), seed=14)
        params = model.generator.parameters() + model.discriminator.parameters()
        digest = hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest()
        assert digest == TINY_WEIGHTS_SHA256
        assert model.history.val_nmse == [0.9998433650989321]

    @pytest.mark.parametrize("hyper, extent, message", [
        (cge.TrainConfig(epochs=0), 16, "epoch"),
        (cge.TrainConfig(batch_size=0), 16, "batch"),
        (cge.TrainConfig(epochs=1), 24, "divisible by 16")],
        ids=["epochs", "batch", "extents"])
    def test_bad_setup_rejected_before_any_draw(self, monkeypatch, hyper, extent,
                                                message):
        data = small_dataset(64, rows=extent, cols=extent)
        monkeypatch.setattr(cge, "_init_model", None)  # a draw would raise TypeError
        with pytest.raises(ConfigError, match=message):
            cge.train_cgan(data, hyper, seed=0)

    def test_small_dataset_rejected(self):
        with pytest.raises(ValueError, match="64"):
            cge.train_cgan(small_dataset(10), cge.TrainConfig(epochs=1), seed=0)


def weight_bytes(model) -> bytes:
    return b"".join(p.tobytes() for p in
                    model.generator.parameters() + model.discriminator.parameters())


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread count getter, with the count set to 2 for the test
    so a pin to 1 shows, and the old count put back afterwards."""
    blas = cge._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS does not expose its thread count")
    get, put = blas
    saved = get()
    put(2)
    yield get
    put(saved)


class TestLanes:
    def test_lane_split(self):
        assert cge._lane_slices(7) == [slice(0, 4), slice(4, 7)]
        assert cge._lane_slices(16) == [slice(0, 8), slice(8, 16)]
        assert cge._lane_slices(1) == [slice(0, 1)]

    # (pairs, batch size): 63 training pairs in batches of 7 (4 + 3 lanes);
    # batches of 1 (one lane); batches of 16 with a last batch of 10
    @pytest.mark.parametrize("pairs, batch", [(70, 7), (64, 1), (64, 16)],
                             ids=["batch-7", "batch-1", "short-last-batch"])
    def test_threads_and_sequence_give_identical_bytes(self, monkeypatch, blas_threads,
                                                       pairs, batch):
        data = small_dataset(pairs)
        hyper = cge.TrainConfig(epochs=1, batch_size=batch)
        threads = set()
        disc_pass = cge._disc_pass

        def seen(*args, **kwargs):
            threads.add(threading.get_ident())
            return disc_pass(*args, **kwargs)

        monkeypatch.setattr(cge, "_disc_pass", seen)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the lanes' Python code interleaves finely
        try:
            threaded = cge.train_cgan(data, hyper, seed=14)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == (1 if batch == 1 else 2)
        threads.clear()
        monkeypatch.setattr(cge, "_openblas", lambda: None)
        in_turn = cge.train_cgan(data, hyper, seed=14)
        assert threads == {threading.get_ident()}
        assert weight_bytes(threaded) == weight_bytes(in_turn)
        assert threaded.history == in_turn.history

    def test_one_step_matches_single_lane_reference(self):
        # 58 training pairs at batch 64: one step of two 29-pair lanes
        data = small_dataset(64)
        hyper = cge.TrainConfig(epochs=1, batch_size=64)
        lanes = cge.train_cgan(data, hyper, seed=14)
        ref, d_loss, g_loss = reference_first_step(data, hyper, seed=14)
        assert lanes.history.d_loss == [pytest.approx(d_loss, rel=1e-6)]
        assert lanes.history.g_loss == [pytest.approx(g_loss, rel=1e-6)]
        # a first Adam step moves each weight by lr * g / (|g| + eps), at most
        # lr; the lanes' float order moves that by a small part of lr
        for a, b in zip(lanes.generator.parameters() + lanes.discriminator.parameters(),
                        ref.generator.parameters() + ref.discriminator.parameters()):
            np.testing.assert_allclose(a, b, rtol=0, atol=hyper.lr / 100)


class LaneError(Exception):
    pass


class TestBlasPin:
    def test_pinned_to_one_thread_during_training_and_restored(self, monkeypatch,
                                                               blas_threads):
        counts = set()
        disc_pass = cge._disc_pass

        def seen(*args, **kwargs):
            counts.add(blas_threads())
            return disc_pass(*args, **kwargs)

        monkeypatch.setattr(cge, "_disc_pass", seen)
        cge.train_cgan(small_dataset(64), cge.TrainConfig(epochs=1), seed=14)
        assert counts == {1}
        assert blas_threads() == 2

    def test_restored_when_adam_raises(self, monkeypatch, blas_threads):
        def fail(*args, **kwargs):
            raise TrainingError("non-finite gradient at step 1")

        monkeypatch.setattr(nn, "adam_step", fail)
        with pytest.raises(TrainingError, match="non-finite gradient"):
            cge.train_cgan(small_dataset(64), cge.TrainConfig(epochs=1), seed=14)
        assert blas_threads() == 2

    def test_lane_error_surfaces_as_itself_and_restores(self, monkeypatch,
                                                        blas_threads):
        disc_pass = cge._disc_pass
        raised = []

        def fail_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raised.append(LaneError("lane 1"))
                raise raised[-1]
            return disc_pass(*args, **kwargs)

        monkeypatch.setattr(cge, "_disc_pass", fail_off_main)
        with pytest.raises(LaneError) as info:
            cge.train_cgan(small_dataset(64), cge.TrainConfig(epochs=1), seed=14)
        assert info.value is raised[0]
        assert blas_threads() == 2

    def test_overlapping_trainings_restore_when_the_last_ends(self, blas_threads):
        # training a starts first and ends while b still runs
        data = small_dataset(64)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen, errors = [], []

        def a_epoch(epoch, history):
            a_in.set()
            assert b_in.wait(120)

        def b_epoch(epoch, history):
            b_in.set()
            assert a_out.wait(120)
            seen.append(blas_threads())

        def train(on_epoch):
            try:
                cge.train_cgan(data, cge.TrainConfig(epochs=1), seed=14, on_epoch=on_epoch)
            except BaseException as exc:
                errors.append(exc)

        a = threading.Thread(target=train, args=(a_epoch,))
        b = threading.Thread(target=train, args=(b_epoch,))
        a.start()
        assert a_in.wait(120)
        b.start()
        a.join()
        a_out.set()
        b.join()
        assert errors == []
        assert seen == [1]  # still pinned for b after a ended
        assert blas_threads() == 2


class TestPersistence:
    def make_model(self):
        return cge.train_cgan(small_dataset(64), cge.TrainConfig(epochs=1), seed=14)

    def test_round_trip_estimates_bit_identical(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.cge"
        cge.save_model(model, path)
        loaded = cge.load_model(path)
        cond = small_dataset(1, seed=30)[0][0]
        assert np.array_equal(cge.estimate(model, cond), cge.estimate(loaded, cond))
        assert loaded.hyper == model.hyper
        assert loaded.history == model.history
        assert (loaded.rows, loaded.cols) == (model.rows, model.cols)

    def test_rewrite_byte_identical(self, tmp_path):
        model = self.make_model()
        p1, p2 = tmp_path / "a.cge", tmp_path / "b.cge"
        cge.save_model(model, p1)
        cge.save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_bytes_pinned(self, tmp_path):
        # CGE1 is a byte-stable format: these bytes must never drift
        path = tmp_path / "pinned.cge"
        cge.save_model(cge.untrained_model(16, 16, seed=3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CGE1_PINNED_SHA256

    @pytest.mark.parametrize("net, array, value", [
        ("generator", "weights", np.nan), ("discriminator", "bias", np.inf)])
    def test_non_finite_weights_rejected(self, tmp_path, net, array, value):
        model = cge.untrained_model(16, 16, seed=3)
        getattr(getattr(model, net).layers[1], array).flat[2] = value
        path = tmp_path / "model.cge"
        cge.save_model(model, path)  # written through fileio.write_framed
        with pytest.raises(FormatError, match="non-finite") as info:
            cge.load_model(path)
        assert str(path) in str(info.value)

    def test_truncated_file_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.cge"
        cge.save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            cge.load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.cge"
        cge.save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            cge.load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.cge"
        path.write_bytes(b"WHAT" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            cge.load_model(path)

    @pytest.mark.parametrize("generator", [[{"kind": "conv"}], 5, [
        {"kind": "pool", "stride": 1, "padding": 0, "activation": "linear",
         "slope": 0.2, "w_shape": [1, 1, 1, 1], "b_shape": [1]}]],
        ids=["missing-keys", "not-a-list", "unknown-kind"])
    def test_malformed_layer_spec_rejected(self, tmp_path, generator):
        path = tmp_path / "bad.cge"
        header = {"rows": 16, "cols": 16, "hyper": asdict(cge.TrainConfig()),
                  "history": asdict(cge.TrainHistory()),
                  "generator": generator, "discriminator": []}
        fileio.write_framed(path, b"CGE1", 1, header, [bytes(8)])
        with pytest.raises(FormatError) as info:
            cge.load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("layer, message", [
        ({"stride": 2.0}, "stride 2.0 must be an int"),
        ({"padding": True}, "padding True an int"),
        ({"padding": 4}, r"padding 4 an int in \[0, 4\)"),
        ({"padding": 10 ** 6}, r"padding 1000000 an int in \[0, 4\)"),
        ({"w_shape": [], "b_shape": [32 + 4 * 32 * 4 * 4 - 1]},
         r"conv weights of shape \(\)")],
        ids=["float-stride", "bool-padding", "padding-at-kernel", "huge-padding",
             "0-d-weights"])
    def test_layer_rule_rejected(self, tmp_path, layer, message):
        # the saved body stays, so the byte count matches and the layer rule speaks
        path = tmp_path / "bad.cge"
        cge.save_model(cge.untrained_model(32, 32, seed=3), path)
        header, body = fileio.read_framed(path, b"CGE1", 1, "CGE model")
        header["generator"][0].update(layer)
        fileio.write_framed(path, b"CGE1", 1, header, [body])
        with pytest.raises(FormatError, match=message) as info:
            cge.load_model(path)
        assert str(info.value).startswith(f"{path}: malformed CGE model header (")


def tiny_model_bytes(tmp_path) -> bytes:
    """A CGE1 file of two one-layer networks, a few hundred bytes long."""
    rng = np.random.default_rng(0)
    model = cge.CganModel(
        nn.Sequential([nn.conv_layer(1, 1, 2, 1, 0, "leaky_relu", rng=rng)]),
        nn.Sequential([nn.dense_layer(2, 1, "sigmoid", rng=rng)]),
        16, 16, cge.TrainConfig(), cge.TrainHistory([1.5], [57.25], [0.875]))
    path = tmp_path / "tiny.cge"
    cge.save_model(model, path)
    return path.read_bytes()


def tiny_dataset_bytes(tmp_path) -> bytes:
    """An LMCH file of two 4x4 grids. The seeds have 19 digits, so one
    overwritten byte can turn a seed into a float too large for an int."""
    path = tmp_path / "tiny.lmch"
    channel.save_channel_dataset(
        path, [channel.gen_channel(10 ** 18 + i, 4, 4, 1.0, 1.0) for i in range(2)])
    return path.read_bytes()


TINY_FILES = pytest.mark.parametrize(
    "make, load", [(tiny_model_bytes, cge.load_model),
                   (tiny_dataset_bytes, channel.load_channel_dataset)],
    ids=["CGE1", "LMCH"])
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCorruptFiles:
    """Whatever the damage, loading raises only FormatError."""

    @TINY_FILES
    @FUZZ
    @given(data=st.data())
    def test_truncation_raises_format_error(self, tmp_path, make, load, data):
        blob = make(tmp_path)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path = tmp_path / "cut.bin"
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load(path)

    @TINY_FILES
    @FUZZ
    @given(data=st.data())
    def test_overwritten_byte_loads_or_raises_format_error(self, tmp_path, make,
                                                           load, data):
        blob = bytearray(make(tmp_path))
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[offset] = data.draw(st.integers(0, 255), label="value")
        path = tmp_path / "overwritten.bin"
        path.write_bytes(bytes(blob))
        try:
            load(path)
        except FormatError:
            pass
