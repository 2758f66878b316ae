import contextlib
import math
import weakref

import numpy as np
import pytest

from lammsc import cge, nn
from lammsc.errors import ShapeError, TrainingError

from helpers import check_grad, fd_gradient, reference_layer, rel_err


def make_layer(kind, in_ch, out_ch, k, stride, pad, activation="linear", seed=0):
    rng = np.random.default_rng(seed)
    if kind == "conv":
        return nn.conv_layer(in_ch, out_ch, k, stride, pad, activation, rng=rng)
    return nn.deconv_layer(in_ch, out_ch, k, stride, pad, activation, rng=rng)


def run_layer(p, x):
    """One layer's forward on one unbatched sample, through ``nn.Sequential``."""
    return nn.Sequential([p]).forward(x[None])[0]


class TestConv2d:
    def test_all_ones_sum(self):
        p = nn.LayerParams("conv", np.ones((1, 1, 2, 2), np.float32),
                           np.zeros(1, np.float32), stride=1, padding=0)
        out = run_layer(p, np.ones((1, 3, 3), np.float32))
        assert out.shape == (1, 2, 2)
        assert np.allclose(out, 4.0)

    def test_selector_kernel_crops(self):
        w = np.zeros((1, 1, 2, 2), np.float32)
        w[0, 0, 0, 0] = 1.0
        p = nn.LayerParams("conv", w, np.zeros(1, np.float32))
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = run_layer(p, x)
        assert np.array_equal(out[0], x[0, :3, :3])

    def test_strided_output_extents(self):
        rng = np.random.default_rng(3)
        p = nn.conv_layer(4, 32, 4, stride=2, padding=1, rng=rng)
        out = run_layer(p, rng.standard_normal((4, 32, 32)).astype(np.float32))
        assert out.shape == (32, 16, 16)

    def test_size_formula_lattice(self):
        rng = np.random.default_rng(4)
        for k in (3, 4):
            for stride in (1, 2):
                for pad in (0, 1):
                    p = nn.conv_layer(2, 3, k, stride, pad, rng=rng)
                    x = rng.standard_normal((2, 11, 9)).astype(np.float32)
                    out = run_layer(p, x)
                    eh = (11 + 2 * pad - k) // stride + 1
                    ew = (9 + 2 * pad - k) // stride + 1
                    assert out.shape == (3, eh, ew), (k, stride, pad)

    def test_channel_mismatch_rejected(self):
        p = make_layer("conv", 4, 8, 3, 1, 1)
        with pytest.raises(ShapeError, match="channels"):
            run_layer(p, np.zeros((3, 8, 8), np.float32))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(5)
        p = nn.conv_layer(3, 5, 3, 2, 1, "leaky_relu", rng=rng)
        x = rng.standard_normal((3, 12, 12)).astype(np.float32)
        assert np.array_equal(run_layer(p, x), run_layer(p, x))


class TestDeconv2d:
    def test_broadcast_single_value(self):
        p = nn.LayerParams("deconv", np.ones((1, 1, 2, 2), np.float32),
                           np.zeros(1, np.float32), stride=2, padding=0)
        out = run_layer(p, np.ones((1, 1, 1), np.float32))
        assert out.shape == (1, 2, 2)
        assert np.allclose(out, 1.0)

    def test_upsampling_extents(self):
        rng = np.random.default_rng(6)
        p = nn.deconv_layer(128, 64, 4, stride=2, padding=1, rng=rng)
        out = run_layer(p, rng.standard_normal((128, 4, 4)).astype(np.float32))
        assert out.shape == (64, 8, 8)

    def test_size_formula_lattice(self):
        rng = np.random.default_rng(7)
        for k in (3, 4):
            for stride in (1, 2):
                for pad in (0, 1):
                    if (6 - 1) * stride - 2 * pad + k < 1:
                        continue
                    p = nn.deconv_layer(2, 3, k, stride, pad, rng=rng)
                    x = rng.standard_normal((2, 6, 5)).astype(np.float32)
                    out = run_layer(p, x)
                    eh = (6 - 1) * stride - 2 * pad + k
                    ew = (5 - 1) * stride - 2 * pad + k
                    assert out.shape == (3, eh, ew), (k, stride, pad)

    # combos where the deconv size formula recovers the conv input extents
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 1, 0), (4, 2, 1), (2, 2, 0)])
    def test_adjoint_of_conv(self, k, stride, pad):
        # <conv(x), y> == <x, deconv(y)> for shared weights and zero bias
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = rng.standard_normal((3, 2, k, k)).astype(np.float32)
            conv = nn.LayerParams("conv", w, np.zeros(3, np.float32), stride, pad)
            dec = nn.LayerParams("deconv", w, np.zeros(2, np.float32), stride, pad)
            x = rng.standard_normal((2, 4, 4)).astype(np.float32)
            z = run_layer(conv, x)
            y = rng.standard_normal(z.shape).astype(np.float32)
            lhs = float(np.sum(z.astype(np.float64) * y.astype(np.float64)))
            rhs = float(np.sum(x.astype(np.float64)
                               * run_layer(dec, y).astype(np.float64)))
            assert rel_err(lhs, rhs) < 1e-5


class TestReferenceKernels:
    """Forward output, dx, dw and db of one linear layer are byte-equal to the
    oracle in tests/helpers.py: loop-built im2col and col2im, per-sample
    matmul for z and dx, one folded GEMM for dw, a batch-major sum for db."""

    @pytest.mark.parametrize("extents", [(8, 8), (7, 9)], ids=["even", "odd"])
    @pytest.mark.parametrize("batch", [1, 6, 16])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("kind,in_ch,out_ch", [("conv", 3, 5), ("conv", 4, 1),
                                                   ("deconv", 3, 5)])
    def test_bytes_match_oracle(self, kind, in_ch, out_ch, k, stride, pad, batch,
                                extents):
        rng = np.random.default_rng([k, stride, pad, batch, extents[1], out_ch])
        layer = make_layer(kind, in_ch, out_ch, k, stride, pad, seed=k)
        layer.bias[:] = rng.standard_normal(out_ch)
        net = nn.Sequential([layer])
        x = rng.standard_normal((batch, in_ch) + extents).astype(np.float32)
        z = net.forward(x, record=True)
        dz = rng.standard_normal(z.shape).astype(np.float32)
        dx, (dw, db) = net.backward(dz)
        want = reference_layer(kind, layer.weights, layer.bias, stride, pad, x, dz)
        for name, got, ref in zip(("z", "dx", "dw", "db"), (z, dx, dw, db), want):
            assert got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name


class TestActivations:
    def test_leaky_relu_values(self):
        out = nn.activate("leaky_relu", np.array([-1.0, 3.0], np.float32), slope=0.2)
        assert out[0] == pytest.approx(-0.2)
        assert out[1] == pytest.approx(3.0)

    def test_sigmoid_midpoint(self):
        assert nn.activate("sigmoid", np.array([0.0], np.float32))[0] == pytest.approx(0.5)

    def test_relu(self):
        out = nn.activate("relu", np.array([-2.0, 0.0, 2.0], np.float32))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_sigmoid_saturates_without_overflow(self):
        out = nn.activate("sigmoid", np.array([-200.0, 200.0], np.float32))
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-30 and out[1] == 1.0

    def test_bad_slope_rejected(self):
        with pytest.raises(ValueError, match="slope"):
            nn.LayerParams("conv", np.ones((1, 1, 2, 2), np.float32),
                           np.zeros(1, np.float32), activation="leaky_relu", slope=1.5)

    @pytest.mark.parametrize("slope", [1.5, -0.2, 0.0, 1.0])
    def test_activate_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="slope"):
            nn.activate("leaky_relu", np.array([-1.0, 3.0], np.float32), slope=slope)


class TestDense:
    def test_identity(self):
        p = nn.LayerParams("dense", np.eye(4, dtype=np.float32), np.zeros(4, np.float32))
        x = np.array([1.0, -2.0, 3.0, 0.5], np.float32)
        assert np.array_equal(run_layer(p, x), x)

    def test_constant(self):
        p = nn.LayerParams("dense", np.zeros((3, 4), np.float32),
                           np.full(3, 2.5, np.float32))
        assert np.allclose(run_layer(p, np.ones(4, np.float32)), 2.5)

    def test_matches_dot_product(self):
        rng = np.random.default_rng(9)
        p = nn.dense_layer(8, 1, rng=rng)
        x = rng.standard_normal(8).astype(np.float32)
        expected = float(np.dot(p.weights[0].astype(np.float64),
                                x.astype(np.float64)) + p.bias[0])
        assert rel_err(float(run_layer(p, x)[0]), expected) < 1e-6


class TestLosses:
    def test_bce_perfect_prediction(self):
        one = np.ones((4,), np.float32)
        assert nn.bce_loss(one, one) < 2e-7

    def test_bce_coin_flip(self):
        pred = np.full(6, 0.5, np.float32)
        target = np.array([0, 1, 0, 1, 1, 0], np.float32)
        assert nn.bce_loss(pred, target) == pytest.approx(math.log(2.0), rel=1e-6)

    def test_bce_frozen_value(self):
        # -ln 0.9
        loss = nn.bce_loss(np.array([0.9], np.float32), np.array([1.0], np.float32))
        assert loss == pytest.approx(0.105360516, rel=1e-5)

    def test_l1_zero_iff_equal(self):
        a = np.array([1.0, 1.0], np.float32)
        assert nn.l1_loss(a, a) == 0.0
        assert nn.l1_loss(a, np.array([0.0, 2.0], np.float32)) == pytest.approx(1.0)

    def test_l1_random_against_elementwise(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(50).astype(np.float32)
        b = rng.standard_normal(50).astype(np.float32)
        expected = float(np.mean([abs(float(u) - float(v)) for u, v in zip(a, b)]))
        assert nn.l1_loss(a, b) == pytest.approx(expected, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            nn.l1_loss(np.zeros(3, np.float32), np.zeros(4, np.float32))


class TestBackward:
    def test_backward_without_forward_rejected(self):
        net = nn.Sequential([make_layer("conv", 1, 1, 3, 1, 1)])
        with pytest.raises(RuntimeError, match="forward"):
            net.backward(np.zeros((1, 1, 4, 4), np.float32))

    def test_failed_recorded_forward_leaves_no_tape(self):
        """A recorded forward that raises part-way drops the older tape, so a
        backward cannot run against the inputs of an earlier forward."""
        net = nn.Sequential([make_layer("conv", 2, 3, 3, 1, 1)])
        net.forward(np.ones((2, 2, 6, 6), np.float32), record=True)
        with pytest.raises(ShapeError):
            net.forward(np.ones((2, 5, 6, 6), np.float32), record=True)
        with pytest.raises(RuntimeError, match="forward"):
            net.backward(np.ones((2, 3, 6, 6), np.float32))

    def test_inference_between_forward_and_backward(self):
        rng = np.random.default_rng(12)
        net = nn.Sequential([make_layer("conv", 2, 3, 3, 1, 1, "leaky_relu", seed=12),
                             make_layer("deconv", 3, 2, 4, 2, 1, seed=13)])
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        dy = rng.standard_normal(net.forward(x).shape).astype(np.float32)
        net.forward(x, record=True)
        dx_ref, grads_ref = net.backward(dy)
        net.forward(x, record=True)
        net.forward(rng.standard_normal((5, 2, 6, 6)).astype(np.float32))
        dx, grads = net.backward(dy)
        assert np.array_equal(dx, dx_ref)
        assert all(np.array_equal(g, r) for g, r in zip(grads, grads_ref))

    @pytest.mark.parametrize("input_grad, param_grads",
                             [(False, True), (True, False), (False, False)])
    @pytest.mark.parametrize("kinds", [("conv", "deconv"), ("deconv", "conv"),
                                       ("dense",)], ids=["conv-deconv",
                                                         "deconv-conv", "dense"])
    def test_skipped_products_are_none_and_the_rest_unchanged(
            self, kinds, input_grad, param_grads):
        rng = np.random.default_rng(19)
        if kinds == ("dense",):
            net = nn.Sequential([nn.dense_layer(6, 4, "leaky_relu", rng=rng),
                                 nn.dense_layer(4, 3, rng=rng)])
            x = rng.standard_normal((5, 6)).astype(np.float32)
        else:
            net = nn.Sequential([make_layer(kinds[0], 2, 3, 4, 2, 1, "leaky_relu", 19),
                                 make_layer(kinds[1], 3, 2, 4, 2, 1, seed=20)])
            x = rng.standard_normal((5, 2, 8, 8)).astype(np.float32)
        dy = rng.standard_normal(net.forward(x).shape).astype(np.float32)
        net.forward(x, record=True)
        dx_full, grads_full = net.backward(dy)
        net.forward(x, record=True)
        dx, grads = net.backward(dy, input_grad=input_grad, param_grads=param_grads)
        if input_grad:
            assert dx.tobytes() == dx_full.tobytes()
        else:
            assert dx is None
        if param_grads:
            assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_full]
        else:
            assert grads is None

    @pytest.mark.parametrize("dy_shape", [(1, 4, 8, 8), (4, 8, 8)],
                             ids=["broadcastable", "unbatched"])
    def test_mis_shaped_dy_rejected_and_the_tape_kept(self, dy_shape):
        rng = np.random.default_rng(23)
        net = nn.Sequential([make_layer("conv", 3, 4, 3, 1, 1, "leaky_relu", seed=23)])
        x = rng.standard_normal((5, 3, 8, 8)).astype(np.float32)
        dy = rng.standard_normal((5, 4, 8, 8)).astype(np.float32)
        net.forward(x, record=True)
        dx_ref, grads_ref = net.backward(dy)
        net.forward(x, record=True)
        with pytest.raises(ShapeError, match=r"\(5, 4, 8, 8\)") as info:
            net.backward(np.ones(dy_shape, np.float32))
        assert str(dy_shape) in str(info.value)
        dx, grads = net.backward(dy)  # the retry finds the tape in place
        assert dx.tobytes() == dx_ref.tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_ref]

    def test_error_part_way_leaves_no_tape(self, monkeypatch):
        rng = np.random.default_rng(24)
        net = nn.Sequential([make_layer("conv", 2, 3, 3, 1, 1, "relu", seed=24),
                             make_layer("conv", 3, 2, 3, 1, 1, seed=25)])
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        dy = np.ones(net.forward(x, record=True).shape, np.float32)

        def fail(*args):
            raise ArithmeticError("in the last layer's dx")

        monkeypatch.setattr(nn, "_col2im", fail)
        with pytest.raises(ArithmeticError):
            net.backward(dy)
        monkeypatch.undo()
        with pytest.raises(RuntimeError, match="forward"):
            net.backward(dy)

    @pytest.mark.parametrize("one_blas_thread", [False, True], ids=["blas-default",
                                                                    "blas-1"])
    @pytest.mark.parametrize("batch", [1, 3, 8, 16])
    @pytest.mark.parametrize("in_ch, k, stride, pad, size, channels", [
        (6, 4, 2, 1, 32, slice(4, None)),  # the discriminator's first layer
        (6, 4, 2, 1, 16, slice(4, None)),
        (5, 3, 1, 1, 7, slice(0, 2)),
        (4, 3, 2, 0, 9, slice(1, 4, 2)),
    ], ids=["disc32", "disc16", "k3-head", "k3-strided"])
    def test_input_channel_slice_is_the_full_dx_slice(self, in_ch, k, stride, pad,
                                                      size, channels, batch,
                                                      one_blas_thread):
        rng = np.random.default_rng(batch * 100 + size)
        net = nn.Sequential([make_layer("conv", in_ch, 8, k, stride, pad, "relu",
                                        seed=size),
                             make_layer("conv", 8, 3, 3, 1, 1, seed=size + 1)])
        x = rng.standard_normal((batch, in_ch, size, size)).astype(np.float32)
        dy = rng.standard_normal(net.forward(x).shape).astype(np.float32)
        blas = cge._openblas()
        if one_blas_thread and blas is None:
            pytest.skip("numpy's BLAS does not expose its thread count")
        with cge._blas_pinned(*blas) if one_blas_thread else contextlib.nullcontext():
            net.forward(x, record=True)
            dx_full, grads_full = net.backward(dy)
            net.forward(x, record=True)
            dx, grads = net.backward(dy, input_grad=channels)
        assert dx.shape == dx_full[:, channels].shape
        assert dx.tobytes() == np.ascontiguousarray(dx_full[:, channels]).tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_full]

    @pytest.mark.parametrize("kind", ["deconv", "dense"])
    def test_input_channel_slice_of_deconv_and_dense(self, kind):
        rng = np.random.default_rng(26)
        if kind == "dense":
            net = nn.Sequential([nn.dense_layer(6, 4, "leaky_relu", rng=rng)])
            x = rng.standard_normal((5, 6)).astype(np.float32)
        else:
            net = nn.Sequential([make_layer("deconv", 6, 3, 4, 2, 1, seed=26)])
            x = rng.standard_normal((5, 6, 4, 4)).astype(np.float32)
        dy = rng.standard_normal(net.forward(x, record=True).shape).astype(np.float32)
        dx_full, _ = net.backward(dy)
        net.forward(x, record=True)
        dx, _ = net.backward(dy, input_grad=slice(4, None))
        assert dx.tobytes() == np.ascontiguousarray(dx_full[:, 4:]).tobytes()

    def test_constant_loss_zero_gradients(self):
        rng = np.random.default_rng(11)
        net = nn.Sequential([make_layer("conv", 2, 3, 3, 1, 1, "leaky_relu", seed=11)])
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        out = net.forward(x, record=True)
        _, grads = net.backward(np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in grads)

    def test_dense_squared_error_closed_form(self):
        rng = np.random.default_rng(12)
        layer = nn.dense_layer(5, 3, rng=rng)
        net = nn.Sequential([layer])
        x = rng.standard_normal((1, 5)).astype(np.float32)
        t = rng.standard_normal((1, 3)).astype(np.float32)
        z = net.forward(x, record=True)
        _, grads = net.backward(2.0 * (z - t))
        expected_dw = 2.0 * np.outer((z - t)[0], x[0])
        assert np.allclose(grads[0], expected_dw, rtol=1e-5, atol=1e-6)
        assert np.allclose(grads[1], 2.0 * (z - t)[0], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("kind,act", [("conv", "leaky_relu"), ("conv", "relu"),
                                          ("conv", "sigmoid"), ("conv", "linear"),
                                          ("deconv", "leaky_relu"), ("deconv", "linear")])
    def test_finite_difference_weights_and_input(self, kind, act):
        import zlib
        rng = np.random.default_rng(zlib.crc32(f"{kind}-{act}".encode()))
        layer = make_layer(kind, 2, 3, 3, 2, 1, act, seed=13)
        net = nn.Sequential([layer])
        # wide inputs keep pre-activations away from the kinks at this eps
        x = (3.0 * rng.standard_normal((1, 2, 6, 6))).astype(np.float32)
        probe = rng.standard_normal(net.forward(x).shape).astype(np.float32)

        def loss():
            return float(np.sum(net.forward(x).astype(np.float64)
                                * probe.astype(np.float64)))

        net.forward(x, record=True)
        dx, grads = net.backward(probe)
        check_grad(loss, grads[0], layer.weights, rng)
        check_grad(loss, grads[1], layer.bias, rng, n_coords=2)
        check_grad(loss, dx, x, rng)

    def test_finite_difference_dense(self):
        rng = np.random.default_rng(14)
        layer = nn.dense_layer(6, 4, "sigmoid", rng=rng)
        net = nn.Sequential([layer])
        x = rng.standard_normal((2, 6)).astype(np.float32)
        probe = rng.standard_normal((2, 4)).astype(np.float32)

        def loss():
            return float(np.sum(net.forward(x).astype(np.float64)
                                * probe.astype(np.float64)))

        net.forward(x, record=True)
        dx, grads = net.backward(probe)
        check_grad(loss, grads[0], layer.weights, rng)
        check_grad(loss, dx, x, rng)

    def test_finite_difference_through_chain_with_l1_head(self):
        rng = np.random.default_rng(15)
        net = nn.Sequential([
            make_layer("conv", 1, 4, 4, 2, 1, "leaky_relu", seed=20),
            make_layer("deconv", 4, 1, 4, 2, 1, "linear", seed=21),
        ])
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        target = rng.standard_normal((1, 1, 8, 8)).astype(np.float32) + 0.5

        def loss():
            return nn.l1_loss(net.forward(x), target)

        out = net.forward(x, record=True)
        _, grads = net.backward(nn.l1_grad(out, target, out.size))
        check_grad(loss, grads[0], net.layers[0].weights, rng)
        check_grad(loss, grads[2], net.layers[1].weights, rng)

    def test_bce_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(16)
        pred = rng.uniform(0.2, 0.8, size=8).astype(np.float32)
        target = (rng.uniform(size=8) > 0.5).astype(np.float32)
        grad = nn.bce_grad(pred, target, pred.size)
        for idx in (0, 3, 7):
            fd = fd_gradient(lambda: nn.bce_loss(pred, target), pred, idx, eps=1e-3)
            assert rel_err(float(grad[idx]), fd) < 1e-2


class TestTape:
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_patch_matrices_die_before_their_dx(self, monkeypatch, input_grad):
        """Each conv layer's patch matrix is dead when col2im sums that layer's
        dx, and every one is dead once backward returns."""
        rng = np.random.default_rng(27)
        net = nn.Sequential(cge.build_discriminator(32, 32, seed=27))
        x = rng.standard_normal((8, 6, 32, 32)).astype(np.float32)
        patches, summed = {}, []
        im2col, col2im = nn._im2col, nn._col2im

        def recording_im2col(x, *args):
            out = im2col(x, *args)
            patches[x.shape] = weakref.ref(out[0])
            return out

        def checking_col2im(cols, x_shape, *args):
            assert patches[x_shape]() is None, f"patch matrix of {x_shape} alive"
            summed.append(x_shape)
            return col2im(cols, x_shape, *args)

        monkeypatch.setattr(nn, "_im2col", recording_im2col)
        monkeypatch.setattr(nn, "_col2im", checking_col2im)
        dy = np.ones(net.forward(x, record=True).shape, np.float32)
        assert len(patches) == 4
        net.backward(dy, input_grad=input_grad)
        assert len(summed) == (4 if input_grad else 3)
        assert all(ref() is None for ref in patches.values())


class TestAdam:
    def _layer_and_state(self, seed=17):
        rng = np.random.default_rng(seed)
        layer = nn.dense_layer(4, 2, rng=rng)
        params = [layer.weights, layer.bias]
        return layer, params, nn.AdamState.for_params(params)

    def test_zero_gradient_keeps_params(self):
        _, params, state = self._layer_and_state()
        before = [p.copy() for p in params]
        nn.adam_step(params, [np.zeros_like(p) for p in params], state)
        assert all(np.array_equal(b, p) for b, p in zip(before, params))
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        _, params, state = self._layer_and_state()
        before = params[0].copy()
        grads = [np.full_like(params[0], 0.3), np.zeros_like(params[1])]
        nn.adam_step(params, grads, state)
        delta = np.abs(before - params[0])
        assert np.allclose(delta, state.lr, rtol=1e-4)

    def test_deterministic_updates(self):
        runs = []
        for _ in range(2):
            layer, params, state = self._layer_and_state(seed=18)
            g = [np.full_like(params[0], 0.1), np.full_like(params[1], -0.2)]
            nn.adam_step(params, g, state)
            nn.adam_step(params, g, state)
            runs.append([p.copy() for p in params])
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_non_finite_gradient_aborts(self):
        _, params, state = self._layer_and_state()
        bad = [np.full_like(params[0], np.nan), np.zeros_like(params[1])]
        with pytest.raises(TrainingError, match="non-finite"):
            nn.adam_step(params, bad, state)
