"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The conditional-GAN
estimator is trained once (default task: 32x32 grid, smoothing 4, 1024
pairs at 10 dB, 50 epochs, fixed seeds) and shared by the learnability,
trend, and determinism criteria, so the whole suite stays inside its
runtime budgets on a single core.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from lammsc import cge, channel, codec, corpus, lkb, mma, nn, pipeline, semeval
from lammsc.mockserve import MockServer
from lammsc.wire import Endpoint

from helpers import check_grad
from test_mma import GARDEN_CAPTION, GARDEN_SCENE

ROWS = COLS = 32
SIGMA = 4.0
TRAIN_SNR = 10.0
PATTERN_SEED = 97
DATA_SEED = 1
TRAIN_SEED = 3
EVAL_SEED = 4242
CORPUS_SEED = 11
SWEEP_SEED = 2024
SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0)


def ok(name: str):
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def pattern():
    return channel.make_pilot_pattern(ROWS, COLS, 4, 4, seed=PATTERN_SEED)


@pytest.fixture(scope="module")
def trained(pattern, tmp_path_factory):
    pairs = cge.make_training_set(1024, ROWS, COLS, SIGMA, SIGMA, pattern,
                                  TRAIN_SNR, seed=DATA_SEED)
    start = time.time()
    model = cge.train_cgan(pairs, cge.TrainConfig(epochs=50), seed=TRAIN_SEED)
    elapsed = time.time() - start
    path = tmp_path_factory.mktemp("accept") / "cge_model.bin"
    cge.save_model(model, path)
    return {"model": model, "path": str(path), "train_seconds": elapsed}


def held_out(pattern, snr_db, count=100):
    """Paired held-out realizations: (condition, received grid, truth)."""
    rng = np.random.default_rng(pipeline.derive_seed(EVAL_SEED, f"{snr_db:g}"))
    frame = channel.insert_pilots(np.zeros((ROWS, COLS), np.complex64), pattern)
    items = []
    for _ in range(count):
        h = channel.gen_channel(int(rng.integers(2 ** 63)), ROWS, COLS, SIGMA,
                                SIGMA)
        y = channel.apply_channel(frame, h, snr_db, int(rng.integers(2 ** 63)))
        items.append((cge.make_condition(y, pattern), y, h.gains))
    return items


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        start = time.time()
        rng = np.random.default_rng(101)
        for kind in ("conv", "deconv", "dense"):
            for case in range(20):
                act = ("leaky_relu", "relu", "linear", "sigmoid")[case % 4]
                if kind == "dense":
                    layer = nn.dense_layer(6, 4, act, rng=rng)
                    x = (3.0 * rng.standard_normal((2, 6))).astype(np.float32)
                else:
                    make = nn.conv_layer if kind == "conv" else nn.deconv_layer
                    stride = (case % 2) + 1
                    layer = make(2, 3, 3, stride, 1, act, rng=rng)
                    x = (3.0 * rng.standard_normal((1, 2, 6, 6))).astype(np.float32)
                net = nn.Sequential([layer])
                probe = rng.standard_normal(net.forward(x).shape).astype(np.float32)

                def loss():
                    return float(np.sum(net.forward(x).astype(np.float64)
                                        * probe.astype(np.float64)))

                net.forward(x, record=True)
                dx, grads = net.backward(probe)
                check_grad(loss, grads[0], layer.weights, rng, n_coords=3,
                           eps=1e-3, tol=1e-2)
                check_grad(loss, grads[1], layer.bias, rng, n_coords=2,
                           eps=1e-3, tol=1e-2)
                check_grad(loss, dx, x, rng, n_coords=3, eps=1e-3, tol=1e-2)
        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        ok("1 gradient-suite")


class TestCriterion2ChannelStatistics:
    def test_rayleigh_and_power(self):
        start = time.time()
        h = channel.gen_channel(202, 320, 320).gains  # >= 1e5 i.i.d. cells
        ks = stats.kstest(np.abs(h).ravel(), "rayleigh",
                          args=(0.0, 1.0 / math.sqrt(2.0))).statistic
        assert ks < 0.02, f"KS distance {ks:.4f}"
        for seed in (1, 2, 3):
            g = channel.gen_channel(seed, ROWS, COLS, SIGMA, SIGMA).gains
            power = float(np.mean(np.abs(g.astype(np.complex128)) ** 2))
            assert 0.9 <= power <= 1.1
        elapsed = time.time() - start
        assert elapsed < 60.0, f"channel statistics took {elapsed:.1f}s"
        ok("2 channel-statistics")


class TestCriterion3Learnability:
    def test_learnability_and_dominance(self, trained, pattern):
        assert trained["train_seconds"] < 1800.0, \
            f"training took {trained['train_seconds']:.0f}s"
        model = trained["model"]
        untrained = cge.untrained_model(ROWS, COLS, seed=TRAIN_SEED)
        results = {}
        for snr in (5.0, 10.0):
            items = held_out(pattern, snr, count=100)
            cge_nmse = float(np.mean([channel.nmse(cge.estimate(model, c), truth)
                                      for c, _, truth in items]))
            ls_nmse = float(np.mean([channel.nmse(channel.ls_estimate(y, pattern),
                                                  truth)
                                     for _, y, truth in items]))
            results[snr] = (cge_nmse, ls_nmse)
            assert cge_nmse <= ls_nmse, \
                f"at {snr:g} dB: cge {cge_nmse:.4f} > ls {ls_nmse:.4f}"
        items10 = held_out(pattern, 10.0, count=100)
        untrained_nmse = float(np.mean(
            [channel.nmse(cge.estimate(untrained, c), truth)
             for c, _, truth in items10]))
        trained_nmse = results[10.0][0]
        assert trained_nmse < 0.5 * untrained_nmse, \
            f"trained {trained_nmse:.4f} vs untrained {untrained_nmse:.4f}"
        print(f"\n  nmse @5dB: cge={results[5.0][0]:.4f} ls={results[5.0][1]:.4f}"
              f" | @10dB: cge={results[10.0][0]:.4f} ls={results[10.0][1]:.4f}"
              f" untrained={untrained_nmse:.4f}")
        ok("3 cge-learnability-and-dominance")


class TestSerOrderingInvariant:
    """Equalization quality ordering on correlated fading (needs the model)."""

    def test_ser_perfect_le_cge_le_none(self, trained, pattern):
        model = trained["model"]
        rng = np.random.default_rng(333)
        text = "ordering check payload " * 6
        frames = codec.map_to_grid(codec.modulate(codec.tokenize(text)), pattern)
        sers = {"perfect": [], "cge": [], "none": []}
        for i in range(100):
            h = channel.gen_channel(int(rng.integers(2 ** 63)), ROWS, COLS,
                                    SIGMA, SIGMA)
            noise_seed = int(rng.integers(2 ** 63))
            frame = frames[i % len(frames)]
            y = channel.apply_channel(frame.grid, h, 10.0, noise_seed)
            sent = frame.extract(frame.grid)
            estimates = {
                "perfect": h.gains,
                "cge": cge.estimate(model, cge.make_condition(y, pattern)),
                "none": np.ones_like(h.gains),
            }
            for name, h_est in estimates.items():
                eq = codec.equalize(y, h_est, 0.1, "mmse")
                sers[name].append(codec.ser(sent, frame.extract(eq)))
        mean = {k: float(np.mean(v)) for k, v in sers.items()}
        assert mean["perfect"] <= mean["cge"] <= mean["none"], mean
        ok("ser-ordering-invariant")


class TestCriterion4Codec:
    @staticmethod
    def random_text(rng, size):
        chars = []
        while len(chars) < size:
            cp = int(rng.integers(1, 0x10000))
            if 0xD800 <= cp <= 0xDFFF:
                continue
            chars.append(chr(cp))
        return "".join(chars)

    def test_identity_on_random_strings(self, pattern):
        rng = np.random.default_rng(404)
        ones = np.ones((ROWS, COLS), np.complex64)
        sizes = rng.geometric(1.0 / 60.0, size=1000).clip(0, 3000)
        sizes[:5] = 3300  # ~10 kB of UTF-8 once encoded
        for i, size in enumerate(sizes):
            text = self.random_text(rng, int(size)) if size else ""
            ts = codec.tokenize(text)
            frames = codec.map_to_grid(codec.modulate(ts), pattern)
            received = []
            for frame in frames:
                y = channel.apply_channel(frame.grid, ones, channel.NO_NOISE)
                received.append(frame.extract(codec.equalize(y, ones, 0.0, "zf")))
            back = codec.detokenize(codec.demodulate(np.concatenate(received))[0])
            assert back == text, f"string {i} corrupted"
        ok("4a codec-identity")

    def test_qpsk_ser_closed_form(self):
        rng = np.random.default_rng(405)
        n = 10 ** 6
        sent = codec.hard_decide((rng.standard_normal(n)
                                  + 1j * rng.standard_normal(n)).astype(np.complex64))
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            * math.sqrt(0.1 / 2.0)
        received = sent + noise.astype(np.complex64)
        p_rail = float(stats.norm.sf(math.sqrt(10.0)))
        closed_ser = 1.0 - (1.0 - p_rail) ** 2
        measured = codec.ser(sent, received)
        assert closed_ser / 2.0 < measured < closed_ser * 2.0, \
            f"measured {measured:.3e} vs closed form {closed_ser:.3e}"
        ok("4b qpsk-ser-closed-form")


class TestCriterion5PersonalizationBytes:
    def test_extract_bytes(self):
        mike = lkb.Profile("Mike", aliases=["a boy"],
                           focus_keywords=["pose", "garden"])
        jane = lkb.Profile("Jane", aliases=["a girl"])
        out = lkb.personalize_extract(GARDEN_CAPTION, mike, jane)
        assert out == "Jane and me in a playful pose. The background is a garden."
        ok("5a extract-bytes")

    def test_recover_bytes(self):
        jane = lkb.Profile("Jane", aliases=["a girl"])
        out = lkb.personalize_recover(
            "Jane and I are playfully posing. The background is a garden",
            jane, "Mike")
        assert out == "Mike and I are playfully posing. The background is a garden"
        ok("5b recover-bytes")


class TestCriterion6MetricContract:
    def test_metric_contract(self):
        v = semeval.embed("the garden")
        assert semeval.cosine(v, v) == 1.0
        assert semeval.cosine(v, semeval.EmbeddingVector(-v.values)) == -1.0
        rng = np.random.default_rng(606)
        for _ in range(50):
            a, b = rng.standard_normal((2, semeval.DIM))
            assert -1.0 <= semeval.cosine(a, b) <= 1.0
        zero = semeval.embed("")
        assert semeval.cosine(zero, v) == 0.0
        assert semeval.cosine(zero, zero) == 0.0
        assert semeval.accuracy_from_scores([0.6], 0.6) == 0.0
        assert semeval.accuracy_from_scores([0.9, 0.7, 0.5, 0.3], 0.6) == 0.5
        scores = rng.uniform(-1, 1, 500).tolist()
        accs = [semeval.accuracy_from_scores(scores, t)
                for t in np.linspace(-1.0, 1.0, 41)]
        assert all(x >= y for x, y in zip(accs, accs[1:]))
        ok("6 metric-contract")


@pytest.fixture(scope="module")
def sweep_pair(trained):
    scenes = corpus.synthetic_corpus(200, seed=CORPUS_SEED)
    cfg = pipeline.PipelineConfig(
        rows=ROWS, cols=COLS, sigma_f=SIGMA, sigma_t=SIGMA,
        pilot_seed=PATTERN_SEED, snr_db=list(SNR_GRID),
        estimators=["perfect", "cge", "none"], master_seed=SWEEP_SEED,
        model_path=trained["path"])
    start = time.time()
    first = pipeline.sweep(cfg, scenes)
    second = pipeline.sweep(cfg, scenes)
    elapsed = time.time() - start
    return {"first": pipeline.format_report(first),
            "second": pipeline.format_report(second),
            "report": first, "seconds": elapsed}


class TestCriterion7Trend:
    def test_trend_and_ablation_ordering(self, sweep_pair):
        assert sweep_pair["seconds"] < 2 * 1200.0, \
            f"two sweeps took {sweep_pair['seconds']:.0f}s"
        rows = {(r.snr_db, r.estimator): r.accuracy
                for r in sweep_pair["report"].rows}
        cge_curve = [rows[(snr, "cge")] for snr in SNR_GRID]
        violations = [(a - b) for a, b in zip(cge_curve, cge_curve[1:]) if a > b]
        assert len(violations) <= 1, f"cge curve not monotone: {cge_curve}"
        assert all(v <= 0.02 for v in violations), \
            f"cge curve violation too large: {cge_curve}"
        for snr in SNR_GRID:
            perfect, mid, none = (rows[(snr, "perfect")], rows[(snr, "cge")],
                                  rows[(snr, "none")])
            assert perfect >= mid - 0.02, f"{snr} dB: perfect {perfect} < cge {mid}"
            assert mid >= none - 0.02, f"{snr} dB: cge {mid} < none {none}"
        print("\n  cge accuracy over snr:", [f"{a:.3f}" for a in cge_curve])
        ok("7 trend-and-ablation-ordering")


class TestCriterion8Determinism:
    def test_sweep_reports_byte_identical(self, sweep_pair, tmp_path):
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        p1.write_text(sweep_pair["first"], newline="")
        p2.write_text(sweep_pair["second"], newline="")
        assert p1.read_bytes() == p2.read_bytes()
        ok("8 sweep-determinism")


class TestCriterion9WireContracts:
    def test_wire_contracts_and_echo_equivalence(self):
        scenes = corpus.synthetic_corpus(3, seed=909)
        with MockServer() as server:
            ep = Endpoint(server.url, 5000, 1)
            canon = mma.canonical_scene(GARDEN_SCENE)
            assert mma.transform_remote(canon, "text", ep) == GARDEN_CAPTION
            assert mma.transform_remote(GARDEN_CAPTION, "image", ep) == canon
            profile = lkb.default_prompt_base().get("Mike")
            assert lkb.personalize_remote("echo me back", profile, "extract",
                                          ep) == "echo me back"
            local = semeval.embed("the background is a garden")
            remote = semeval.embed_remote("the background is a garden", ep)
            assert np.array_equal(local.values, remote.values)

            def fingerprints(cfg):
                cfg.validate()
                sender, receiver = pipeline.load_profiles(cfg)
                out = []
                for i, scene in enumerate(scenes):
                    rec = pipeline.run_pipeline(scene, cfg, sender, receiver,
                                                seed=pipeline.derive_seed(9, i))
                    out.append((rec.caption, rec.semantics, rec.reference_text,
                                rec.received_text, rec.recovered_text, rec.cosine))
                return out

            mock_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls",
                                               lkb_enabled=False)
            remote_cfg = pipeline.PipelineConfig(
                snr_db=[10.0], estimator="ls", mma_backend="remote",
                mma_endpoint=server.url, embed_backend="remote",
                embed_endpoint=server.url, lkb_backend="remote",
                lkb_endpoint=server.url)
            assert fingerprints(mock_cfg) == fingerprints(remote_cfg)
        ok("9 wire-contracts")
