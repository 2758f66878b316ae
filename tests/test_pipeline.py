import dataclasses
import hashlib
import itertools
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lammsc import cge, codec, corpus, pipeline, semeval
from lammsc.channel import MAX_SIGMA, NO_NOISE
from lammsc.errors import ConfigError, CorpusError, LamMscError
from lammsc.wire import MAX_TIMEOUT_MS

from helpers import reference_run_message


def lossless_cfg(**overrides):
    cfg = pipeline.PipelineConfig(snr_db=[NO_NOISE], estimator="perfect")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.validate()


@pytest.fixture(scope="module")
def profiles():
    cfg = lossless_cfg()
    return pipeline.load_profiles(cfg)


@pytest.fixture(scope="module")
def scenes():
    return corpus.synthetic_corpus(12, seed=5)


class TestConfig:
    def test_defaults_validate(self):
        pipeline.PipelineConfig().validate()

    def test_empty_snr_rejected(self):
        with pytest.raises(ConfigError, match="snr"):
            pipeline.PipelineConfig(snr_db=[]).validate()

    def test_cge_requires_model_path(self):
        with pytest.raises(ConfigError, match="model_path"):
            pipeline.PipelineConfig(estimator="cge").validate()

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="estimator"):
            pipeline.PipelineConfig(estimator="oracle").validate()

    def test_remote_backend_needs_endpoint(self):
        with pytest.raises(ConfigError, match="endpoint"):
            pipeline.PipelineConfig(mma_backend="remote").validate()
        # an endpoint must be an http:// or https:// URL with a host
        for stage in ("mma", "lkb", "embed"):
            for url in ("localhost:8099", "ftp://x", "http://"):
                with pytest.raises(ConfigError, match=f"^{stage} backend 'remote': "
                                                      f"endpoint must be"):
                    pipeline.PipelineConfig(**{f"{stage}_backend": "remote",
                                               f"{stage}_endpoint": url}).validate()

    @pytest.mark.parametrize("field, value", [
        ("timeout_ms", 0), ("timeout_ms", -5), ("retries", -1),
        ("sigma_f", -1.0), ("sigma_t", -0.5), ("sigma_f", 2 * MAX_SIGMA),
        ("sigma_t", 1e12), ("timeout_ms", MAX_TIMEOUT_MS + 1)])
    def test_out_of_range_numbers_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            pipeline.PipelineConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [
        ("sigma_f", math.nan), ("sigma_t", math.nan), ("sigma_f", math.inf),
        ("snr_db", [math.nan]), ("snr_db", [10.0, -math.inf])])
    def test_non_finite_numbers_rejected_before_any_work(self, field, value,
                                                         monkeypatch):
        cfg = pipeline.PipelineConfig(**{"snr_db": [10.0], "estimators": ["ls"],
                                         field: value})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()
        monkeypatch.setattr(pipeline, "load_profiles", None)  # no work at all
        with pytest.raises(ConfigError, match=field):
            pipeline.sweep(cfg, corpus.synthetic_corpus(2, seed=1))

    def test_inf_snr_is_no_noise(self):
        pipeline.PipelineConfig(snr_db=[NO_NOISE, 10.0]).validate()

    def test_snrs_sharing_a_report_key_rejected(self):
        """Two SNRs with the same 6-digit key would share a CSV row label,
        their draw seeds and their failure counts; exact duplicates collapse."""
        with pytest.raises(ConfigError, match="snr_db"):
            pipeline.PipelineConfig(snr_db=[10.0, 10.0000001]).validate()
        pipeline.PipelineConfig(snr_db=[10.0, 10.0, 10.0001]).validate()

    @pytest.mark.parametrize("df, dt, message", [
        (1, 1, "no data cell"), (0, 4, ">= 1"), (4, 0, ">= 1"), (64, 4, "exceed"),
        (4, 33, "exceed")])
    def test_pilot_lattice_rejected(self, df, dt, message):
        cfg = pipeline.PipelineConfig(pilot_df=df, pilot_dt=dt)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()
        with pytest.raises(ConfigError, match=message):
            cfg.pilot_pattern()

    @pytest.mark.parametrize("key, value", [
        ("rows", "32"), ("rows", 32.0), ("rows", True), ("sigma_f", "4"),
        ("lkb_enabled", 1), ("estimator", None), ("snr_db", 10.0),
        ("snr_db", ["loud"]), ("snr_db", [None]), ("estimators", "ls"),
        ("snr_db", [True]), ("snr_db", [10.0, False]), ("snr_db", [10 ** 400])])
    def test_wrong_json_type_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            pipeline.PipelineConfig.from_dict({key: value})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            pipeline.PipelineConfig.from_dict({"rows": 32, "wat": 1})

    def test_file_round_trip(self, tmp_path):
        cfg = pipeline.PipelineConfig(snr_db=[0.0, 10.0], estimator="ls",
                                      master_seed=9)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        loaded = pipeline.PipelineConfig.from_file(path)
        assert loaded == cfg

    def test_inf_snr_parses(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"snr_db": ["inf"]}')
        assert pipeline.PipelineConfig.from_file(path).snr_db == [float("inf")]


def config_dicts(model_path: str):
    """Up to 8 PipelineConfig keys, each with a JSON value of its field's type,
    over a config that sweeps every estimator with a 32x32 model.

    Grid extents and repetition come from small ranges to keep each sweep
    fast; that bound is on test time, not a claim about larger values. The
    backends are never 'remote', so the sweep stays in process."""
    real = st.floats(0.0, 20.0) | st.floats() | st.integers()
    by_type = {
        "int": st.integers(1, 6) | st.integers(),
        "float": real,
        "str": st.text(max_size=8),
        "bool": st.booleans(),
        "list[float]": st.lists(real | st.sampled_from(
            ["inf", "-inf", "nan", "10", "x", True]), max_size=3),
        "list[str] | None": st.none() | st.lists(
            st.sampled_from(pipeline.ESTIMATORS) | st.text(max_size=4), max_size=4),
    }
    fields = {f.name: by_type[f.type]
              for f in dataclasses.fields(pipeline.PipelineConfig)}
    local = st.just("mock") | st.text(max_size=8).filter(lambda s: s != "remote")
    fields.update(
        rows=st.just(32) | st.integers(-1, 20),
        cols=st.just(32) | st.integers(-1, 20),
        repetition=st.integers(-1, 3),
        estimator=st.sampled_from(pipeline.ESTIMATORS) | fields["estimator"],
        equalizer=st.sampled_from(["zf", "mmse"]) | fields["equalizer"],
        sender=st.just("Mike") | fields["sender"],
        receiver=st.just("Jane") | fields["receiver"],
        mma_backend=local, lkb_backend=local, embed_backend=local)
    return st.lists(st.sampled_from(sorted(fields)), max_size=8, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries(
            {"model_path": st.just(model_path),
             "estimators": st.just(list(pipeline.ESTIMATORS))}
            | {key: fields[key] for key in keys}))


@pytest.fixture(scope="module")
def model32_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("space") / "m32.cge"
    cge.save_model(cge.untrained_model(32, 32, seed=2), path)
    return str(path)


class TestConfigSpace:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_config_is_rejected_or_swept(self, data, model32_path, scenes):
        """from_dict -> validate() -> a one-scene sweep either raises from the
        error taxonomy or returns a report, with no RuntimeWarning."""
        raw = data.draw(config_dicts(model32_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                cfg = pipeline.PipelineConfig.from_dict(raw).validate()
                report = pipeline.sweep(cfg, scenes[:1])
            except LamMscError:
                return
        assert report.rows


class TestRunPipeline:
    def test_lossless_happy_path(self, profiles, scenes):
        sender, receiver = profiles
        cfg = lossless_cfg()
        for scene in scenes[:6]:
            rec = pipeline.run_pipeline(scene, cfg, sender, receiver)
            assert rec.error_stage is None
            assert rec.received_text == rec.semantics
            assert rec.recovered_text == rec.reference_text
            assert rec.cosine == 1.0
            assert rec.correct
            assert rec.ser == 0.0
            assert rec.recovered_payload is not None

    def test_lossless_accuracy_one_on_corpus(self, profiles, scenes):
        sender, receiver = profiles
        cfg = lossless_cfg()
        scores = [pipeline.run_pipeline(s, cfg, sender, receiver).cosine
                  for s in scenes]
        assert pipeline.semeval.accuracy_from_scores(scores, cfg.threshold) == 1.0

    def test_ideal_channel_flag(self, profiles, scenes):
        sender, receiver = profiles
        cfg = lossless_cfg(ideal_channel=True, estimator="none")
        rec = pipeline.run_pipeline(scenes[0], cfg, sender, receiver)
        assert rec.nmse == 0.0  # the all-ones estimate is exact
        assert rec.cosine == 1.0

    def test_text_payload_passthrough(self, profiles):
        sender, receiver = profiles
        cfg = lossless_cfg(lkb_enabled=False)
        rec = pipeline.run_pipeline("plain text payload", cfg, sender, receiver)
        assert rec.caption == "plain text payload"
        assert rec.recovered_text == "plain text payload"
        assert rec.cosine == 1.0

    def test_no_equalization_worse_than_perfect_csi(self, profiles, scenes):
        sender, receiver = profiles
        cfg = lossless_cfg(snr_db=[0.0])
        deltas = []
        for idx in range(50):
            scene = scenes[idx % len(scenes)]
            seed = pipeline.derive_seed(99, idx)
            perfect = pipeline.run_pipeline(scene, cfg, sender, receiver,
                                            snr_db=0.0, estimator="perfect",
                                            seed=seed)
            none = pipeline.run_pipeline(scene, cfg, sender, receiver,
                                         snr_db=0.0, estimator="none", seed=seed)
            deltas.append(perfect.cosine - none.cosine)
        assert float(np.mean(deltas)) > 0.0

    def test_unparseable_recovery_recorded_and_scored(self, profiles, scenes):
        sender, receiver = profiles
        cfg = lossless_cfg(snr_db=[-10.0])
        rec = pipeline.run_pipeline(scenes[1], cfg, sender, receiver,
                                    snr_db=-10.0, estimator="none",
                                    seed=pipeline.derive_seed(7, "garble"))
        assert rec.error_stage == "modal-recovery"
        assert rec.recovered_payload is None
        assert isinstance(rec.cosine, float)

    def test_record_carries_diagnostics(self, profiles, scenes):
        sender, receiver = profiles
        cfg = lossless_cfg(snr_db=[10.0], estimator="ls")
        rec = pipeline.run_pipeline(scenes[2], cfg, sender, receiver)
        assert rec.frame_ser and all(0.0 <= s <= 1.0 for s in rec.frame_ser)
        assert rec.nmse > 0.0
        assert {"modal-transform", "personalize-extract", "transmit",
                "personalize-recover", "modal-recovery",
                "scoring"} <= set(rec.timings)

    @pytest.mark.parametrize("changes, overrides, message", [
        ({"sigma_f": math.nan}, {}, "sigma_f"),
        ({}, {"snr_db": math.nan}, "snr_db"),
        ({}, {"estimator": "cge"}, "model_path")],
        ids=["nan-sigma", "nan-snr-override", "cge-override-without-model"])
    def test_invalid_setup_raises_before_any_stage(self, profiles, scenes,
                                                   monkeypatch, changes,
                                                   overrides, message):
        cfg = dataclasses.replace(lossless_cfg(), **changes)
        monkeypatch.setattr(pipeline, "_run_message", None)  # a call would raise
        with pytest.raises(ConfigError, match=message):
            pipeline.run_pipeline(scenes[0], cfg, *profiles, **overrides)

    def test_runs_the_first_listed_arm(self, profiles, scenes):
        cfg = lossless_cfg(estimators=["ls", "none"])
        assert cfg.arms() == ["ls", "none"]
        rec = pipeline.run_pipeline(scenes[0], cfg, *profiles)
        assert rec.estimator == "ls"
        assert pipeline.run_pipeline(scenes[0], cfg, *profiles,
                                     estimator="none").estimator == "none"

    def test_deterministic_records(self, profiles, scenes):
        sender, receiver = profiles
        cfg = lossless_cfg(snr_db=[5.0], estimator="ls")
        a = pipeline.run_pipeline(scenes[3], cfg, sender, receiver, seed=42)
        b = pipeline.run_pipeline(scenes[3], cfg, sender, receiver, seed=42)
        assert a.recovered_text == b.recovered_text
        assert a.cosine == b.cosine
        assert a.ser == b.ser


class TestSweep:
    def test_row_grid(self, scenes):
        cfg = pipeline.PipelineConfig(snr_db=[0, 5, 10, 15, 20],
                                      estimators=["perfect", "none"])
        report = pipeline.sweep(cfg, scenes[:3])
        assert len(report.rows) == 10
        keys = [(r.snr_db, r.estimator) for r in report.rows]
        assert keys == sorted(keys)
        assert all(0.0 <= r.accuracy <= 1.0 for r in report.rows)
        assert all(r.n == 3 for r in report.rows)

    def test_identical_seed_identical_bytes(self, scenes):
        def run():
            cfg = pipeline.PipelineConfig(snr_db=[0, 10], estimators=["perfect"],
                                          master_seed=31)
            return pipeline.format_report(pipeline.sweep(cfg, scenes[:4]))
        assert run() == run()

    def test_different_seed_differs(self, scenes):
        def run(seed):
            cfg = pipeline.PipelineConfig(snr_db=[10], estimators=["ls"],
                                          master_seed=seed)
            return pipeline.format_report(pipeline.sweep(cfg, scenes[:4]))
        assert run(1) != run(2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError, match="corpus"):
            pipeline.sweep(pipeline.PipelineConfig(), [])


@pytest.fixture(scope="module")
def multiframe_cfg(tmp_path_factory):
    """16x16 grids at repetition 2: every caption spans several frames."""
    path = tmp_path_factory.mktemp("model") / "m16.cge"
    cge.save_model(cge.untrained_model(16, 16, seed=1), path)
    return pipeline.PipelineConfig(
        rows=16, cols=16, repetition=2, equalizer="mmse",
        snr_db=[-3.0, 10.0, NO_NOISE], estimators=list(pipeline.ESTIMATORS),
        model_path=str(path)).validate()


class TestPerMessagePass:
    """Text stages run once per message, the channel once per (message, SNR),
    and the arms share that draw."""

    def test_multiframe_sweep_csv_pinned(self, scenes, multiframe_cfg):
        csv = pipeline.format_report(pipeline.sweep(multiframe_cfg, scenes))
        # sha256 taken when sweep still ran one full transmission per
        # (snr, arm, message)
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == (
            "22b98c9e6b7f2f63c0ce6ae08a1a9dde2a5f87b9b0fc38c81305428b855ab5dc")

    def test_stage_call_counts(self, monkeypatch, scenes, multiframe_cfg):
        calls = Counter()
        frames_per_message = []

        def counted(name):
            fn = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        map_to_grid = codec.map_to_grid

        def framing(*args):
            frames = map_to_grid(*args)
            frames_per_message.append(len(frames))
            return frames

        for name in ("scene_to_text", "personalize_extract", "gen_channel"):
            monkeypatch.setattr(pipeline, name, counted(name))
        monkeypatch.setattr(codec, "map_to_grid", framing)
        messages = scenes[:3]
        report = pipeline.sweep(multiframe_cfg, messages)
        assert len(report.rows) == 3 * 4
        assert calls["scene_to_text"] == len(messages)
        assert calls["personalize_extract"] == len(messages)
        assert len(frames_per_message) == len(messages)
        assert sum(frames_per_message) > len(messages)  # several frames each
        assert calls["gen_channel"] == 3 * sum(frames_per_message)

    def test_one_cge_batch_and_reference_embed_per_message(
            self, monkeypatch, scenes, multiframe_cfg):
        batches, embeds = [], Counter()
        estimate, embed = cge.estimate, semeval.embed

        def counted_estimate(model, condition):
            batches.append(len(condition))
            return estimate(model, condition)

        def counted_embed(text):
            embeds["calls"] += 1
            return embed(text)

        map_to_grid = codec.map_to_grid
        frames_per_message = []

        def framing(*args):
            frames = map_to_grid(*args)
            frames_per_message.append(len(frames))
            return frames

        monkeypatch.setattr(cge, "estimate", counted_estimate)
        monkeypatch.setattr(semeval, "embed", counted_embed)
        monkeypatch.setattr(codec, "map_to_grid", framing)
        messages = scenes[:3]
        pipeline.sweep(multiframe_cfg, messages)
        snrs, arms = len(multiframe_cfg.snr_db), len(multiframe_cfg.estimators)
        assert batches == [snrs * f for f in frames_per_message]
        assert embeds["calls"] == len(messages) + len(messages) * snrs * arms

    @pytest.mark.parametrize("text", [None, "\ud800 not encodable"],
                             ids=["scene", "transmit-error"])
    def test_paired_arms_match_single_runs(self, profiles, scenes, multiframe_cfg,
                                           text):
        cfg, payload = multiframe_cfg, scenes[4]
        if text is not None:  # reaches the codec unchanged, which cannot encode it
            cfg, payload = dataclasses.replace(cfg, lkb_enabled=False), text
        draws = [(snr, pipeline.derive_seed(3, snr)) for snr in cfg.snr_db]
        paired = pipeline._run_message(
            payload, cfg, pipeline._bind_stages(cfg, *profiles),
            cfg.pilot_pattern(), cge.load_model(cfg.model_path), draws,
            cfg.estimators)
        single = [pipeline.run_pipeline(payload, cfg, *profiles, snr_db=snr,
                                        estimator=est, seed=seed)
                  for snr, seed in draws for est in cfg.estimators]
        assert len(paired) == len(single) == 3 * 4

        assert ([without_timings(r) for r in paired]
                == [without_timings(r) for r in single])
        if text is not None:  # a shared-stage error reaches every arm
            assert {r.error_stage for r in paired} == {"transmit"}


def without_timings(rec):
    out = dataclasses.asdict(rec)
    out["timings"] = list(out["timings"])
    return out


@pytest.fixture(scope="module")
def model16_path(multiframe_cfg):
    return multiframe_cfg.model_path


class TestStackedPass:
    """One stacked pass per message gives every record exactly what the
    per-record receive gave it."""

    @given(repetition=st.integers(1, 3), equalizer=st.sampled_from(["zf", "mmse"]),
           ideal=st.booleans(), lkb=st.booleans(),
           snrs=st.lists(st.sampled_from([NO_NOISE, -3.0, 0.0, 10.0, 30.0])
                         | st.floats(-10.0, 40.0), min_size=1, max_size=3),
           payload=st.integers(0, 11) | st.sampled_from(
               ["", "short", "\ud800 not encodable", "long text " * 40]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_per_record_reference(self, profiles, scenes, model16_path,
                                          repetition, equalizer, ideal, lkb, snrs,
                                          payload, seed):
        cfg = pipeline.PipelineConfig(
            rows=16, cols=16, repetition=repetition, equalizer=equalizer,
            ideal_channel=ideal, lkb_enabled=lkb, snr_db=snrs,
            estimators=list(pipeline.ESTIMATORS), model_path=model16_path).validate()
        payload = scenes[payload] if isinstance(payload, int) else payload
        draws = [(snr, pipeline.derive_seed(seed, i)) for i, snr in enumerate(snrs)]
        args = (payload, cfg, pipeline._bind_stages(cfg, *profiles), cfg.pilot_pattern(),
                cge.load_model(cfg.model_path), draws, cfg.estimators)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stacked = pipeline._run_message(*args)
            reference = reference_run_message(*args)
        fields = ("received_text", "frame_ser", "nmse", "ser", "flags", "error_stage",
                  "error_message", "recovered_text", "cosine")
        assert ([[getattr(r, f) for f in fields] for r in stacked]
                == [[getattr(r, f) for f in fields] for r in reference])

    def test_failed_cge_batch_lands_on_cge_records_only(
            self, monkeypatch, profiles, scenes, multiframe_cfg):
        cfg = multiframe_cfg
        draws = [(snr, pipeline.derive_seed(9, snr)) for snr in cfg.snr_db]

        def run():
            return pipeline._run_message(
                scenes[2], cfg, pipeline._bind_stages(cfg, *profiles),
                cfg.pilot_pattern(), cge.load_model(cfg.model_path), draws,
                cfg.estimators)

        clean = run()

        def down(model, condition):
            raise LamMscError("cge down")

        monkeypatch.setattr(cge, "estimate", down)
        failed = run()
        assert len(failed) == len(clean) == 3 * 4
        for rec, ok in zip(failed, clean):
            if rec.estimator == "cge":
                assert (rec.error_stage, rec.error_message) == ("transmit", "cge down")
                assert not rec.frame_ser and rec.received_text == ""
            else:
                assert without_timings(rec) == without_timings(ok)

    def test_stacked_pass_time_is_shared(self, monkeypatch, profiles, scenes,
                                         multiframe_cfg):
        """Every call is charged in equal shares to the records that share
        it: on a clock that ticks once per reading, each call takes one tick,
        and each stage's timings summed over the records are its ticks."""
        clock = itertools.count()
        monkeypatch.setattr(pipeline.time, "perf_counter", lambda: float(next(clock)))
        cfg = multiframe_cfg
        records = pipeline._run_message(
            scenes[3], cfg, pipeline._bind_stages(cfg, *profiles), cfg.pilot_pattern(),
            cge.load_model(cfg.model_path),
            [(snr, pipeline.derive_seed(4, snr)) for snr in cfg.snr_db], cfg.estimators)
        assert len(records) == 12
        ticks = {"modal-transform": 1, "personalize-extract": 1, "reference": 1,
                 # framing, 3 draws, 4 arm estimates and the stacked pass
                 "transmit": 1 + 3 + 4 + 1,
                 "personalize-recover": 12, "modal-recovery": 12,
                 # the reference embedding, then each record's own
                 "scoring": 1 + 12}
        assert {stage: sum(r.timings[stage] for r in records) for stage in ticks} == {
            stage: pytest.approx(n) for stage, n in ticks.items()}
        for rec in records:
            # framing over 12, the draw over its 4 arms, the arm's estimate
            # over its 3 draws and the stacked pass over 12
            assert rec.timings["transmit"] == 1 / 12 + 1 / 4 + 1 / 3 + 1 / 12
            assert rec.timings["scoring"] == 1 / 12 + 1

    def test_failed_ls_call_runs_once(self, monkeypatch, profiles, scenes,
                                      multiframe_cfg):
        """A failing LS estimate is called once per message and lands on every
        ls record; the other arms are as in a run where it works."""
        cfg = multiframe_cfg
        draws = [(snr, pipeline.derive_seed(6, snr)) for snr in cfg.snr_db]

        def run():
            return pipeline._run_message(
                scenes[5], cfg, pipeline._bind_stages(cfg, *profiles),
                cfg.pilot_pattern(), cge.load_model(cfg.model_path), draws,
                cfg.estimators)

        clean, calls = run(), Counter()

        def down(ys, pattern):
            calls["ls"] += 1
            raise ValueError("ls down")

        monkeypatch.setattr(pipeline, "ls_estimate", down)
        failed = run()
        assert calls["ls"] == 1
        assert len(failed) == len(clean) == 3 * 4
        for rec, ok in zip(failed, clean):
            if rec.estimator == "ls":
                assert (rec.error_stage, rec.error_message) == ("transmit", "ls down")
                assert not rec.frame_ser and rec.received_text == ""
            else:
                assert without_timings(rec) == without_timings(ok)

    def test_failed_reference_embedding_runs_once(self, profiles, scenes,
                                                  multiframe_cfg):
        """A failing reference embedding is called once, no record's text is
        embedded after it, and it lands at scoring on each record that had no
        earlier error; earlier errors are kept."""
        cfg = multiframe_cfg
        draws = [(snr, pipeline.derive_seed(2, snr)) for snr in cfg.snr_db]
        stages = pipeline._bind_stages(cfg, *profiles)
        args = (cfg.pilot_pattern(), cge.load_model(cfg.model_path), draws,
                cfg.estimators)
        clean, calls = pipeline._run_message(scenes[0], cfg, stages, *args), Counter()

        def down(text):
            calls["embed"] += 1
            raise LamMscError("embed down")

        failed = pipeline._run_message(scenes[0], cfg, (*stages[:4], down), *args)
        assert calls["embed"] == 1
        earlier = [ok.error_stage for ok in clean if ok.error_stage]
        assert earlier and len(earlier) < len(clean)  # both kinds occur
        for rec, ok in zip(failed, clean):
            assert rec.cosine == 0.0
            if ok.error_stage is None:
                assert (rec.error_stage, rec.error_message) == ("scoring", "embed down")
            else:
                assert (rec.error_stage, rec.error_message) == (ok.error_stage,
                                                                ok.error_message)


class TestFailures:
    """A failed transmit is not a perfect estimate, and a bug says where it
    happened."""

    def test_failed_transmit_left_out_of_nmse_and_ser(self, profiles, scenes,
                                                      multiframe_cfg):
        # lkb off, so the surrogate reaches the codec, which cannot encode it
        cfg = dataclasses.replace(multiframe_cfg, lkb_enabled=False)
        messages = [scenes[0], "\ud800 not encodable", scenes[1]]
        report = pipeline.sweep(cfg, messages)
        for row in report.rows:
            recs = [pipeline.run_pipeline(
                payload, cfg, *profiles, snr_db=row.snr_db, estimator=row.estimator,
                seed=pipeline.derive_seed(cfg.master_seed, idx,
                                          pipeline._snr_key(row.snr_db)))
                for idx, payload in enumerate(messages)]
            assert recs[1].error_stage == "transmit" and not recs[1].frame_ser
            assert row.mean_nmse == float(np.mean([recs[0].nmse, recs[2].nmse]))
            assert row.mean_ser == float(np.mean([recs[0].ser, recs[2].ser]))
            assert row.mean_cosine == float(np.mean([r.cosine for r in recs]))
            assert row.accuracy == sum(r.correct for r in recs) / 3
            assert row.n == 3

    def test_cell_without_estimate_reports_nan(self, multiframe_cfg):
        cfg = dataclasses.replace(multiframe_cfg, lkb_enabled=False)
        report = pipeline.sweep(cfg, ["\ud800 not encodable"])
        lines = pipeline.format_report(report).splitlines()[1:]
        assert len(lines) == 3 * 4
        for line in lines:
            assert line.split(",")[4:] == ["nan", "nan", "1"]

    def test_failures_counted_by_stage(self, multiframe_cfg):
        cfg = dataclasses.replace(multiframe_cfg, lkb_enabled=False)
        report = pipeline.sweep(cfg, ["\ud800 not encodable"])
        assert report.failures == {
            f"{pipeline._snr_key(snr)}/{est}/transmit": 1
            for snr in cfg.snr_db for est in cfg.estimators}

    @pytest.mark.parametrize("owner, name, per_message, stage", [
        (pipeline, "scene_to_text", 1, "modal-transform"),
        (cge, "estimate", 1, "transmit"),
        (semeval, "embed", 1 + 3 * 4, "scoring"),
        (codec, "demodulate", 1, "transmit")],
        ids=["caption", "cge-batch", "reference-embed", "stacked-pass"])
    def test_stage_bug_raised_with_notes(self, monkeypatch, scenes, multiframe_cfg,
                                         owner, name, per_message, stage):
        original, calls = getattr(owner, name), Counter()

        def buggy(*args):
            calls["n"] += 1
            if calls["n"] > per_message:  # the second message's first call
                raise ZeroDivisionError("bug")
            return original(*args)

        monkeypatch.setattr(owner, name, buggy)
        with pytest.raises(ZeroDivisionError) as info:
            pipeline.sweep(multiframe_cfg, scenes[:3])
        assert info.value.__notes__ == [f"in pipeline stage {stage!r}",
                                        "in sweep message 1"]


def failing(after: int = 0):
    """A stage that passes its text through for ``after`` calls, then raises."""
    calls = Counter()

    def stage(text, *args):
        calls["n"] += 1
        if calls["n"] > after:
            raise LamMscError("stage down")
        return text

    return stage


class TestScoresCannotFlatter:
    """A record whose text was not sent, not received or not scored is never
    correct, whatever the threshold."""

    def test_unsent_message_counts_zero(self):
        cfg = pipeline.PipelineConfig(snr_db=[10.0], estimators=["perfect"],
                                      lkb_enabled=False, threshold=-0.5)
        report = pipeline.sweep(cfg, ["\ud800 not encodable"])
        assert report.failures == {"10/perfect/transmit": 1}
        assert [(row.accuracy, row.mean_cosine) for row in report.rows] == [(0.0, 0.0)]

    # (stage index in the bound stages, failing stage, first error stage, sent)
    @pytest.mark.parametrize("index, stage, first, correct", [
        (None, None, None, True),
        (0, failing(), "modal-transform", False),
        (2, failing(), "personalize-extract", False),
        (4, failing(), "scoring", False),
        (1, failing(), "modal-recovery", True)],
        ids=["clean", "caption", "extract", "reference-embed", "recovery-only"])
    def test_record_correct_only_when_sent_received_and_scored(
            self, profiles, scenes, index, stage, first, correct):
        cfg = lossless_cfg(threshold=-0.5)
        stages = list(pipeline._bind_stages(cfg, *profiles))
        if index is not None:
            stages[index] = stage
        rec, = pipeline._run_message(scenes[0], cfg, stages, cfg.pilot_pattern(),
                                     None, [(NO_NOISE, 1)], ["perfect"])
        assert rec.error_stage == first
        assert rec.cosine > cfg.threshold
        assert rec.correct is correct

    def test_later_errors_also_block_correct(self, monkeypatch, profiles, scenes):
        """A first error at a harmless stage does not hide a later failed
        transmit or a later failed scoring."""
        cfg = lossless_cfg(threshold=-0.5)
        caption, to_payload, extract, recover, embed = pipeline._bind_stages(
            cfg, *profiles)
        args = (cfg.pilot_pattern(), None, [(NO_NOISE, 1)], ["perfect"])

        def down(*_):
            raise LamMscError("draw down")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_draw_channel", down)
            rec, = pipeline._run_message(scenes[0], cfg, (
                caption, to_payload, extract, failing(), embed), *args)
        assert rec.error_stage == "reference" and not rec.frame_ser
        assert rec.cosine > cfg.threshold and not rec.correct
        rec, = pipeline._run_message(scenes[0], cfg, (
            caption, failing(), extract, recover, failing(after=1)), *args)
        assert rec.error_stage == "modal-recovery" and rec.frame_ser
        assert rec.cosine == 0.0 and not rec.correct


class TestAtomicWrites:
    """A writer that fails partway leaves the old file and no temporary file."""

    @staticmethod
    def corpus_writer(path, bad):
        scenes = corpus.synthetic_corpus(3, seed=2)
        corpus.save_corpus(path, scenes + [None] if bad else scenes)

    @staticmethod
    def report_writer(path, bad):
        rows = [pipeline.SweepRow(0.0, "ls", 0.5, 0.5, 0.1, 0.01, 2)]
        if bad:
            rows.append(pipeline.SweepRow("loud", "ls", 0.5, 0.5, 0.1, 0.01, 2))
        pipeline.write_report(pipeline.SweepReport(rows), path)

    @pytest.mark.parametrize("writer", ["corpus_writer", "report_writer"])
    def test_failed_write_keeps_old_file(self, tmp_path, writer):
        write = getattr(self, writer)
        path = tmp_path / "out"
        write(path, bad=False)
        before = path.read_bytes()
        with pytest.raises((TypeError, AttributeError, ValueError, LamMscError)):
            write(path, bad=True)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestModelExtents:
    @pytest.fixture()
    def model_16(self, tmp_path):
        path = tmp_path / "m16.cge"
        cge.save_model(cge.untrained_model(16, 16, seed=1), path)
        return str(path)

    def test_sweep_rejects_model_for_another_grid(self, scenes, model_16):
        cfg = pipeline.PipelineConfig(snr_db=[10.0], estimators=["cge", "ls"],
                                      model_path=model_16)
        with pytest.raises(ConfigError, match="16x16"):
            pipeline.sweep(cfg, scenes[:2])

    def test_run_rejects_model_for_another_grid(self, profiles, scenes, model_16):
        cfg = lossless_cfg(estimator="cge", model_path=model_16)
        with pytest.raises(ConfigError, match="32x32"):
            pipeline.run_pipeline(scenes[0], cfg, *profiles)


class TestReport:
    def make_report(self, scenes):
        cfg = pipeline.PipelineConfig(snr_db=[0, 5, 10, 15, 20],
                                      estimators=["perfect", "none"])
        return pipeline.sweep(cfg, scenes[:2])

    def test_header_and_line_count(self, tmp_path, scenes):
        report = self.make_report(scenes)
        path = tmp_path / "report.csv"
        pipeline.write_report(report, path)
        lines = path.read_text().split("\n")
        assert lines[0] == pipeline.REPORT_HEADER
        assert len(lines) == 12  # header + 10 rows + trailing newline
        assert lines[-1] == ""

    def test_rewrite_byte_identical(self, tmp_path, scenes):
        report = self.make_report(scenes)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pipeline.write_report(report, p1)
        pipeline.write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_accuracy_column_in_range(self, tmp_path, scenes):
        report = self.make_report(scenes)
        path = tmp_path / "report.csv"
        pipeline.write_report(report, path)
        for line in path.read_text().splitlines()[1:]:
            acc = float(line.split(",")[2])
            assert 0.0 <= acc <= 1.0


class TestCorpus:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CorpusError, match="empty"):
            corpus.load_corpus(path)

    def test_round_trip_order_and_duplicates(self, tmp_path):
        scenes = corpus.synthetic_corpus(10, seed=8)
        scenes.append(scenes[0])  # duplicate survives
        path = tmp_path / "c.jsonl"
        corpus.save_corpus(path, scenes)
        loaded = corpus.load_corpus(path)
        assert loaded == scenes

    def test_malformed_line_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = corpus.synthetic_corpus(1, seed=9)
        corpus.save_corpus(path, good)
        path.write_text(path.read_text() + "this is not json\n")
        with pytest.raises(CorpusError, match=":2"):
            corpus.load_corpus(path)

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        corpus.save_corpus(path, corpus.synthetic_corpus(1, seed=9))
        path.write_text(path.read_text()
                        + '{"backgroud": "a garden", "entities": [["a boy", []]]}\n')
        with pytest.raises(CorpusError,
                           match=r":2: unknown scene record keys: \['backgroud'\]"):
            corpus.load_corpus(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(CorpusError, match="cannot read corpus"):
            corpus.load_corpus(path)

    def test_200_line_corpus(self, tmp_path):
        scenes = corpus.synthetic_corpus(200, seed=10)
        path = tmp_path / "c.jsonl"
        corpus.save_corpus(path, scenes)
        assert len(corpus.load_corpus(path)) == 200

    def test_generation_deterministic(self):
        assert corpus.synthetic_corpus(20, seed=4) == corpus.synthetic_corpus(20, seed=4)


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        a = pipeline.derive_seed(1, 0, "10")
        assert a == pipeline.derive_seed(1, 0, "10")
        assert a != pipeline.derive_seed(1, 1, "10")
        assert a != pipeline.derive_seed(2, 0, "10")
        assert 0 <= a < 2 ** 64
