"""End-to-end orchestration of the five workflow steps.

A transmission runs payload -> caption -> personalized semantics ->
QPSK frames -> fading channel -> gain estimation -> equalization ->
demodulation -> receiver personalization -> payload, recording every
intermediate. Both `run_pipeline` and `sweep` go through one per-message
pass: the text stages (caption, extract, reference) and the framing run once
per message; channel and noise are drawn once per (message, snr) and shared
by every estimator arm. Each arm's gains are then estimated once for every
draw: LS in one `ls_estimate` call, CGE in one `cge.estimate` batch. One
stacked receive then takes every record with an estimate through
equalization, data-cell extraction, symbol error rates, NMSE and decoding
as a (draws, arms, frames, rows, cols) stack, with the truth and received
grids entering once per draw and every sum running over one record's own
grid. The receiver text stages run per record, and the reference text is
embedded once per message.

Timings and errors: one rule covers every call whose result several records
share. It runs once; its error lands on each of those records that has no
earlier error, at the call's stage, and each is charged an equal share of its
wall time. So each stage's timings, summed over a message's records, are the
time that stage took. An arm whose estimate failed is left out of the stacked
receive. An error outside (LamMscError, ValueError) is a bug and is re-raised
with the note ``in pipeline stage '<stage>'`` (``sweep`` adds ``in sweep
message i``). `run_pipeline` is the pass with one draw and one arm. A sweep
seeds each (message, snr) draw from the master seed, so the whole run is a
pure function of (config, corpus, master seed).
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import cge, codec, semeval
from .channel import (MAX_SIGMA, MIN_SNR_DB, NO_NOISE, PilotPattern, apply_channel,
                      gen_channel, ls_estimate, make_pilot_pattern, nmse,
                      noise_variance)
from .errors import ConfigError, LamMscError
from .fileio import atomic_open, json_object
from .lkb import (Profile, default_prompt_base, load_prompt_base,
                  personalize_extract, personalize_recover, personalize_remote)
from .mma import ScenePayload, scene_to_text, text_to_scene, transform_remote
from .wire import MAX_TIMEOUT_MS, Endpoint

ESTIMATORS = ("perfect", "cge", "ls", "none")
BACKENDS = ("mock", "remote")
REPORT_HEADER = "snr_db,estimator,accuracy,mean_cosine,mean_nmse,mean_ser,n"
# a record whose first error is at one of these stages had no text sent
_UNSENT = ("modal-transform", "personalize-extract", "transmit")
# JSON types a config value may have, by PipelineConfig field annotation
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
               "list[float]": list, "list[str] | None": (list, type(None))}


@dataclass
class PipelineConfig:
    rows: int = 32
    cols: int = 32
    pilot_df: int = 4
    pilot_dt: int = 4
    pilot_seed: int = 97
    sigma_f: float = 4.0
    sigma_t: float = 4.0
    snr_db: list[float] = field(default_factory=lambda: [10.0])
    repetition: int = 1
    estimator: str = "perfect"
    estimators: list[str] | None = None  # arms; see arms()
    equalizer: str = "zf"
    mma_backend: str = "mock"
    lkb_backend: str = "mock"
    embed_backend: str = "mock"
    lkb_enabled: bool = True
    mma_endpoint: str = ""
    lkb_endpoint: str = ""
    embed_endpoint: str = ""
    timeout_ms: int = 5000
    retries: int = 1
    master_seed: int = 1
    threshold: float = 0.6
    sender: str = "Mike"
    receiver: str = "Jane"
    prompt_base_path: str = ""
    model_path: str = ""
    corpus_path: str = ""
    ideal_channel: bool = False

    def validate(self):
        if self.rows < 4 or self.cols < 4:
            raise ConfigError(f"grid must be at least 4x4, got "
                              f"{self.rows}x{self.cols}")
        if not self.snr_db:
            raise ConfigError("snr_db list must be non-empty")
        if not all(MIN_SNR_DB <= snr <= NO_NOISE for snr in self.snr_db):
            raise ConfigError(f"snr_db entries must be inf (no noise) or finite "
                              f"and >= {MIN_SNR_DB:.6g} dB, where the noise power "
                              f"is a finite float32; got {self.snr_db}")
        if len({_snr_key(snr) for snr in set(self.snr_db)}) < len(set(self.snr_db)):
            raise ConfigError(f"snr_db entries {self.snr_db} collide at 6 digits")
        if self.repetition < 1:
            raise ConfigError("repetition must be >= 1")
        self.pilot_pattern()
        if not (0 <= self.sigma_f <= MAX_SIGMA and 0 <= self.sigma_t <= MAX_SIGMA):
            raise ConfigError(f"smoothing stds sigma_f and sigma_t must lie in "
                              f"[0, {MAX_SIGMA:g}]")
        if not 0 < self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ConfigError(f"timeout_ms must lie in 1..{MAX_TIMEOUT_MS}, "
                              f"got {self.timeout_ms}")
        if self.retries < 0:
            raise ConfigError(f"retries must be non-negative, got {self.retries}")
        if not -1.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must lie in [-1, 1]")
        if self.equalizer not in ("zf", "mmse"):
            raise ConfigError(f"unknown equalizer {self.equalizer!r}")
        arms = self.arms()
        for est in arms:
            if est not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {est!r} "
                                  f"(expected one of {ESTIMATORS})")
        if "cge" in arms and not self.model_path:
            raise ConfigError("estimator 'cge' requires model_path")
        for stage, backend, endpoint in (
                ("mma", self.mma_backend, self.mma_endpoint),
                ("lkb", self.lkb_backend, self.lkb_endpoint),
                ("embed", self.embed_backend, self.embed_endpoint)):
            if backend not in BACKENDS:
                raise ConfigError(f"{stage} backend must be one of {BACKENDS}, "
                                  f"got {backend!r}")
            if backend == "remote":
                try:
                    Endpoint(endpoint)
                except ValueError as exc:
                    raise ConfigError(f"{stage} backend 'remote': {exc}") from exc
        return self

    def arms(self) -> list[str]:
        """The estimator arms: ``estimators`` when non-empty, else [estimator].
        A sweep runs them all; ``run_pipeline`` runs the first."""
        return self.estimators or [self.estimator]

    def pilot_pattern(self) -> PilotPattern:
        """The pilot lattice; spacings outside [1, extent] or a lattice that
        leaves no data cell raise ConfigError."""
        try:
            pattern = make_pilot_pattern(self.rows, self.cols, self.pilot_df,
                                         self.pilot_dt, self.pilot_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if pattern.data_indices().size == 0:
            raise ConfigError(f"pilot spacings ({self.pilot_df}, {self.pilot_dt}) "
                              f"leave no data cell")
        return pattern

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        types = {name: f.type for name, f in cls.__dataclass_fields__.items()}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if (not isinstance(value, _JSON_TYPES[types[key]])
                    or isinstance(value, bool) != (types[key] == "bool")):
                raise ConfigError(f"config key {key!r} must be a JSON "
                                  f"{types[key]}, got {value!r}")
        cfg = cls(**data)
        if any(isinstance(s, bool) for s in cfg.snr_db):
            raise ConfigError(f"config key 'snr_db' holds a bool: {cfg.snr_db!r}")
        try:
            cfg.snr_db = [float(s) for s in cfg.snr_db]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key 'snr_db': {exc}") from exc
        if cfg.estimators is not None:
            cfg.estimators = [str(e) for e in cfg.estimators]
        return cfg

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            with open(path, "rb") as fh:
                data = json_object(fh.read(), str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # or a NUL byte in the path
            raise ConfigError(str(exc)) from exc
        return cls.from_dict(data)


@dataclass
class TransmissionRecord:
    input_payload: object
    caption: str = ""
    semantics: str = ""
    reference_text: str = ""
    received_text: str = ""
    recovered_text: str = ""
    recovered_payload: object = None
    cosine: float = 0.0
    correct: bool = False
    # frame_ser, ser and nmse are set together by the stacked receive; an
    # empty frame_ser means the record's transmit stage failed
    frame_ser: list = field(default_factory=list)
    ser: float = 0.0
    nmse: float = 0.0
    snr_db: float = 0.0
    estimator: str = ""
    seed: int = 0
    timings: dict = field(default_factory=dict)
    error_stage: str | None = None
    error_message: str = ""
    flags: list = field(default_factory=list)


@dataclass
class SweepRow:
    snr_db: float
    estimator: str
    accuracy: float
    mean_cosine: float
    mean_nmse: float
    mean_ser: float
    n: int


@dataclass
class SweepReport:
    rows: list
    failures: dict = field(default_factory=dict)  # "snr/estimator/stage" -> count


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labeled parts."""
    blob = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


def _snr_key(snr_db: float) -> str:
    return "inf" if snr_db == NO_NOISE else f"{snr_db:.6g}"


# ---------------------------------------------------------------------------
# stage backends

def _passthrough(text: str) -> str:
    return text


def _bind_stages(cfg: PipelineConfig, sender: Profile, receiver: Profile):
    """Pick every text stage's backend once, building each endpoint once.

    Returns (caption, to_payload, extract, recover, embed) callables. They
    look up the stage functions through this module's globals when bound,
    so a caller that rebinds those globals still sees every stage call.
    """
    endpoint = partial(Endpoint, timeout_ms=cfg.timeout_ms, retries=cfg.retries)
    if cfg.mma_backend == "remote":
        mma_ep = endpoint(cfg.mma_endpoint)
        caption = partial(transform_remote, target_modality="text", ep=mma_ep)
        to_payload = partial(transform_remote, ep=mma_ep)
    else:
        caption, to_payload = scene_to_text, text_to_scene
    if not cfg.lkb_enabled:
        extract = recover = _passthrough
    elif cfg.lkb_backend == "remote":
        lkb_ep = endpoint(cfg.lkb_endpoint)
        extract = partial(personalize_remote, profile=sender, direction="extract",
                          ep=lkb_ep)
        recover = partial(personalize_remote, profile=receiver, direction="recover",
                          ep=lkb_ep)
    else:
        extract = partial(personalize_extract, sender=sender, receiver=receiver)
        recover = partial(personalize_recover, receiver=receiver,
                          sender_name=sender.name)
    if cfg.embed_backend == "remote":
        embed = partial(semeval.embed_remote, ep=endpoint(cfg.embed_endpoint))
    else:
        embed = semeval.embed
    return caption, to_payload, extract, recover, embed


def _load_model(cfg: PipelineConfig) -> cge.CganModel:
    """Load the configured CGE model and check it covers the config's grid."""
    model = cge.load_model(cfg.model_path)
    if (model.rows, model.cols) != (cfg.rows, cfg.cols):
        raise ConfigError(f"model {cfg.model_path} is for a {model.rows}x"
                          f"{model.cols} grid, config grid is {cfg.rows}x{cfg.cols}")
    return model


def _setup(cfg: PipelineConfig, profiles=None):
    """Validate ``cfg`` once and bind what every message of a run shares.

    ``profiles`` is the (sender, receiver) pair, loaded from the config when
    None. Returns the sorted estimator arms, the bound stages, the pilot
    lattice and the CGE model, which is loaded only when 'cge' is an arm.
    """
    cfg.validate()
    sender, receiver = profiles or load_profiles(cfg)
    arms = sorted(set(cfg.arms()))
    model = _load_model(cfg) if "cge" in arms else None
    return arms, _bind_stages(cfg, sender, receiver), cfg.pilot_pattern(), model


def load_profiles(cfg: PipelineConfig) -> tuple[Profile, Profile]:
    base = (load_prompt_base(cfg.prompt_base_path) if cfg.prompt_base_path
            else default_prompt_base())
    try:
        return base.get(cfg.sender), base.get(cfg.receiver)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# per-message pass: one message through every (snr, seed) draw and arm

def _attempt(records, stage: str, fn, fallback):
    """Run one stage for the ``records`` whose result it is, timing it and
    capturing its error on them.

    The call runs once: its error lands on each record that has no earlier
    error, and each is charged an equal share of its wall time. An error
    outside (LamMscError, ValueError) is a bug, not a channel outcome: it gets
    a note naming the stage and is re-raised unchanged.
    """
    start = time.perf_counter()
    try:
        return fn()
    except (LamMscError, ValueError) as exc:
        for rec in records:
            if rec.error_stage is None:
                rec.error_stage, rec.error_message = stage, str(exc)
        return fallback
    except Exception as exc:
        exc.add_note(f"in pipeline stage {stage!r}")
        raise
    finally:
        share = (time.perf_counter() - start) / len(records)
        for rec in records:
            rec.timings[stage] = rec.timings.get(stage, 0.0) + share


def _draw_channel(cfg: PipelineConfig, frames, snr_db: float, seed: int):
    """True gains and received grids, each a (frames, rows, cols) stack, for
    one (snr, seed) draw."""
    gains = [np.ones((cfg.rows, cfg.cols), np.complex64) if cfg.ideal_channel
             else gen_channel(derive_seed(seed, "chan", i), cfg.rows, cfg.cols,
                              cfg.sigma_f, cfg.sigma_t).gains
             for i in range(len(frames))]
    return np.stack(gains), np.stack([
        apply_channel(frame.grid, h, snr_db, derive_seed(seed, "noise", i))
        for i, (frame, h) in enumerate(zip(frames, gains))])


def _receive(cfg: PipelineConfig, frames, stack, snrs, truth, ys, estimates) -> None:
    """The stacked pass: equalize, extract, score and decode every (draw, arm)
    record of ``stack`` at once, and store the results on the records.

    ``truth`` and ``ys`` are (draws, frames, rows, cols) stacks, ``estimates``
    one such stack per arm, and ``stack`` lists the records draw-major. The
    truth and received grids enter once per draw, and every sum runs over one
    record's own (rows, cols) block.
    """
    h_est = np.stack(estimates, axis=1)
    noise_var = np.array([noise_variance(snr) for snr in snrs]).reshape(-1, 1, 1, 1, 1)
    nmses = nmse(h_est, truth[:, None]).mean(axis=-1)
    eq = codec.equalize(ys[:, None], h_est, noise_var, cfg.equalizer)
    got = [frame.extract(eq[:, :, i]) for i, frame in enumerate(frames)]
    frame_ser = np.stack([codec.ser(frame.extract(frame.grid), g)
                          for frame, g in zip(frames, got)], axis=-1)
    streams = codec.demodulate(np.concatenate(got, axis=-1), cfg.repetition)
    occupancy = [frame.occupancy for frame in frames]
    for rec, sers, score, stream in zip(stack, frame_ser.reshape(len(stack), -1).tolist(),
                                        nmses.ravel().tolist(), streams):
        rec.frame_ser, rec.nmse = sers, score
        rec.ser = sum(s * n for s, n in zip(sers, occupancy)) / sum(occupancy)
        if stream.missing_terminator:
            rec.flags.append("missing-terminator")
        rec.received_text = codec.detokenize(stream)


def _run_message(payload, cfg: PipelineConfig, stages, pattern, model, draws,
                 arms) -> list[TransmissionRecord]:
    """One message through every (snr_db, seed) draw and estimator arm.

    One record is built per (draw, arm). Caption, extract, reference and
    framing run once, shared by every record; each channel draw once, shared
    by its arms; each arm's estimate once over every draw (one LS call, one
    CGE batch), shared by that arm's records; then one stacked pass receives
    every arm with an estimate. After each record's own receiver text stages,
    the reference is embedded once, shared by every record. A record is
    correct only if its text was sent (no first error in ``_UNSENT``),
    received (``frame_ser`` set) and scored above the threshold; a failed
    scoring leaves the 0.0 fallback cosine.
    """
    caption, to_payload, extract, recover, embed = stages
    records = [TransmissionRecord(payload, snr_db=snr_db, seed=seed, estimator=arm)
               for snr_db, seed in draws for arm in arms]
    text = _attempt(records, "modal-transform", lambda: (
        payload if isinstance(payload, str) else caption(payload)), "")
    semantics = _attempt(records, "personalize-extract", lambda: extract(text), "")
    reference = _attempt(records, "reference", lambda: recover(semantics), semantics)
    frames = _attempt(records, "transmit", lambda: codec.map_to_grid(codec.modulate(
        codec.tokenize(semantics), cfg.repetition), pattern), None)
    for rec in records:
        rec.caption, rec.semantics, rec.reference_text = text, semantics, reference
        if not semantics:
            rec.flags.append("empty-semantics")
    by_draw = [records[k:k + len(arms)] for k in range(0, len(records), len(arms))]
    channels = [frames and _attempt(  # None once framing or the draw failed
        group, "transmit", partial(_draw_channel, cfg, frames, snr_db, seed), None)
        for group, (snr_db, seed) in zip(by_draw, draws)]
    reached = [group for group, channel in zip(by_draw, channels) if channel]
    if reached:
        truth, ys = (np.stack(grids) for grids in zip(*filter(None, channels)))
        gains = {"perfect": lambda: truth, "none": lambda: np.ones_like(truth),
                 "ls": partial(ls_estimate, ys, pattern),
                 "cge": lambda: cge.estimate(model, cge.make_condition(
                     ys.reshape(-1, cfg.rows, cfg.cols), pattern)).reshape(ys.shape)}
        estimates = [_attempt(column, "transmit", gains[arm], None)
                     for arm, column in zip(arms, zip(*reached))]
        kept = [a for a, est in enumerate(estimates) if est is not None]
        stack = [group[a] for group in reached for a in kept]
        if stack:
            _attempt(stack, "transmit", partial(
                _receive, cfg, frames, stack, [group[0].snr_db for group in reached],
                truth, ys, [estimates[a] for a in kept]), None)
    modality = payload.modality if isinstance(payload, ScenePayload) else "image"
    for rec in records:
        rec.recovered_text = _attempt([rec], "personalize-recover", lambda: recover(
            rec.received_text), rec.received_text)
        rec.recovered_payload = _attempt([rec], "modal-recovery", lambda: to_payload(
            rec.recovered_text, modality), None)
    embedded = _attempt(records, "scoring", lambda: embed(reference), None)
    for rec in records:
        score = None if embedded is None else _attempt([rec], "scoring", lambda: (
            semeval.cosine(embedded, embed(rec.recovered_text))), None)
        rec.cosine = 0.0 if score is None else score
        rec.correct = bool(score is not None and score > cfg.threshold and rec.frame_ser
                           and rec.error_stage not in _UNSENT)
    return records


def run_pipeline(payload, cfg: PipelineConfig, sender: Profile, receiver: Profile,
                 *, snr_db: float | None = None, estimator: str | None = None,
                 seed: int | None = None) -> TransmissionRecord:
    """One end-to-end transmission; stage errors are captured, not raised.

    It runs at ``cfg.snr_db[0]`` with the first of ``cfg.arms()`` unless
    ``snr_db`` or ``estimator`` overrides them. The config it runs, ``cfg``
    with the overrides applied, is validated first, so an invalid set-up
    raises ConfigError before any stage runs.
    """
    cfg = replace(cfg, snr_db=cfg.snr_db[:1] if snr_db is None else [snr_db],
                  estimators=[estimator or cfg.arms()[0]])
    arms, stages, pattern, model = _setup(cfg, (sender, receiver))
    seed = cfg.master_seed if seed is None else seed
    return _run_message(payload, cfg, stages, pattern, model,
                        [(cfg.snr_db[0], seed)], arms)[0]


# ---------------------------------------------------------------------------
# sweeps and reports

def sweep(cfg: PipelineConfig, messages) -> SweepReport:
    """Run every (snr, estimator) arm over the corpus with paired seeds.

    Each message makes one per-message pass over all SNRs and arms; only
    (cosine, correct, nmse, ser, error stage) of each record is kept, in the
    cell of the record's (snr_db, estimator), and rows come in sorted order.
    Accuracy is the share of the cell's records marked correct. A record
    whose transmit failed (empty ``frame_ser``) counts in accuracy (never as
    correct), mean_cosine (at its 0.0) and n but not in mean_nmse or
    mean_ser; a cell with no estimate at all reports them as nan.
    ``failures`` counts the failed records of each cell by the stage of
    their first error.
    """
    messages = list(messages)
    if not messages:
        raise ConfigError("sweep needs a non-empty corpus")
    arms, stages, pattern, model = _setup(cfg)
    snrs = sorted(set(cfg.snr_db))
    results = {}
    for idx, payload in enumerate(messages):
        draws = [(snr, derive_seed(cfg.master_seed, idx, _snr_key(snr)))
                 for snr in snrs]
        try:
            records = _run_message(payload, cfg, stages, pattern, model, draws, arms)
        except Exception as exc:
            exc.add_note(f"in sweep message {idx}")
            raise
        for rec in records:
            estimate = (rec.nmse, rec.ser) if rec.frame_ser else None
            results.setdefault((rec.snr_db, rec.estimator), []).append(
                (rec.cosine, rec.correct, estimate, rec.error_stage))
    rows, failures = [], Counter()
    for (snr, est), cell in sorted(results.items()):
        scores, correct, estimates, stages = zip(*cell)
        estimates = [e for e in estimates if e is not None]
        mean_nmse, mean_ser = ([float(np.mean(v)) for v in zip(*estimates)]
                               if estimates else (math.nan, math.nan))
        rows.append(SweepRow(snr, est, sum(correct) / len(cell), float(np.mean(scores)),
                             mean_nmse, mean_ser, len(messages)))
        failures.update(f"{_snr_key(snr)}/{est}/{stage}" for stage in stages if stage)
    return SweepReport(rows, dict(failures))


def format_report(report: SweepReport) -> str:
    lines = [REPORT_HEADER]
    for row in sorted(report.rows, key=lambda r: (r.snr_db, r.estimator)):
        lines.append(f"{row.snr_db:.6g},{row.estimator},{row.accuracy:.6g},"
                     f"{row.mean_cosine:.6g},{row.mean_nmse:.6g},"
                     f"{row.mean_ser:.6g},{row.n}")
    return "\n".join(lines) + "\n"


def write_report(report: SweepReport, path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_report(report))
