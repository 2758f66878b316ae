"""The three benchmark workloads: inputs, one measured operation, checks.

Each workload builds its inputs from the workload seed in ``setup`` and hands
the program only those inputs. ``op`` runs one benchmark operation and
returns how many units of work it completed; ``check`` returns the number of
operations that failed the workload's correctness check.

- sweep: one ``pipeline.sweep`` over a synthetic corpus, 5 SNRs x 4 arms,
  mock backends. ``channel``, ``cge``, ``nn`` (batch-1 forward) and ``codec``
  do the work; the message stages rerun for every (SNR, arm) pair.
- train: ``cge.train_cgan`` on a 256-pair training set for 2 epochs.
  ``nn`` forward+backward and Adam do the work.
- remote: a closed loop with one client calling ``pipeline.run_pipeline``
  against an in-process ``mockserve.MockServer``; ``wire`` and
  ``mockserve`` do the work, at 7 round trips per message.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

ROWS = COLS = 32
SIGMA = 4.0
SNRS = [0.0, 5.0, 10.0, 15.0, 20.0]
ARMS = ["perfect", "cge", "ls", "none"]
TRAIN_SNR = 10.0
REMOTE_SNR = 10.0
REMOTE_ESTIMATOR = "ls"


@dataclass(frozen=True)
class Scale:
    sweep_messages: int
    train_pairs: int
    train_epochs: int
    remote_messages: int
    probe_reps: int


SCALES = {
    "full": Scale(sweep_messages=40, train_pairs=256, train_epochs=2,
                  remote_messages=200, probe_reps=5),
    # smoke size: every code path, a few seconds per workload
    "tiny": Scale(sweep_messages=2, train_pairs=64, train_epochs=1,
                  remote_messages=3, probe_reps=1),
}


def sub_seed(seed: int, label: str) -> int:
    """Independent 63-bit seed for one input, derived from the workload seed."""
    blob = f"{seed}|{label}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little") >> 1


class Sweep:
    name = "sweep"
    setups = 15

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.reports = []
        self.csvs = []

    def setup(self):
        from lammsc import cge, corpus, pipeline

        self.scenes = corpus.synthetic_corpus(self.scale.sweep_messages,
                                              seed=sub_seed(self.seed, "corpus"))
        model_path = os.path.join(self.workdir, "cge_untrained.bin")
        cge.save_model(cge.untrained_model(ROWS, COLS,
                                           seed=sub_seed(self.seed, "model")),
                       model_path)
        self.cfg = pipeline.PipelineConfig(
            rows=ROWS, cols=COLS, sigma_f=SIGMA, sigma_t=SIGMA, snr_db=list(SNRS),
            estimators=list(ARMS), model_path=model_path,
            master_seed=sub_seed(self.seed, "master"))

    def close(self):
        pass

    def warm_up(self):
        from lammsc import pipeline

        pipeline.sweep(self.cfg, self.scenes[:1])

    def op(self) -> int:
        from lammsc import pipeline

        report = pipeline.sweep(self.cfg, self.scenes)
        self.reports.append(report)
        self.csvs.append(pipeline.format_report(report).encode("utf-8"))
        return len(self.scenes) * len(SNRS) * len(ARMS)

    def min_ops(self) -> int:
        return 2  # the CSV check compares repetitions

    def pass_ops(self) -> int:
        return 1

    def per_op_divisor(self) -> int:
        return 1

    def messages_per_op(self) -> int:
        return len(self.scenes)

    def stage_errors(self) -> int:
        """Records with a captured stage error, summed over every sweep so far."""
        return sum(sum(r.failures.values()) for r in self.reports)

    def check(self) -> int:
        """Count sweeps whose report is malformed, ranks `perfect` below
        `none` at some SNR, or differs in CSV bytes from the first sweep."""
        bad = 0
        for report, csv in zip(self.reports, self.csvs):
            rows = report.rows
            acc = {(r.snr_db, r.estimator): r.accuracy for r in rows}
            bad += (len(rows) != len(SNRS) * len(ARMS)
                    or any(r.n != len(self.scenes) for r in rows)
                    or any(acc.get((s, "perfect"), -1.0) < acc.get((s, "none"), 2.0)
                           for s in SNRS)
                    or csv != self.csvs[0])
        return bad

    def quality(self) -> dict:
        rows = self.reports[0].rows
        return {
            "accuracy": sum(r.accuracy for r in rows) / len(rows),
            "nmse": sum(r.mean_nmse for r in rows) / len(rows),
            "csv_sha256": hashlib.sha256(self.csvs[0]).hexdigest(),
        }


class Train:
    name = "train"
    setups = 5

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.histories = []
        self.weights = []

    def setup(self):
        from lammsc import cge, channel

        pattern = channel.make_pilot_pattern(ROWS, COLS)
        self.pairs = cge.make_training_set(
            self.scale.train_pairs, ROWS, COLS, SIGMA, SIGMA, pattern, TRAIN_SNR,
            seed=sub_seed(self.seed, "pairs"))
        self.hyper = cge.TrainConfig(epochs=self.scale.train_epochs)

    def close(self):
        pass

    def warm_up(self):
        from lammsc import cge

        cge.train_cgan(self.pairs[:64], cge.TrainConfig(epochs=1),
                       seed=sub_seed(self.seed, "warm"))

    def op(self) -> int:
        from lammsc import cge

        model = cge.train_cgan(self.pairs, self.hyper,
                               seed=sub_seed(self.seed, "train"))
        self.histories.append(model.history)
        params = model.generator.parameters() + model.discriminator.parameters()
        self.weights.append(hashlib.sha256(
            b"".join(p.tobytes() for p in params)).hexdigest())
        return len(self.pairs) * self.hyper.epochs

    def min_ops(self) -> int:
        return 2  # the weights check compares repetitions

    def pass_ops(self) -> int:
        return 1

    def per_op_divisor(self) -> int:
        return self.hyper.epochs

    def messages_per_op(self) -> int:
        return 0

    def stage_errors(self) -> int:
        return 0

    def check(self) -> int:
        """Count trainings with a non-finite or short history, or whose
        weights differ in bytes from the first training's."""
        bad = 0
        for h, weights in zip(self.histories, self.weights):
            curves = (h.d_loss, h.g_loss, h.val_nmse)
            bad += (any(len(c) != self.hyper.epochs for c in curves)
                    or not all(math.isfinite(v) for c in curves for v in c)
                    or weights != self.weights[0])
        return bad

    def quality(self) -> dict:
        return {"nmse": self.histories[0].val_nmse[-1],
                "weights_sha256": self.weights[0]}


class Remote:
    name = "remote"
    setups = 5

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.server = None
        self.sent = 0
        self.records = {}  # corpus index -> list of observed record tuples
        self.errors = 0

    def setup(self):
        from lammsc import corpus, mockserve, pipeline

        self.scenes = corpus.synthetic_corpus(self.scale.remote_messages,
                                              seed=sub_seed(self.seed, "corpus"))
        self.server = mockserve.MockServer().start()
        url = self.server.url
        self.cfg = pipeline.PipelineConfig(
            rows=ROWS, cols=COLS, sigma_f=SIGMA, sigma_t=SIGMA,
            snr_db=[REMOTE_SNR], estimator=REMOTE_ESTIMATOR,
            mma_backend="remote", lkb_backend="remote", embed_backend="remote",
            mma_endpoint=url, lkb_endpoint=url, embed_endpoint=url,
            master_seed=sub_seed(self.seed, "master")).validate()
        self.sender, self.receiver = pipeline.load_profiles(self.cfg)

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _message_seed(self, idx: int) -> int:
        return sub_seed(self.cfg.master_seed, f"msg{idx}")

    def _run(self, idx: int, cfg):
        from lammsc import pipeline

        return pipeline.run_pipeline(self.scenes[idx], cfg, self.sender,
                                     self.receiver, snr_db=REMOTE_SNR,
                                     estimator=REMOTE_ESTIMATOR,
                                     seed=self._message_seed(idx))

    def warm_up(self):
        for idx in range(min(3, len(self.scenes))):
            self._run(idx, self.cfg)

    def op(self) -> int:
        idx = self.sent % len(self.scenes)
        rec = self._run(idx, self.cfg)
        self.sent += 1
        self.errors += rec.error_stage is not None
        self.records.setdefault(idx, []).append(
            (rec.caption, rec.received_text, rec.recovered_text, rec.cosine,
             rec.correct, rec.nmse))
        return 1

    def min_ops(self) -> int:
        """Every corpus message is sent at least once, so quality is a pure
        function of the seed however fast the run is."""
        return len(self.scenes)

    def pass_ops(self) -> int:
        return len(self.scenes)

    def per_op_divisor(self) -> int:
        return 1

    def messages_per_op(self) -> int:
        return 1

    def stage_errors(self) -> int:
        return self.errors

    def check(self) -> int:
        """Count remote records that differ from the mock-backend record with
        pass-through personalization for the same message and seed."""
        from dataclasses import replace

        mock = replace(self.cfg, mma_backend="mock", lkb_backend="mock",
                       embed_backend="mock", lkb_enabled=False)
        bad = 0
        for idx, seen in self.records.items():
            ref = self._run(idx, mock)
            want = (ref.caption, ref.received_text, ref.recovered_text, ref.cosine)
            bad += sum(rec[:4] != want for rec in seen)
        return bad

    def quality(self) -> dict:
        first = [seen[0] for seen in self.records.values()]
        return {"accuracy": sum(r[4] for r in first) / len(first),
                "nmse": sum(r[5] for r in first) / len(first)}


WORKLOADS = {w.name: w for w in (Sweep, Train, Remote)}
