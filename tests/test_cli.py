import dataclasses
import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lammsc import channel, cge, cli, corpus, fileio, pipeline
from lammsc.errors import LamMscError
from lammsc.mockserve import MockServer

from test_fileio import DECODE_FAULTS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_eval_table(model_path, count, rows, cols, sigma, snrs, seed):
    """The eval-cge table as a per-draw loop: one channel seed and one noise
    seed per draw, CGE and LS scored on the same received grid."""
    model = cge.load_model(model_path)
    pattern = channel.make_pilot_pattern(rows, cols, 4, 4, 97)
    frame = channel.insert_pilots(np.zeros((rows, cols), np.complex64), pattern)
    lines = ["snr_db,cge_nmse,ls_nmse,n"]
    for snr in snrs:
        rng = np.random.default_rng(pipeline.derive_seed(seed,
                                                         pipeline._snr_key(snr)))
        cge_scores, ls_scores = [], []
        for _ in range(count):
            h = channel.gen_channel(int(rng.integers(2 ** 63)), rows, cols, sigma,
                                    sigma)
            y = channel.apply_channel(frame, h, snr, int(rng.integers(2 ** 63)))
            cge_scores.append(channel.nmse(
                cge.estimate(model, cge.make_condition(y, pattern)), h.gains))
            ls_scores.append(channel.nmse(channel.ls_estimate(y, pattern), h.gains))
        lines.append(f"{snr:.6g},{np.mean(cge_scores):.6g},"
                     f"{np.mean(ls_scores):.6g},{count}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def tiny_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "tiny.cge"
    pattern = channel.make_pilot_pattern(16, 16, 4, 4, seed=97)
    pairs = cge.make_training_set(64, 16, 16, 2.0, 2.0, pattern, 10.0, seed=2)
    model = cge.train_cgan(pairs, cge.TrainConfig(epochs=2), seed=5)
    cge.save_model(model, path)
    return str(path)


@pytest.fixture(scope="module")
def channels16_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("channels") / "c16.lmch"
    channel.save_channel_dataset(path, [channel.gen_channel(i, 16, 16, 2.0, 2.0)
                                        for i in range(64)])
    return str(path)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "scenes.jsonl"
    corpus.save_corpus(path, corpus.synthetic_corpus(6, seed=21))
    return str(path)


@pytest.fixture(scope="module")
def taken_port():
    """A local port that another socket listens on."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock.getsockname()[1]


class TestGenChannels:
    def test_writes_loadable_dataset(self, capsys, tmp_path):
        out = tmp_path / "chan.lmch"
        code, stdout, _ = run_cli(capsys, "gen-channels", "--out", str(out),
                                  "--count", "4", "--rows", "16", "--cols", "16",
                                  "--sigma-f", "2", "--sigma-t", "2")
        assert code == 0
        loaded = channel.load_channel_dataset(out)
        assert len(loaded) == 4
        assert loaded[0].gains.shape == (16, 16)

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.lmch", tmp_path / "b.lmch"
        for out in (a, b):
            run_cli(capsys, "gen-channels", "--out", str(out), "--count", "3",
                    "--rows", "16", "--cols", "16", "--seed", "9")
        assert a.read_bytes() == b.read_bytes()


class TestTrainEval:
    def test_train_then_eval(self, capsys, tmp_path):
        model_path = tmp_path / "model.cge"
        code, stdout, _ = run_cli(
            capsys, "train-cge", "--out", str(model_path), "--pairs", "64",
            "--epochs", "1", "--rows", "16", "--cols", "16", "--sigma-f", "2",
            "--sigma-t", "2", "--snr-db", "10", "--seed", "3", "--data-seed", "4")
        assert code == 0
        assert "validation NMSE" in stdout
        model = cge.load_model(model_path)
        assert (model.rows, model.cols) == (16, 16)

        code, stdout, _ = run_cli(
            capsys, "eval-cge", "--model", str(model_path), "--count", "5",
            "--rows", "16", "--cols", "16", "--sigma-f", "2", "--sigma-t", "2",
            "--snr-db", "5,10")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "snr_db,cge_nmse,ls_nmse,n"
        assert len(lines) == 3

    def test_train_reports_each_epoch_on_stderr(self, capsys, tmp_path):
        model_path = tmp_path / "model.cge"
        code, stdout, stderr = run_cli(
            capsys, "train-cge", "--out", str(model_path), "--pairs", "64",
            "--epochs", "2", "--rows", "16", "--cols", "16", "--sigma-f", "2",
            "--sigma-t", "2", "--snr-db", "10", "--seed", "3", "--data-seed", "4")
        assert code == 0
        # stdout and the model bytes are those of a training without the report
        pattern = pipeline.PipelineConfig(rows=16, cols=16).pilot_pattern()
        pairs = cge.make_training_set(64, 16, 16, 2.0, 2.0, pattern, 10.0, 4)
        model = cge.train_cgan(pairs, cge.TrainConfig(epochs=2), seed=3)
        cge.save_model(model, tmp_path / "direct.cge")
        assert model_path.read_bytes() == (tmp_path / "direct.cge").read_bytes()
        assert stdout == (f"trained 2 epochs on 64 pairs at 10 dB; validation NMSE "
                          f"{model.history.val_nmse[-1]:.4f}; saved to {model_path}\n")
        h = model.history
        assert stderr.splitlines() == [
            f"epoch {i + 1}/2: d_loss {h.d_loss[i]:.6g} g_loss {h.g_loss[i]:.6g} "
            f"val_nmse {h.val_nmse[i]:.6g}" for i in range(2)]

    def test_eval_matches_per_draw_reference(self, capsys, tiny_model_path):
        code, stdout, _ = run_cli(
            capsys, "eval-cge", "--model", tiny_model_path, "--count", "6",
            "--rows", "16", "--cols", "16", "--sigma-f", "2", "--sigma-t", "2",
            "--snr-db", "0,10,inf,-3", "--seed", "11")
        assert code == 0
        assert stdout == reference_eval_table(
            tiny_model_path, 6, 16, 16, 2.0, [0.0, 10.0, float("inf"), -3.0], 11)

    def test_train_from_channel_dataset(self, capsys, tmp_path):
        chan_path = tmp_path / "chan.lmch"
        run_cli(capsys, "gen-channels", "--out", str(chan_path), "--count", "64",
                "--rows", "16", "--cols", "16", "--sigma-f", "2", "--sigma-t", "2")
        model_path = tmp_path / "model.cge"
        code, _, _ = run_cli(
            capsys, "train-cge", "--out", str(model_path), "--channels",
            str(chan_path), "--epochs", "1", "--rows", "16", "--cols", "16",
            "--snr-db", "10")
        assert code == 0
        assert model_path.exists()


class TestConfigFlags:
    # one sample per field that differs from the default, keyed by its type
    SAMPLES = {int: ("41", 41), float: ("0.25", 0.25), str: ("xyz", "xyz")}
    LISTS = {"snr_db": ("1.5,inf", [1.5, float("inf")]),
             "estimators": ("ls,none", ["ls", "none"])}

    @pytest.mark.parametrize("command", [["train-cge", "--out", "m.cge"],
                                         ["eval-cge"], ["run"], ["sweep"]],
                             ids=lambda c: c[0])
    def test_every_config_field_has_a_flag(self, command):
        parser = cli.build_parser()
        default = pipeline.PipelineConfig()
        for f in dataclasses.fields(pipeline.PipelineConfig):
            value = getattr(default, f.name)
            if f.name in self.LISTS:
                text, want = self.LISTS[f.name]
            elif isinstance(value, bool):
                text, want = str(not value).lower(), not value
            else:
                text, want = self.SAMPLES[type(value)]
            args = parser.parse_args(command + ["--" + f.name.replace("_", "-"),
                                                text])
            cfg = cli._config_from_args(args)
            assert getattr(cfg, f.name) == want, f.name
            assert dataclasses.replace(cfg, **{f.name: value}) == default, f.name


class TestRun:
    def test_text_payload(self, capsys):
        code, stdout, _ = run_cli(capsys, "run", "--text", "over the air",
                                  "--snr-db", "inf", "--estimator", "perfect",
                                  "--lkb-enabled", "false")
        assert code == 0
        record = json.loads(stdout)
        assert record["recovered_text"] == "over the air"
        assert record["cosine"] == 1.0

    def test_corpus_payload(self, capsys, corpus_path):
        code, stdout, _ = run_cli(capsys, "run", "--corpus", corpus_path,
                                  "--index", "1", "--snr-db", "inf",
                                  "--estimator", "perfect")
        assert code == 0
        record = json.loads(stdout)
        assert record["correct"] is True

    def test_cge_estimator_via_flags(self, capsys, tiny_model_path, corpus_path):
        code, stdout, _ = run_cli(
            capsys, "run", "--corpus", corpus_path, "--rows", "16", "--cols", "16",
            "--sigma-f", "2", "--sigma-t", "2", "--snr-db", "10",
            "--estimator", "cge", "--model-path", tiny_model_path)
        assert code == 0
        record = json.loads(stdout)
        assert record["estimator"] == "cge"
        assert record["nmse"] > 0.0

    def test_estimators_list_runs_first_arm(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--text", "a boy and a girl",
                               "--estimators", "ls,none")
        assert code == 0
        assert json.loads(out)["estimator"] == "ls"

    def test_missing_payload_is_config_error(self, capsys):
        code, _, stderr = run_cli(capsys, "run")
        assert code == 1
        assert "config error" in stderr

    def test_missing_corpus_file_is_runtime_error(self, capsys):
        code, _, stderr = run_cli(capsys, "run", "--corpus", "/nope/missing.jsonl")
        assert code == 2

    def test_non_utf8_corpus_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(b"\xff\xfe{\x00}\x00\n\x00")
        code, _, stderr = run_cli(capsys, "run", "--corpus", str(path))
        assert code == 2
        assert stderr.startswith("error: "), stderr


class TestSweep:
    def test_report_file_and_determinism(self, capsys, tmp_path, corpus_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "sweep", "--corpus", corpus_path, "--out", str(out),
                "--snr-db", "0,10", "--estimators", "perfect,none",
                "--master-seed", "17")
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == pipeline.REPORT_HEADER
        assert len(lines) == 5

    def test_config_file_with_flag_override(self, capsys, tmp_path, corpus_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"snr_db": [0.0], "estimator": "none",
                                        "corpus_path": corpus_path}))
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(cfg_path),
                                  "--snr-db", "20")
        assert code == 0
        assert stdout.splitlines()[1].startswith("20,none,")

    def test_missing_corpus_is_config_error(self, capsys):
        code, _, stderr = run_cli(capsys, "sweep", "--snr-db", "10")
        assert code == 1
        assert "config error" in stderr


BAD_BASE = ("name,age,identity,gender,interests,aliases,focus\n"
            "Mike,x,,,,,\nJane,27,,,,,\n")


class TestSetupErrors:
    """An invalid set-up exits 1 with 'config error:' before any work."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "--text", "hi", "--pilot-df", "1", "--pilot-dt", "1"], "no data cell"),
        (["run", "--text", "hi", "--pilot-df", "0"], ">= 1"),
        (["run", "--text", "hi", "--pilot-df", "64"], "exceed"),
        (["train-cge", "--out", "{tmp}/m.cge", "--epochs", "0"], "epoch"),
        (["train-cge", "--out", "{tmp}/m.cge", "--batch", "0"], "batch"),
        (["train-cge", "--out", "{tmp}/m.cge", "--rows", "24", "--cols", "24"],
         "divisible by 16"),
        (["train-cge", "--out", "{tmp}/m.cge", "--pairs", "10"], "64 pairs"),
        (["train-cge", "--out", "{tmp}/m.cge", "--sigma-f", "nan"], "sigma_f"),
        (["train-cge", "--out", "{tmp}/m.cge", "--channels", "{channels16}"],
         "16x16 grids"),
        (["eval-cge", "--model", "{model16}", "--out", "{tmp}/t.csv"], "16x16"),
        (["eval-cge", "--model", "{model16}", "--out", "{tmp}/t.csv", "--rows", "16",
          "--cols", "16", "--sigma-t", "nan"], "sigma_t"),
        (["eval-cge", "--out", "{tmp}/t.csv"],
         "eval-cge needs a model (--model or model_path)"),
        (["gen-channels", "--out", "{tmp}/c.lmch", "--sigma-f", "nan"], "sigma_f"),
        (["gen-channels", "--out", "{tmp}/c.lmch", "--rows", "2"], "4x4"),
        (["gen-channels", "--out", "{tmp}/c.lmch", "--count", "0"], "--count"),
        (["run", "--text", "hi", "--snr-db=-3100"], "snr_db"),
        (["sweep", "--corpus", "{corpus}", "--out", "{tmp}/r.csv",
          "--snr-db=10,-800"], "snr_db"),
        (["sweep", "--corpus", "{corpus}", "--out", "{tmp}/r.csv",
          "--snr-db=10,10.0000001"], "collide at 6 digits"),
        (["train-cge", "--out", "{tmp}/m.cge", "--seed=-1"], "--seed must be"),
        (["train-cge", "--out", "{tmp}/m.cge", "--data-seed=-1"], "--data-seed"),
    ], ids=["all-pilot", "zero-spacing", "spacing-over-extent", "zero-epochs",
            "zero-batch", "extents", "few-pairs", "train-nan-sigma",
            "train-channels-grid", "eval-model-grid", "eval-nan-sigma", "eval-no-model",
            "gen-nan-sigma", "gen-small-grid", "gen-zero-count",
            "run-snr-overflows-noise", "sweep-snr-overflows-grid",
            "sweep-snrs-share-a-key", "train-negative-seed",
            "train-negative-data-seed"])
    def test_config_error(self, capsys, tmp_path, monkeypatch, tiny_model_path,
                          channels16_path, corpus_path, argv, message):
        # a call to any work function would raise
        monkeypatch.setattr(cge, "make_training_set", None)
        monkeypatch.setattr(cge, "pairs_from_realizations", None)
        monkeypatch.setattr(channel, "gen_channel", None)
        code, _, stderr = run_cli(capsys, *[
            a.format(tmp=tmp_path, model16=tiny_model_path,
                     channels16=channels16_path, corpus=corpus_path) for a in argv])
        assert code == 1
        assert stderr.startswith("config error: "), stderr
        assert message in stderr
        assert list(tmp_path.iterdir()) == []


def setup_argvs(model16: str, channels16: str, out: str, taken_port: int):
    """A gen-channels, train-cge, eval-cge or mock-serve command line with up
    to 6 of its set-up flags, each ``--flag=value`` with a value its parser
    accepts; a drawn flag overrides a required one (eval-cge starts on the
    model's grid). ``--out`` is a writable path in ``out``, a path in a
    missing directory or the existing directory ``out/dir``; ``--port`` is
    out of range, ``taken_port`` or 0 (a free port the system picks).

    Extents, counts and spacings come from small ranges: a valid 10^6 x 10^6
    grid would allocate its pilot lattice before any check could reject it,
    so the bound is on memory, not a claim about larger values."""
    small = st.integers(-2, 40).map(str)
    real = (st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e400", "2"])
            | st.floats(-1.0, 20.0).map(repr))
    grid = {"--rows": st.sampled_from(["16", "32"]) | small,
            "--cols": st.sampled_from(["16", "32"]) | small,
            "--sigma-f": real, "--sigma-t": real}
    config = {**grid, "--snr-db": st.lists(real, max_size=3).map(",".join),
              "--pilot-df": small, "--pilot-dt": small, "--repetition": small,
              "--estimator": st.sampled_from(pipeline.ESTIMATORS + ("x",))}
    outs = st.sampled_from([f"{out}/o.bin", f"{out}/missing/o.bin", f"{out}/dir"])
    commands = {
        "gen-channels": ({"--out": outs},
                         {**grid, "--count": small, "--seed": st.integers().map(str)}),
        "train-cge": ({"--out": outs},
                      {**config, "--pairs": st.integers(-1, 300).map(str),
                       "--epochs": small, "--batch": st.integers(-1, 80).map(str),
                       "--seed": st.integers().map(str),
                       "--data-seed": st.integers().map(str),
                       "--channels": st.sampled_from([channels16, f"{out}/no.lmch"])}),
        "eval-cge": ({"--model": st.sampled_from([model16, f"{out}/no.cge"]),
                      "--rows": st.just("16"), "--cols": st.just("16")},
                     {**config, "--count": small, "--out": outs}),
        "mock-serve": ({"--port": st.sampled_from(["-1", "65536", str(taken_port), "0"])},
                       {"--host": st.just("127.0.0.1")}),
    }

    def argv(command):
        required, flags = commands[command]
        return st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=6).flatmap(
            lambda keys: st.fixed_dictionaries(
                required | {key: flags[key] for key in keys})).map(
            lambda chosen: [command, *(f"{k}={v}" for k, v in chosen.items())])
    return st.sampled_from(sorted(commands)).flatmap(argv)


class TestSetupSpace:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_every_setup_ends_typed(self, data, capsys, tmp_path, monkeypatch,
                                    tiny_model_path, channels16_path, taken_port):
        """Any drawn set-up of the three dataset and model commands and of
        mock-serve exits 0, or with 'config error:' or 'error:', never
        'unexpected error'; the work functions are patched to fail with a
        typed error once reached, and an unwritable --out never reaches them."""
        def heavy(*args, **kwargs):
            raise LamMscError("work reached")

        for owner, name in ((cge, "make_training_set"), (cge, "pairs_from_realizations"),
                            (cge, "train_cgan"), (channel, "gen_channel"),
                            (MockServer, "serve_forever")):
            monkeypatch.setattr(owner, name, heavy)
        (tmp_path / "dir").mkdir(exist_ok=True)
        argv = data.draw(setup_argvs(tiny_model_path, channels16_path, str(tmp_path),
                                     taken_port))
        code, _, stderr = run_cli(capsys, *argv)
        assert ((code, stderr) == (0, "") or (code, stderr[:14]) == (1, "config error: ")
                or (code, stderr[:7]) == (2, "error: ")), (argv, stderr)
        unwritable = {f"--out={tmp_path}/missing/o.bin", f"--out={tmp_path}/dir"}
        assert not (unwritable & set(argv) and "work reached" in stderr), (argv, stderr)
        assert list(tmp_path.iterdir()) == [tmp_path / "dir"]
        assert list((tmp_path / "dir").iterdir()) == []


class TestUnwritableOut:
    """Every writer fails as 'error: cannot write' and leaves no file."""

    GRID = ["--rows", "16", "--cols", "16", "--sigma-f", "2", "--sigma-t", "2"]
    WRITERS = [
        ["gen-channels", "--count", "2", *GRID],
        ["train-cge", "--pairs", "64", "--epochs", "1", *GRID],
        ["eval-cge", "--model", "{model16}", "--count", "2", *GRID],
        ["sweep", "--corpus", "{corpus}", "--snr-db", "10", "--estimators", "ls"],
    ]
    # the first call of each writer's work
    WORK = {"gen-channels": (channel, "gen_channel"),
            "train-cge": (cge, "make_training_set"),
            "eval-cge": (cge, "make_training_set"), "sweep": (pipeline, "sweep")}

    @pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
    def test_cannot_write(self, capsys, tmp_path, tiny_model_path, corpus_path,
                          argv):
        out = tmp_path / "missing" / "out"
        code, _, stderr = run_cli(capsys, *[
            a.format(model16=tiny_model_path, corpus=corpus_path) for a in argv],
            "--out", str(out))
        assert code == 2
        assert stderr.startswith(f"error: cannot write {out}: "), stderr
        assert list(tmp_path.iterdir()) == []

    # an empty --out is no output file where --out is required; eval-cge and
    # sweep read it as none
    @pytest.mark.parametrize("argv, out", [
        *(pytest.param(argv, out, id=f"{argv[0]}-{out}")
          for argv in WRITERS for out in ("missing/out", "taken")),
        *(pytest.param(argv, "", id=f"{argv[0]}-empty") for argv in WRITERS[:2])])
    def test_fails_before_any_work(self, capsys, tmp_path, monkeypatch,
                                   tiny_model_path, corpus_path, argv, out):
        monkeypatch.setattr(*self.WORK[argv[0]], None)  # would raise
        (tmp_path / "taken").mkdir()  # a directory is no output file
        monkeypatch.chdir(tmp_path)  # where a temporary file for "" would go
        out = tmp_path / out if out else out
        code, _, stderr = run_cli(capsys, *[
            a.format(model16=tiny_model_path, corpus=corpus_path) for a in argv],
            "--out", str(out))
        assert code == 2
        assert stderr.startswith(f"error: cannot write {out}: "), stderr
        assert list(tmp_path.iterdir()) == [tmp_path / "taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    def test_check_leaves_the_directory_as_it_was(self, tmp_path):
        target = tmp_path / "m.cge"
        fileio.check_writable(target)
        assert list(tmp_path.iterdir()) == []
        target.write_bytes(b"old")
        fileio.check_writable(target)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"old"


class TestMockServe:
    @pytest.mark.parametrize("port", ["-1", "65536", "99999"])
    def test_port_out_of_range_is_config_error(self, capsys, port):
        code, stdout, stderr = run_cli(capsys, "mock-serve", "--port", port)
        assert code == 1
        assert stderr.startswith(f"config error: --port must be in 0..65535, got {port}")
        assert stdout == ""

    def test_taken_port_is_error(self, capsys, taken_port):
        code, stdout, stderr = run_cli(capsys, "mock-serve", "--port", str(taken_port))
        assert code == 2
        assert stderr.startswith(f"error: cannot serve at 127.0.0.1:{taken_port}: "), stderr
        assert stdout == ""

    def test_interrupt_closes_the_server(self, monkeypatch):
        served, codes = [], []

        def interrupted(server):
            served.append(server)
            raise KeyboardInterrupt

        monkeypatch.setattr(MockServer, "serve_forever", interrupted)
        # in a thread: closing a server whose loop never ran could block
        worker = threading.Thread(target=lambda: codes.append(
            cli.main(["mock-serve", "--port", "0"])), daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert codes == [0]
        assert served[0].socket.fileno() == -1


class TestEvalCount:
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_config_error(self, capsys, tmp_path, monkeypatch,
                                             tiny_model_path, count):
        monkeypatch.setattr(cge, "load_model", None)  # loading would raise
        out = tmp_path / "t.csv"
        code, stdout, stderr = run_cli(
            capsys, "eval-cge", "--model", tiny_model_path, "--count", count,
            "--rows", "16", "--cols", "16", "--out", str(out))
        assert code == 1
        assert stderr.startswith("config error: --count must be >= 1"), stderr
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestUnexpectedError:
    def test_notes_printed(self, capsys, monkeypatch, corpus_path):
        def buggy(scene):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(pipeline, "scene_to_text", buggy)
        code, _, stderr = run_cli(capsys, "sweep", "--corpus", corpus_path)
        assert code == 2
        assert stderr == ("unexpected error: division by zero (in pipeline stage "
                          "'modal-transform') (in sweep message 0)\n")


# every decode fault in a config file and in a CGE1 and an LMCH header
_DECODE_CASES = [case for fault in DECODE_FAULTS for case in (
    (["run", "--text", "hi", "--config", "{tmp}/" + fault + ".json"], 1,
     "config error: {tmp}/" + fault + ".json: "),
    (["eval-cge", "--model", "{tmp}/" + fault + ".cge", "--count", "1"], 2,
     "error: {tmp}/" + fault + ".cge: malformed CGE model header: "),
    (["train-cge", "--out", "{tmp}/m.cge", "--channels", "{tmp}/" + fault + ".lmch"],
     2, "error: {tmp}/" + fault + ".lmch: malformed channel dataset header: "))]


class TestLoaderErrors:
    """A bad input file or record exits with its taxonomy code, never 'unexpected'."""

    @pytest.mark.parametrize("argv, code, prefix", [
        (["run", "--text", "hi there", "--prompt-base-path", "{tmp}/bad.csv"],
         1, "config error: prompt base"),
        (["run", "--text", "hi there", "--prompt-base-path", "{tmp}/none.csv"],
         1, "config error: prompt base"),
        (["run", "--text", "hi there", "--config", "{tmp}/typed.json"],
         1, "config error: config key 'rows'"),
        (["run", "--text", "hi there", "--estimator", "cge",
          "--model-path", "{tmp}/none.cge"], 2, "error: "),
        (["eval-cge", "--model", "{tmp}/none.cge"], 2, "error: "),
        (["train-cge", "--out", "{tmp}/m.cge", "--channels", "{tmp}/bad.lmch"], 2,
         "error: {tmp}/bad.lmch: grid extents must be positive"),
        (["run", "--config", "{tmp}/nul-corpus.json"], 2, "error: cannot read corpus"),
        (["run", "--text", "hi", "--config", "{tmp}/nul-model.json"], 2,
         "error: a\x00b: cannot read CGE model"),
        (["run", "--scene", "not json"], 1, "config error: --scene: "),
        (["run", "--scene", "[1]"], 1, "config error: --scene: "),
        (["run", "--scene", '{{"modality": "smell"}}'], 1, "config error: --scene: "),
        (["run", "--scene", '{{"background": null}}'], 1, "config error: --scene: "),
        (["run", "--scene", '{{"entities": ["ab"]}}'], 1, "config error: --scene: "),
        (["run", "--scene", "[" * 10 ** 5], 1, "config error: --scene: "),
        (["run", "--scene", '{{"backgroud": "a garden", "entities": [["a boy", []]]}}',
          "--snr-db", "inf"], 1, "config error: --scene: unknown scene record keys"),
        (["run", "--text", "hi", "--config", "{tmp}/deep.json"], 1,
         "config error: {tmp}/deep.json: invalid JSON"),
    ] + _DECODE_CASES, ids=["bad-age", "missing-prompt-base", "wrong-json-type",
            "missing-model-path", "missing-eval-model", "lmch-negative-extents",
            "nul-corpus-path", "nul-model-path", "scene-not-json",
            "scene-not-an-object", "scene-unknown-modality", "scene-null-background",
            "scene-string-entity", "scene-nested-too-deep", "scene-unknown-key",
            "config-nested-too-deep",
            *(f"{site}-{fault}" for fault in DECODE_FAULTS
              for site in ("config-file", "cge1-header", "lmch-header"))])
    def test_exit_code_and_prefix(self, capsys, tmp_path, argv, code, prefix):
        (tmp_path / "bad.csv").write_text(BAD_BASE)
        (tmp_path / "typed.json").write_text('{"rows": "32"}')
        (tmp_path / "deep.json").write_text("[" * 10 ** 5)
        # a JSON config can name a path that no command line can: one with a NUL
        (tmp_path / "nul-corpus.json").write_text('{"corpus_path": "a\\u0000b"}')
        (tmp_path / "nul-model.json").write_text(
            '{"estimator": "cge", "model_path": "a\\u0000b"}')
        for fault, blob in DECODE_FAULTS.items():
            (tmp_path / f"{fault}.json").write_bytes(blob)
            for magic, suffix in ((b"CGE1", "cge"), (b"LMCH", "lmch")):
                (tmp_path / f"{fault}.{suffix}").write_bytes(
                    magic + struct.pack("<BI", 1, len(blob)) + blob)
        fileio.write_framed(tmp_path / "bad.lmch", b"LMCH", 1,
                            {"rows": -1, "cols": -8, "sigma_f": 0.0, "sigma_t": 0.0,
                             "count": 1, "seeds": [0]}, [bytes(64)])
        got, _, stderr = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
        assert got == code
        assert stderr.startswith(prefix.format(tmp=tmp_path)), stderr

