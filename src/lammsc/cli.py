"""Command-line interface.

Subcommands: gen-channels, train-cge, eval-cge, run, sweep, mock-serve.
Every pipeline flag mirrors a PipelineConfig field; a JSON config file
supplies defaults and explicit flags override it. Exit codes: 0 success,
1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import cge, channel, corpus, pipeline
from .errors import ConfigError, LamMscError
from .fileio import atomic_open, check_writable
from .mma import ScenePayload, scene_from_json, scene_to_json
from .mockserve import MockServer


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _parse_snr_list(value: str) -> list[float]:
    return [float(part) for part in value.split(",") if part.strip()]


def _parse_str_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


# flag parser per PipelineConfig field annotation
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "list[float]": _parse_snr_list, "list[str] | None": _parse_str_list}
_CONFIG_FLAGS = [(f.name, _PARSERS[f.type])
                 for f in dataclasses.fields(pipeline.PipelineConfig)]


def _add_config_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file with PipelineConfig keys")
    for name, coerce in _CONFIG_FLAGS:
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=coerce,
                         default=None)


def _config_from_args(args) -> pipeline.PipelineConfig:
    cfg = (pipeline.PipelineConfig.from_file(args.config) if args.config
           else pipeline.PipelineConfig())
    for name, _ in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def _record_to_dict(rec: pipeline.TransmissionRecord) -> dict:
    out = dataclasses.asdict(rec)
    for key in ("input_payload", "recovered_payload"):
        value = getattr(rec, key)
        out[key] = scene_to_json(value) if isinstance(value, ScenePayload) else value
    return out


def _check_count(count: int) -> None:
    if count < 1:
        raise ConfigError(f"--count must be >= 1, got {count}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_channels(args) -> int:
    pipeline.PipelineConfig(rows=args.rows, cols=args.cols, sigma_f=args.sigma_f,
                            sigma_t=args.sigma_t).validate()
    _check_count(args.count)
    check_writable(args.out)
    rng_seeds = [pipeline.derive_seed(args.seed, i) for i in range(args.count)]
    grids = [channel.gen_channel(s, args.rows, args.cols, args.sigma_f,
                                 args.sigma_t) for s in rng_seeds]
    channel.save_channel_dataset(args.out, grids)
    print(f"wrote {args.count} {args.rows}x{args.cols} channel grids to {args.out}")
    return 0


def _cmd_train_cge(args) -> int:
    cfg = _config_from_args(args).validate()
    pattern = cfg.pilot_pattern()
    snr = cfg.snr_db[0]
    hyper = cge.TrainConfig(epochs=args.epochs, batch_size=args.batch)
    realizations = args.channels and channel.load_channel_dataset(args.channels)
    cge.check_training_setup(hyper, len(realizations) if args.channels else args.pairs,
                             cfg.rows, cfg.cols)
    for flag, seed in (("--seed", args.seed), ("--data-seed", args.data_seed)):
        if seed < 0:
            raise ConfigError(f"{flag} must be non-negative, got {seed}")
    grid = realizations and realizations[0].gains.shape
    if grid and grid != (cfg.rows, cfg.cols):
        raise ConfigError(f"channel dataset {args.channels} holds {grid[0]}x"
                          f"{grid[1]} grids, config grid is {cfg.rows}x{cfg.cols}")
    check_writable(args.out)
    if args.channels:
        pairs = cge.pairs_from_realizations(realizations, pattern, snr,
                                            noise_seed=args.data_seed)
    else:
        pairs = cge.make_training_set(args.pairs, cfg.rows, cfg.cols, cfg.sigma_f,
                                      cfg.sigma_t, pattern, snr, args.data_seed)
    def report(epoch, history):
        print(f"epoch {epoch + 1}/{hyper.epochs}: d_loss {history.d_loss[-1]:.6g} "
              f"g_loss {history.g_loss[-1]:.6g} val_nmse {history.val_nmse[-1]:.6g}",
              file=sys.stderr, flush=True)

    model = cge.train_cgan(pairs, hyper, seed=args.seed, on_epoch=report)
    cge.save_model(model, args.out)
    print(f"trained {args.epochs} epochs on {len(pairs)} pairs at {snr:g} dB; "
          f"validation NMSE {model.history.val_nmse[-1]:.4f}; saved to {args.out}")
    return 0


def _cmd_eval_cge(args) -> int:
    _check_count(args.count)
    cfg = _config_from_args(args)
    cfg.model_path = _required_input(args, cfg, "model")
    model = pipeline._load_model(cfg.validate())
    pattern = cfg.pilot_pattern()
    if args.out:
        check_writable(args.out)
    lines = ["snr_db,cge_nmse,ls_nmse,n"]
    for snr in cfg.snr_db:
        pairs = cge.make_training_set(
            args.count, cfg.rows, cfg.cols, cfg.sigma_f, cfg.sigma_t, pattern, snr,
            seed=pipeline.derive_seed(args.seed, pipeline._snr_key(snr)))
        conds, gains = (np.stack(part) for part in zip(*pairs))
        # LS reads only the pilot cells, which the condition planes keep
        ls_nmse = np.mean(channel.nmse(channel.ls_estimate(
            cge.planes_to_gains(conds), pattern), gains))
        lines.append(f"{snr:.6g},{cge.evaluate_nmse(model, pairs):.6g},"
                     f"{ls_nmse:.6g},{args.count}")
    table = "\n".join(lines) + "\n"
    if args.out:
        with atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    print(table, end="")
    return 0


def _required_input(args, cfg, name: str) -> str:
    """The path of input ``name`` from ``--<name>``, else from ``<name>_path``."""
    path = getattr(args, name) or getattr(cfg, f"{name}_path")
    if not path:
        raise ConfigError(f"{args.command} needs a {name} (--{name} or {name}_path)")
    return path


def _load_corpus(args, cfg) -> list:
    return corpus.load_corpus(_required_input(args, cfg, "corpus"))


def _load_payload(args, cfg):
    if args.text is not None:
        return args.text
    if args.scene is not None:
        try:
            return scene_from_json(args.scene)
        except ValueError as exc:
            raise ConfigError(f"--scene: {exc}") from exc
    scenes = _load_corpus(args, cfg)
    if not 0 <= args.index < len(scenes):
        raise ConfigError(f"--index {args.index} out of range for corpus of "
                          f"{len(scenes)}")
    return scenes[args.index]


def _cmd_run(args) -> int:
    cfg = _config_from_args(args).validate()
    sender, receiver = pipeline.load_profiles(cfg)
    payload = _load_payload(args, cfg)
    record = pipeline.run_pipeline(payload, cfg, sender, receiver)
    print(json.dumps(_record_to_dict(record), indent=2, default=str))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args).validate()
    if args.out:
        check_writable(args.out)
    report = pipeline.sweep(cfg, _load_corpus(args, cfg))
    text = pipeline.format_report(report)
    if args.out:
        pipeline.write_report(report, args.out)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    if report.failures:
        print(f"stage failures: {json.dumps(report.failures, sort_keys=True)}",
              file=sys.stderr)
    return 0


def _cmd_mock_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise ConfigError(f"--port must be in 0..65535, got {args.port}")
    try:
        server = MockServer(args.host, args.port)
    except OSError as exc:
        raise LamMscError(f"cannot serve at {args.host}:{args.port}: {exc}") from exc
    print(f"mock endpoints at {server.url} (/transform /personalize /embed)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lammsc",
        description="Multimodal semantic-communication simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-channels", help="emit an LMCH channel dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=32)
    p.add_argument("--sigma-f", dest="sigma_f", type=float, default=4.0)
    p.add_argument("--sigma-t", dest="sigma_t", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_gen_channels)

    p = subs.add_parser("train-cge", help="train the GAN channel estimator")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--channels", help="LMCH dataset to train on")
    p.add_argument("--pairs", type=int, default=1024)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=7, help="training seed")
    p.add_argument("--data-seed", dest="data_seed", type=int, default=1)
    p.set_defaults(func=_cmd_train_cge)

    p = subs.add_parser("eval-cge", help="NMSE table: trained model vs LS")
    _add_config_flags(p)
    p.add_argument("--model")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=4242)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_cge)

    p = subs.add_parser("run", help="run one message through the pipeline")
    _add_config_flags(p)
    p.add_argument("--text", help="send a raw text payload")
    p.add_argument("--scene", help="send a JSON scene record")
    p.add_argument("--corpus", help="corpus file to draw the payload from")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("sweep", help="full (snr x estimator) sweep over a corpus")
    _add_config_flags(p)
    p.add_argument("--corpus")
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("mock-serve", help="serve the mock wire endpoints")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8099)
    p.set_defaults(func=_cmd_mock_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LamMscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        print(f"unexpected error: {exc}{notes}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
