"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ``lammsc`` modules from outside the
program. A module that imported a function by name holds its own binding
(``pipeline`` does ``from .channel import gen_channel``), so the tracer
replaces every binding of the original function object in every loaded
``lammsc`` module, not only the defining one. A wrapped function that sees
no calls still reports 0, so a later refactor that routes around it shows
in the counts.

Spans live in memory as tuples and are written out when the run ends:
(id, name, parent id, message id, thread id, start, end, ok).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time

import numpy as np

# (module, attribute) of each wrapped module-level function; the span name is
# "<module>.<attribute>".
FUNCTIONS = (
    ("pipeline", "sweep"), ("pipeline", "run_pipeline"),
    ("channel", "gen_channel"), ("channel", "apply_channel"),
    ("channel", "ls_estimate"), ("channel", "nmse"),
    ("cge", "estimate"), ("cge", "make_condition"),
    ("cge", "make_training_set"), ("cge", "train_cgan"),
    ("nn", "adam_step"),
    ("codec", "modulate"), ("codec", "map_to_grid"), ("codec", "equalize"),
    ("codec", "demodulate"),
    ("mma", "scene_to_text"), ("mma", "text_to_scene"),
    ("mma", "transform_remote"),
    ("lkb", "personalize_extract"), ("lkb", "personalize_recover"),
    ("lkb", "personalize_remote"),
    ("semeval", "embed"), ("semeval", "cosine"), ("semeval", "embed_remote"),
    ("wire", "post_json"),
    ("corpus", "synthetic_corpus"),
)

GEN_LAYERS = 6
DISC_LAYERS = 4
PROBE_BATCH = 16  # the default TrainConfig batch size

# Every per-layer metric: (name, unit, better). BENCHMARK.json lists the same.
METRICS = [
    ("pipeline.sweep.self_s", "s", "lower"),
    ("pipeline.run_pipeline.calls", "count", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("pipeline.stage_errors", "count", "lower"),
    ("channel.gen_channel.calls", "count", "lower"),
    ("channel.gen_channel.busy_s", "s", "lower"),
    ("channel.gen_channel.calls_per_frame", "ratio", "lower"),
    ("channel.apply_channel.busy_s", "s", "lower"),
    ("channel.ls_estimate.busy_s", "s", "lower"),
    ("channel.nmse.busy_s", "s", "lower"),
    ("cge.estimate.calls", "count", "lower"),
    ("cge.estimate.busy_s", "s", "lower"),
    ("cge.estimate.grids_per_call", "ratio", "higher"),
    ("cge.make_condition.busy_s", "s", "lower"),
    ("cge.make_training_set.busy_s", "s", "lower"),
    ("cge.train_cgan.busy_s", "s", "lower"),
    ("nn.gen.forward_s", "s", "lower"),
    ("nn.gen.backward_s", "s", "lower"),
    ("nn.disc.forward_s", "s", "lower"),
    ("nn.disc.backward_s", "s", "lower"),
    ("nn.adam_step.busy_s", "s", "lower"),
    *[(f"nn.{net}.L{i}.{d}_s", "s", "lower")
      for net, n in (("gen", GEN_LAYERS), ("disc", DISC_LAYERS))
      for i in range(n) for d in ("fwd", "bwd")],
    ("nn.gen.fwd_b1_ms", "ms", "lower"),
    ("nn.gen.fwd_b64_ms_per_grid", "ms", "lower"),
    ("codec.frames", "count", "lower"),
    ("codec.modulate.busy_s", "s", "lower"),
    ("codec.map_to_grid.busy_s", "s", "lower"),
    ("codec.equalize.busy_s", "s", "lower"),
    ("codec.demodulate.busy_s", "s", "lower"),
    ("mma.scene_to_text.calls", "count", "lower"),
    ("mma.scene_to_text.busy_s", "s", "lower"),
    ("mma.scene_to_text.calls_per_msg", "ratio", "lower"),
    ("mma.text_to_scene.busy_s", "s", "lower"),
    ("mma.transform_remote.calls", "count", "lower"),
    ("mma.transform_remote.busy_s", "s", "lower"),
    ("lkb.personalize_extract.calls", "count", "lower"),
    ("lkb.personalize_extract.busy_s", "s", "lower"),
    ("lkb.personalize_recover.busy_s", "s", "lower"),
    ("lkb.personalize_remote.calls", "count", "lower"),
    ("lkb.personalize_remote.busy_s", "s", "lower"),
    ("semeval.embed.calls", "count", "lower"),
    ("semeval.embed.busy_s", "s", "lower"),
    ("semeval.cosine.busy_s", "s", "lower"),
    ("semeval.embed_remote.busy_s", "s", "lower"),
    ("wire.post_json.calls", "count", "lower"),
    ("wire.post_json.busy_s", "s", "lower"),
    ("wire.post_json.p50_ms", "ms", "lower"),
    ("wire.post_json.p99_ms", "ms", "lower"),
    ("wire.attempts_per_call", "ratio", "lower"),
    ("wire.errors", "count", "lower"),
    ("mockserve.handle.calls", "count", "lower"),
    ("mockserve.handle.busy_s", "s", "lower"),
    ("corpus.synthetic_corpus.busy_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _net_of(seq) -> str:
    """Generator or discriminator, told apart by the chain's layer shapes:
    the generator reads the 4 condition planes, the discriminator those
    plus the 2 gain planes."""
    layers = seq.layers
    planes = layers[0].weights.shape[1] if layers[0].kind == "conv" else None
    if len(layers) == GEN_LAYERS and planes == 4:
        return "gen"
    if len(layers) == DISC_LAYERS and planes == 6:
        return "disc"
    return "other"


class Tracer:
    """Span recorder; ``install`` patches the program, ``restore`` undoes it."""

    def __init__(self):
        self.spans = []
        self.message = None  # id shared by the spans of one transmission
        self.frames = 0
        self.grids = 0
        self.channel_draws = set()
        self.post_attempts = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name_of, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if before is not None:
                before(args, kwargs)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name_of(args), parent, tracer.message,
                                     threading.get_ident(), start, end, ok))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from lammsc import mockserve, nn, wire

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lammsc" or key.startswith("lammsc."))]
        hooks = {
            "pipeline.run_pipeline": (self._set_message, None),
            "channel.gen_channel": (None, self._count_draw),
            "cge.estimate": (None, self._count_grids),
            "codec.map_to_grid": (None, self._count_frames),
        }
        for module_name, attr in FUNCTIONS:
            module = sys.modules.get(f"lammsc.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue  # gone after a refactor: its metrics read 0
            name = f"{module_name}.{attr}"
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(original, lambda _a, n=name: n, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for method in ("forward", "backward"):
            self._patch(nn.Sequential, method, self._wrap(
                getattr(nn.Sequential, method),
                lambda a, m=method: f"nn.{_net_of(a[0])}.{m}"))
        self._patch(wire.requests, "post", self._wrap(
            wire.requests.post, lambda _a: "wire.requests_post",
            before=self._count_attempt))
        handler = getattr(mockserve, "_Handler", None)
        if handler is not None:
            self._patch(handler, "do_POST", self._wrap(
                handler.do_POST, lambda _a: "mockserve.handle"))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set_message(self, args, kwargs):
        self.message = kwargs.get("seed")

    def _count_draw(self, args, kwargs, result):
        self.channel_draws.add(kwargs.get("seed", args[0] if args else None))

    def _count_grids(self, args, kwargs, result):
        cond = np.asarray(args[1] if len(args) > 1 else kwargs["condition"])
        self.grids += 1 if cond.ndim == 3 else cond.shape[0]

    def _count_frames(self, args, kwargs, result):
        self.frames += len(result)

    def _count_attempt(self, args, kwargs):
        self.post_attempts += 1

    # -- summaries -----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, msg, thread, start, end, ok in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "msg": msg, "thread": thread,
                                     "start": start, "end": end, "ok": ok}))
                fh.write("\n")

    def metrics(self, messages: int, stage_errors: int, overhead_s: float) -> dict:
        """Per-layer metrics from the recorded spans; idle layers read 0."""
        child = {}
        for _sid, _name, parent, *_rest, start, end, _ok in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + end - start
        calls, busy, own, durations, errors = {}, {}, {}, {}, {}
        for sid, name, _parent, _msg, _thread, start, end, ok in self.spans:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child.get(sid, 0.0)
            durations.setdefault(name, []).append(end - start)
            errors[name] = errors.get(name, 0) + (not ok)

        def ratio(a, b):
            return a / b if b else 0.0

        def pct_ms(name, q):
            d = durations.get(name)
            return float(np.percentile(d, q)) * 1e3 if d else 0.0

        out = {
            "pipeline.stage_errors": stage_errors,
            "channel.gen_channel.calls_per_frame": ratio(
                calls.get("channel.gen_channel", 0), len(self.channel_draws)),
            "cge.estimate.grids_per_call": ratio(self.grids,
                                                 calls.get("cge.estimate", 0)),
            "nn.gen.forward_s": busy.get("nn.gen.forward", 0.0),
            "nn.gen.backward_s": busy.get("nn.gen.backward", 0.0),
            "nn.disc.forward_s": busy.get("nn.disc.forward", 0.0),
            "nn.disc.backward_s": busy.get("nn.disc.backward", 0.0),
            "codec.frames": self.frames,
            "mma.scene_to_text.calls_per_msg": ratio(
                calls.get("mma.scene_to_text", 0), messages),
            "wire.post_json.p50_ms": pct_ms("wire.post_json", 50),
            "wire.post_json.p99_ms": pct_ms("wire.post_json", 99),
            "wire.attempts_per_call": ratio(self.post_attempts,
                                            calls.get("wire.post_json", 0)),
            "wire.errors": errors.get("wire.post_json", 0),
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        }
        for metric, _unit, _better in METRICS:
            if metric in out:
                continue
            name, _, kind = metric.rpartition(".")
            source = {"calls": calls, "busy_s": busy, "self_s": own}.get(kind)
            if source is not None:
                out[metric] = source.get(name, 0)
        return out


# ---------------------------------------------------------------------------
# nn probes: each layer alone, at the training batch size

def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def nn_probes(rows: int, cols: int, seed: int, reps: int) -> dict:
    """Forward/backward time of every generator and discriminator layer.

    Each layer runs through a one-layer ``nn.Sequential`` at batch 16 on
    inputs shaped as in the full chain; the generator forward also runs
    whole at batch 1 and 64.
    """
    from lammsc import cge, nn

    rng = np.random.default_rng(seed)
    out = {}
    nets = (("gen", cge.build_generator(rows, cols, seed), cge.CONDITION_CHANNELS),
            ("disc", cge.build_discriminator(rows, cols, seed),
             cge.CONDITION_CHANNELS + cge.GAIN_CHANNELS))
    for net, layers, channels in nets:
        x = rng.standard_normal((PROBE_BATCH, channels, rows, cols)).astype(np.float32)
        for i, layer in enumerate(layers):
            seq = nn.Sequential([layer])
            y = seq.forward(x, record=True)
            dy = rng.standard_normal(y.shape).astype(np.float32)
            fwd, bwd = [], []
            for _ in range(reps):
                start = time.perf_counter()
                seq.forward(x, record=True)
                mid = time.perf_counter()
                seq.backward(dy)
                fwd.append(mid - start)
                bwd.append(time.perf_counter() - mid)
            out[f"nn.{net}.L{i}.fwd_s"] = statistics.median(fwd)
            out[f"nn.{net}.L{i}.bwd_s"] = statistics.median(bwd)
            x = y
    gen = nn.Sequential(nets[0][1])
    for batch, metric in ((1, "nn.gen.fwd_b1_ms"), (64, "nn.gen.fwd_b64_ms_per_grid")):
        x = rng.standard_normal((batch, cge.CONDITION_CHANNELS, rows, cols)
                                ).astype(np.float32)
        out[metric] = _median_s(lambda x=x: gen.forward(x), reps) * 1e3 / batch
    return out
