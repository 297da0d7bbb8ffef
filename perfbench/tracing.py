"""Outside-in tracing of the dpl modules for the benchmark's traced run.

The tracer replaces public functions and methods of dpl where their
callers look them up (``dpl.trainer.generator_step``, ``dpl.cli.ms_ssim``,
``dpl.tensor.conv2d``, ``Conv2dLayer.__call__``...) with wrappers that
record a span: name, start, end, parent span and unit id (one id per
training iteration). Backward time is measured by wrapping the rules a
traced call appends to the active tape: ``ComputationTape.record`` is
patched so that every rule recorded while a backward-tracked span is open
is timed when ``backward`` replays it and charged to every such span.

Times and counts are summed per ``<stage>.<name>``; the stage (setup,
pretrain, train, eval) is set by the benchmark around each CLI command and
switched to ``train`` inside ``run_training``. Spans stay in memory until
``write_spans`` is called at the end of the run. ``uninstall`` restores
every patched attribute.
"""

from __future__ import annotations

import csv
import functools
import resource
import time
import weakref
from collections import defaultdict

_now = time.perf_counter

LAYERS = ("enc1", "enc2", "mid", "dec1", "dec2", "block1", "block2", "block3",
          "tap0_first", "tap0_second", "tap1_first", "tap1_second",
          "tap2_first", "tap2_second")


def _layer_metrics() -> dict[str, tuple[str, str, float, str]]:
    """metric -> (Tracer table, key in it, scale, unit)."""
    table = {}

    def ms(metric, key):
        table[metric] = ("seconds", key, 1000.0, "ms")

    def count(metric, key, unit="count"):
        table[metric] = ("counts", key, 1.0, unit)

    for what in ("synth.generate", "image.save_image", "cli.read_pairs", "checkpoint.load"):
        ms(f"setup.{what}_ms", f"setup.{what}.fwd")
    ms("pretrain.tensor.conv2d.fwd_ms", "pretrain.tensor.conv2d.fwd")
    ms("pretrain.tensor.conv2d.bwd_ms", "pretrain.tensor.conv2d.bwd")
    for what in ("tensor.backward", "optim.adam_step", "networks.accuracy", "checkpoint.save"):
        ms(f"pretrain.{what}_ms", f"pretrain.{what}.fwd")
    ms("train.tensor.conv2d.fwd_ms", "train.tensor.conv2d.fwd")
    ms("train.tensor.conv2d.bwd_ms", "train.tensor.conv2d.bwd")
    count("train.tensor.conv2d.calls", "train.tensor.conv2d.calls")
    count("train.tensor.conv2d.gflop", "train.tensor.conv2d.gflop", "GFLOP")
    ms("train.tensor.backward_ms", "train.tensor.backward.fwd")
    count("train.tensor.tape_entries", "train.tensor.tape_entries")
    ms("train.trainer.untaped_generator_fwd_ms", "train.trainer.untaped_generator.fwd")
    for what in ("generator_step", "selector_accumulate", "selector_apply", "build_triplet"):
        ms(f"train.trainer.{what}_ms", f"train.trainer.{what}.fwd")
    count("train.trainer.selector_apply_count", "train.trainer.selector_apply.calls")
    table["train.trainer.hinge_active_ratio"] = ("ratio", "", 1.0, "ratio")
    for net in ("generator", "psi", "phi"):
        count(f"train.networks.{net}.calls", f"train.networks.{net}.calls")
    for layer in LAYERS:
        ms(f"train.networks.{layer}.fwd_ms", f"train.networks.{layer}.fwd")
        ms(f"train.networks.{layer}.bwd_ms", f"train.networks.{layer}.bwd")
    for loss in ("perceptual", "contextual", "triplet"):
        ms(f"train.losses.{loss}.fwd_ms", f"train.losses.{loss}.fwd")
        ms(f"train.losses.{loss}.bwd_ms", f"train.losses.{loss}.bwd")
    count("train.proc.minflt", "train.proc.minflt")
    ms("train.proc.sys_ms", "train.proc.sys")
    ms("train.optim.adam_step_ms", "train.optim.adam_step.fwd")
    ms("train.image.augment_ms", "train.image.augment.fwd")
    ms("eval.networks.generator.fwd_ms", "eval.networks.generator.fwd")
    for what in ("psnr", "ms_ssim", "dfd"):
        ms(f"eval.metrics.{what}_ms", f"eval.metrics.{what}.fwd")
    ms("eval.image.load_image_ms", "eval.image.load_image.fwd")
    table["trace.overhead_ms"] = ("overhead", "", 1.0, "ms")
    return table


LAYER_METRICS = _layer_metrics()


class Tracer:
    def __init__(self):
        self.stage = "setup"
        self.unit = 0
        self.spans: list[list] = []  # [name, start, end, parent index, unit]
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._scopes: list[str] = []  # open spans whose backward rules are timed
        self._patches: list[tuple[object, str, object]] = []
        self._layer_names = weakref.WeakKeyDictionary()
        self._rusage = None

    # -- spans ----------------------------------------------------------------

    def _call(self, name, bwd, fn, args, kwargs):
        self.counts[f"{self.stage}.{name}.calls"] += 1
        idx = len(self.spans)
        span = [name, _now(), 0.0, self._open[-1] if self._open else -1, self.unit]
        self.spans.append(span)
        self._open.append(idx)
        if bwd:
            self._scopes.append(name)
        try:
            return fn(*args, **kwargs)
        finally:
            if bwd:
                self._scopes.pop()
            self._open.pop()
            span[2] = _now()
            self.seconds[f"{self.stage}.{name}.fwd"] += span[2] - span[1]

    def _timed_rule(self, rule, scopes: tuple[str, ...]):
        def timed(g):
            start = _now()
            result = rule(g)
            end = _now()
            self.spans.append([f"{scopes[-1]}.bwd", start, end,
                               self._open[-1] if self._open else -1, self.unit])
            for name in scopes:
                self.seconds[f"{self.stage}.{name}.bwd"] += end - start
            return result
        return timed

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, bwd=False) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, bwd, fn, args, kwargs)

        self._patch(owner, attr, traced)

    def install(self, dpl) -> None:
        """Patch the modules of the imported ``dpl`` package."""
        cli, nets, T, trainer = dpl.cli, dpl.networks, dpl.tensor, dpl.trainer
        tracer = self

        for attr, name in [("generate_synthetic", "synth.generate"),
                           ("save_image", "image.save_image"),
                           ("load_image", "image.load_image"),
                           ("_read_pairs", "cli.read_pairs"),
                           ("load_checkpoint", "checkpoint.load"),
                           ("save_checkpoint", "checkpoint.save"),
                           ("psnr", "metrics.psnr"),
                           ("ms_ssim", "metrics.ms_ssim"),
                           ("feature_distance", "metrics.dfd")]:
            self.wrap(cli, attr, name)
        for attr, name, bwd in [("generator_step", "trainer.generator_step", False),
                                ("selector_accumulate", "trainer.selector_accumulate", False),
                                ("selector_apply", "trainer.selector_apply", False),
                                ("build_triplet", "trainer.build_triplet", False),
                                ("augment", "image.augment", False),
                                ("perceptual_loss", "losses.perceptual", True),
                                ("contextual_loss", "losses.contextual", True),
                                ("triplet_loss", "losses.triplet", True)]:
            self.wrap(trainer, attr, name, bwd)
        self.wrap(T, "backward", "tensor.backward")
        self.wrap(dpl.optim.Adam, "step", "optim.adam_step")
        self.wrap(nets, "accuracy", "networks.accuracy")
        self.wrap(nets.FeatureNetPsi, "__call__", "networks.psi")
        self.wrap(nets.SelectionPhi, "__call__", "networks.phi")

        conv2d = T.conv2d

        @functools.wraps(conv2d)
        def traced_conv2d(x, weight, bias, stride=1, padding=0):
            c, h, w = x.shape
            o, _, kh, kw = weight.shape
            h_out = (h + 2 * padding - kh) // stride + 1
            w_out = (w + 2 * padding - kw) // stride + 1
            tracer.counts[f"{tracer.stage}.tensor.conv2d.gflop"] += (
                2e-9 * o * h_out * w_out * c * kh * kw)
            return tracer._call("tensor.conv2d", True, conv2d,
                                (x, weight, bias, stride, padding), {})

        self._patch(T, "conv2d", traced_conv2d)

        layer_call = nets.Conv2dLayer.__call__

        @functools.wraps(layer_call)
        def traced_layer(layer, x):
            name = tracer._layer_names.get(layer, "conv")
            return tracer._call(f"networks.{name}", True, layer_call, (layer, x), {})

        self._patch(nets.Conv2dLayer, "__call__", traced_layer)

        for net in (nets.GeneratorF, nets.FeatureNetPsi, nets.SelectionPhi):
            self._patch(net, "__init__", self._naming_init(net.__init__))

        generator_call = nets.GeneratorF.__call__

        @functools.wraps(generator_call)
        def traced_generator(f, x):
            if tracer.stage != "train" or T.active_tape() is not None:
                return tracer._call("networks.generator", False, generator_call, (f, x), {})
            # the untaped forward that feeds the triplet
            return tracer._call("trainer.untaped_generator", False,
                                tracer._call, ("networks.generator", False,
                                               generator_call, (f, x), {}), {})

        self._patch(nets.GeneratorF, "__call__", traced_generator)

        record = T.ComputationTape.record

        @functools.wraps(record)
        def traced_record(tape, out, rule):
            tracer.counts[f"{tracer.stage}.tensor.tape_entries"] += 1
            if tracer._scopes:
                rule = tracer._timed_rule(rule, tuple(tracer._scopes))
            return record(tape, out, rule)

        self._patch(T.ComputationTape, "record", traced_record)

        accumulate = trainer.selector_accumulate

        @functools.wraps(accumulate)
        def counted_accumulate(*args, **kwargs):
            value = accumulate(*args, **kwargs)
            tracer.counts[f"{tracer.stage}.trainer.hinge_active"] += value > 0
            return value

        self._patch(trainer, "selector_accumulate", counted_accumulate)

    def _naming_init(self, init):
        tracer = self

        @functools.wraps(init)
        def naming_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            for name, layer in net._layers().items():
                tracer._layer_names[layer] = name

        return naming_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- training stage, driven by the benchmark's run_training wrapper -------

    def enter_training(self) -> None:
        self.stage = "train"
        self._rusage = resource.getrusage(resource.RUSAGE_SELF)

    def iteration_done(self) -> None:
        self.unit += 1

    def leave_training(self) -> None:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        self.counts["train.proc.minflt"] += ru.ru_minflt - self._rusage.ru_minflt
        self.seconds["train.proc.sys"] += ru.ru_stime - self._rusage.ru_stime
        self.stage = "post"

    # -- output ---------------------------------------------------------------

    def layer_metrics(self, units: dict[str, float], overhead_ms: float) -> dict:
        """Every per-layer metric as (value, unit). ``units`` maps each stage
        to its count of set-ups, pretraining samples, training iterations or
        eval pairs; every sum is divided by the count of its stage."""
        out = {}
        for metric, (table, key, scale, unit) in LAYER_METRICS.items():
            if table == "overhead":
                value = overhead_ms
            elif table == "ratio":
                tried = self.counts["train.trainer.selector_accumulate.calls"]
                value = self.counts["train.trainer.hinge_active"] / tried if tried else 0.0
            else:
                value = getattr(self, table).get(key, 0.0) * scale / units[metric.split(".")[0]]
            out[metric] = (value, unit)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "unit"])
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, unit])
