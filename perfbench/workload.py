"""The two workloads: dpl CLI commands run in-process, timed and checked.

A run is a number of identical rounds. Each round is the whole pipeline a
user runs, in its own directory: ``dpl gen-data``, ``dpl pretrain``,
``dpl train``, ``dpl eval``. All rounds use the same seed, so they must
write the same bytes, and the timing samples of each stage are pooled over
rounds spread across the run: a stage is never timed in one short stretch
of the host's speed.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

RUNS = Path(__file__).resolve().parent / "runs"

SIZE = 32
TRAIN_COUNT = 100
VAL_COUNT = 200
PRETRAIN_SAMPLES = 600
HOLDOUT = max(1, int(PRETRAIN_SAMPLES * 0.1))  # pretrain_psi's default holdout_frac
METRICS = ("psnr", "ms_ssim", "dfd")
LR_GENERATOR = "5e-4"
ROUNDS = 3
WARMUP_ITERATIONS = 10
OUTPUTS = ("psi.dplc", "history.csv", "f.dplc", "report.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    mode: str
    train_flags: tuple[str, ...]
    iterations_per_second: int  # about one second of training each on the reference box

    def iterations(self, seconds: int) -> int:
        """Training iterations per round: the rounds together train for
        about ``seconds`` on the reference box."""
        return max(2 * WARMUP_ITERATIONS, self.iterations_per_second * seconds // ROUNDS)


WORKLOADS = {w.name: w for w in (
    Workload("pipeline_fs", "darken", "feature_selection",
             ("--dpl.strategy", "task_oriented", "--dpl.distortion", "color_jitter",
              "--dpl.w_perceptual", "1", "--dpl.w_contextual", "0"), 30),
    Workload("train_ctx_frozen", "darken", "frozen",
             ("--dpl.w_perceptual", "1", "--dpl.w_contextual", "1"), 10),
)}


class TrainClock:
    """Wraps ``dpl.cli.run_training`` to stamp its entry (the end of set-up)
    and every call of the ``sample_hook`` it receives (one per iteration),
    and to switch the tracer, if any, to the train stage."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.entry = 0.0
        self.ticks: list[float] = []
        self._original = cli.run_training

    def __enter__(self):
        clock, original = self, self._original

        def run_training(*args, sample_hook=None, **kwargs):
            clock.entry = time.perf_counter()
            clock.ticks = []
            tracer = clock.tracer
            if tracer is not None:
                tracer.enter_training()

            def hook(*hook_args):
                clock.ticks.append(time.perf_counter())
                if tracer is not None:
                    tracer.stage = "hook"
                if sample_hook is not None:
                    sample_hook(*hook_args)
                if tracer is not None:
                    tracer.stage = "train"
                    tracer.iteration_done()

            try:
                return original(*args, sample_hook=hook, **kwargs)
            finally:
                if tracer is not None:
                    tracer.leave_training()

        self.cli.run_training = run_training
        return self

    def __exit__(self, *exc):
        self.cli.run_training = self._original
        return False

    def steady_iteration_ms(self) -> list[float]:
        """Per-iteration wall ms after the warm-up iterations."""
        return intervals_ms([self.entry, *self.ticks])[WARMUP_ITERATIONS:]


@contextlib.contextmanager
def call_stamps(owner, attr: str):
    """Yields a list that gets the time of every call of ``owner.attr``
    made inside the block."""
    original = owner.__dict__[attr]
    stamps: list[float] = []

    @functools.wraps(original)
    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return original(*args, **kwargs)

    setattr(owner, attr, stamped)
    try:
        yield stamps
    finally:
        setattr(owner, attr, original)


def intervals_ms(stamps) -> list[float]:
    return [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


class Session:
    """Runs dpl commands in-process and counts operations per kind."""

    KINDS = ("cli_command", "pretrain_sample", "train_iteration", "eval_pair")

    def __init__(self, cli, log_path: Path, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.log_path = log_path
        self.attempted = dict.fromkeys(self.KINDS, 0)
        self.failed = dict.fromkeys(self.KINDS, 0)

    def dpl(self, stage: str, *argv: str) -> float:
        """Run one command; returns its wall seconds, raises on a nonzero exit."""
        if self.tracer is not None:
            self.tracer.stage = stage
        self.attempted["cli_command"] += 1
        with open(self.log_path, "a") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            code = self.cli.main(list(argv))
            seconds = time.perf_counter() - start
        if code != 0:
            self.failed["cli_command"] += 1
            raise checks.CheckFailed(f"dpl {' '.join(argv)} exited {code}")
        return seconds

    def count(self, kind: str, n: int) -> None:
        self.attempted[kind] += n


@dataclass
class Round:
    setup_s: float
    samples_ms: dict[str, list[float]]  # per pretraining sample, iteration, eval pair
    epochs: int
    means: dict[str, float]
    baseline_psnr: float


def run_round(dpl, session: Session, clock: TrainClock, work: Workload, seed: int,
              iterations: int, out: Path) -> Round:
    """gen-data, pretrain, train and eval into ``out``, every output checked."""
    common = ["--out_dir", str(out), "--seed", str(seed), "--size", str(SIZE),
              "--train_count", str(TRAIN_COUNT), "--val_count", str(VAL_COUNT),
              "--metrics", ",".join(METRICS)]
    gen_s = session.dpl("setup", "gen-data", "--task", work.task, *common)

    with call_stamps(dpl.optim.Adam, "step") as steps:  # one step per sample
        session.dpl("pretrain", "pretrain", *common, "--pretrain.samples", str(PRETRAIN_SAMPLES))
    epochs = checks.check_pretrain_log(out / "pretrain_accuracy.log")
    samples = epochs * (PRETRAIN_SAMPLES - HOLDOUT)
    if len(steps) != samples:
        raise checks.CheckFailed(f"{len(steps)} pretraining steps for {samples} samples")
    session.count("pretrain_sample", samples)

    # set-up ends where the first iteration starts, at run_training's entry
    start = time.perf_counter()
    session.dpl("setup", "train", *common, "--dpl.mode", work.mode, *work.train_flags,
                "--dpl.lr_generator", LR_GENERATOR, "--dpl.iterations", str(iterations),
                "--train.sample_every", str(iterations))
    setup_s = gen_s + clock.entry - start
    session.count("train_iteration", iterations)
    iter_ms = clock.steady_iteration_ms()
    checks.check_history(out / "history.csv", iterations, work.mode)

    with call_stamps(dpl.cli, "psnr") as pairs:  # the first metric of each pair
        session.dpl("eval", "eval", *common)
    session.count("eval_pair", VAL_COUNT)
    means = checks.check_report(out / "report.csv", VAL_COUNT, METRICS)
    baseline = checks.identity_psnr(out / "val")
    checks.check_beats_identity(means["psnr"], baseline)

    return Round(setup_s, {"pretrain_sample": intervals_ms(steps), "train_iter": iter_ms,
                           "eval_pair": intervals_ms(pairs)}, epochs, means, baseline)


def run(dpl, work: Workload, seed: int, seconds: int, import_s: float, tracer=None) -> dict:
    """Run one workload; returns the result object the benchmark prints.

    Untraced: ROUNDS rounds. Traced: one traced round, then one untraced
    round for the tracing overhead.
    """
    run_dir = RUNS / f"{work.name}-s{seed}-t{int(tracer is not None)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    session = Session(dpl.cli, run_dir / "cli.log", tracer)
    iterations = work.iterations(seconds)
    rounds: list[Round] = []
    metrics = {}
    try:
        with TrainClock(dpl.cli, tracer) as clock:
            for k in range(2 if tracer is not None else ROUNDS):
                if k == 1 and tracer is not None:
                    tracer.uninstall()
                    clock.tracer = session.tracer = None
                out = run_dir / f"round{k}"
                rounds.append(run_round(dpl, session, clock, work, seed, iterations, out))
                for name in OUTPUTS:  # the same seed must give the same bytes
                    if (out / name).read_bytes() != (run_dir / "round0" / name).read_bytes():
                        raise checks.CheckFailed(f"{out / name} differs from round 0")
        pooled = {stage: [v for r in rounds for v in r.samples_ms[stage]]
                  for stage in rounds[0].samples_ms}
        for stage, values in pooled.items():
            (run_dir / f"{stage}_ms.txt").write_text("".join(f"{v:.4f}\n" for v in values))
            print(f"{stage}: {len(values)} samples, median {statistics.median(values):.4f} ms, "
                  f"p90 {percentile(values, 0.9):.4f} ms")
        if tracer is None:
            metrics = {
                "setup_s": (import_s + statistics.median(r.setup_s for r in rounds), "s"),
                "pretrain_sample_p90_ms": (percentile(pooled["pretrain_sample"], 0.9), "ms"),
                "train_iter_p90_ms": (percentile(pooled["train_iter"], 0.9), "ms"),
                "eval_pair_p90_ms": (percentile(pooled["eval_pair"], 0.9), "ms"),
                "val_psnr_db": (rounds[0].means["psnr"], "dB"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            traced, untraced = (r.samples_ms["train_iter"] for r in rounds)
            units = {"setup": 1, "pretrain": len(rounds[0].samples_ms["pretrain_sample"]) + 1,
                     "train": iterations, "eval": VAL_COUNT}
            metrics = tracer.layer_metrics(
                units, percentile(traced, 0.9) - percentile(untraced, 0.9))
            tracer.write_spans(run_dir / "spans.csv")
        first = rounds[0]
        print(f"{work.name} seed {seed}: {len(rounds)} rounds of {iterations} iterations "
              f"({WARMUP_ITERATIONS} warm-up each), "
              f"{first.epochs} pretraining epochs, {VAL_COUNT} eval pairs; "
              f"val psnr {first.means['psnr']:.4f} dB (identity {first.baseline_psnr:.4f}), "
              f"ms_ssim {first.means['ms_ssim']:.6f}, dfd {first.means['dfd']:.6g}",
              file=sys.stderr)
        correct = True
    except checks.CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False
    for kind in Session.KINDS:
        print(f"{kind}: attempted {session.attempted[kind]} failed {session.failed[kind]}")
    return {
        "correct": correct,
        "attempted": sum(session.attempted.values()),
        "failed": sum(session.failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
