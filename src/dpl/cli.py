"""Command-line harness: dataset generation, extractor pretraining,
transformation training, evaluation, and standalone distortion.

Exit codes: 0 success, 1 usage/config error or out of memory, 2 pretraining
accuracy gate, 3 numerical halt during pretraining or training, 130
interrupted (Ctrl-C, or SIGTERM while ``main`` runs in the main thread).

Before a command runs, the outputs an earlier run left under ``out_dir`` (as
``COMMANDS`` names them) and those derived from them are removed, so a command
that fails leaves none, and no output outlives what it was derived from.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import re
import signal
import sys
import threading
from collections.abc import Sequence
from pathlib import Path

from .checkpoint import CheckpointError, atomic_write, load_checkpoint, save_checkpoint
from .config import SCHEMA, ConfigError, ExperimentConfig, emit_config, parse_config
from .image import (Image, ImageError, decode_ppm, from_tensor, load_image, load_ppm, save_image,
                    to_tensor)
from .metrics import MS_SSIM_MIN_EXTENT, MetricError, feature_distance, ms_ssim, psnr
from .networks import (EXTENTS_RULE, PRETRAIN_GATE, FeatureNetPsi, GeneratorF, NetworkError,
                       PretrainingDiverged, SelectionPhi, pretrain_psi, takes_extents)
from .rng import Rng
from .synth import generate_synthetic
from .trainer import (LOSSES, TrainingFailed, TrainingHalted, TrainingInterrupted, distort,
                      run_training, triplet_crop)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRETRAIN_GATE = 2
EXIT_NUMERIC_HALT = 3
EXIT_INTERRUPTED = 130  # the shell's code for a run ended by SIGINT


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="config file (key = value lines, # comments)")
    for key, spec in SCHEMA.items():
        text = spec.help or "config override"
        parser.add_argument(f"--{key}", metavar="VALUE", default=None, dest=key,
                            help=f"{text} (default: {spec.default})")


def _load_config(args) -> ExperimentConfig:
    overrides = {key: getattr(args, key) for key in SCHEMA
                 if getattr(args, key, None) is not None}
    return parse_config(args.config, overrides)


def _write_pairs(directory: Path, pairs, seed: int) -> None:
    """Write each pair as it is drawn, then the manifest that lists them."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"seed {seed}"]
    for i, (x, y) in enumerate(pairs, start=1):
        # string paths: pathlib interns each new name, and a growing table of
        # interned strings would be reallocated inside this loop
        names = f"{i:04d}_x.ppm", f"{i:04d}_y.ppm"
        save_image(x, os.path.join(directory, names[0]))
        save_image(y, os.path.join(directory, names[1]))
        lines.append(" ".join(names))
    with atomic_write(directory / "manifest.txt") as f:
        f.write("\n".join(lines) + "\n")


class _Pairs(Sequence):
    """Image pairs held as their uint8 PPM payloads; indexing decodes one pair."""

    def __init__(self, payloads):
        self._payloads = payloads

    def __len__(self) -> int:
        return len(self._payloads)

    def __getitem__(self, index) -> tuple[Image, Image]:
        x, y = self._payloads[index]
        return decode_ppm(x), decode_ppm(y)


def _read_pairs(directory: Path, square: bool = False, min_extent: int = 0,
                needs: str = "") -> Sequence[tuple[Image, Image]]:
    """The pairs of ``directory/manifest.txt``; a pair the caller cannot use
    is refused naming its line, a pair under ``min_extent`` as smaller than
    ``needs``."""
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise ConfigError(f"no manifest at {manifest}; run gen-data first")
    try:
        lines = manifest.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{manifest} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    first = lines[0] if lines else ""
    if not re.fullmatch(r"seed -?\d+", first):
        raise ConfigError(f"{manifest}:1: expected `seed N`, got {first!r}")
    payloads = []
    for lineno, line in enumerate(lines[1:], start=2):
        names = line.split()
        if len(names) != 2:
            raise ConfigError(f"{manifest}:{lineno}: expected two image names, got {line!r}")
        x, y = (load_ppm(directory / name) for name in names)
        h, w, _ = x.shape
        if x.shape != y.shape:
            raise ConfigError(f"{manifest}:{lineno}: shape mismatch, {names[0]} is "
                              f"{h}x{w} but {names[1]} is {y.shape[0]}x{y.shape[1]}")
        where = f"{manifest}:{lineno}: {names[0]} and {names[1]} are {h}x{w}"
        if not takes_extents(h, w):
            raise ConfigError(f"{where}, but the networks need {EXTENTS_RULE}")
        if square and h != w:
            raise ConfigError(f"{where}, but dpl.augment rotates pairs, which needs square "
                              "images; set dpl.augment false")
        if min(h, w) < min_extent:
            raise ConfigError(f"{where}, smaller than {needs}")
        payloads.append((x, y))
    if not payloads:
        raise ConfigError(f"{manifest} lists no pairs; run gen-data first")
    return _Pairs(payloads)


def _load_net(net, path, written_by: str) -> None:
    """Load ``net`` from the checkpoint at ``path``; a checkpoint of another
    network is refused naming the file and the command that writes it."""
    try:
        net.load_state_dict(load_checkpoint(path, written_by))
    except NetworkError as e:
        raise CheckpointError(f"{path}: {e}; `{written_by}` writes it") from None


def cmd_gen_data(config: ExperimentConfig, args) -> int:
    out = Path(config["out_dir"])
    rng = Rng(config["seed"])
    train = generate_synthetic(config["task"], config["train_count"], config["size"],
                               rng.child(10))
    val = generate_synthetic(config["task"], config["val_count"], config["size"],
                             rng.child(20))
    _write_pairs(out / "train", train, config["seed"])
    _write_pairs(out / "val", val, config["seed"])
    print(f"wrote {config['train_count']} train and {config['val_count']} val pairs under {out}")
    return EXIT_OK


def cmd_pretrain(config: ExperimentConfig, args) -> int:
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    rng = Rng(config["seed"])
    log_lines: list[str] = []

    def log(msg, stream=None):
        log_lines.append(msg)
        print(msg, file=stream)

    code = EXIT_OK
    try:
        data = [(to_tensor(img), label) for img, label in generate_synthetic(
            "textures", config["pretrain.samples"], config["size"], rng.child(30))]
        psi = FeatureNetPsi(rng.child(31))
        accuracy = pretrain_psi(psi, data, config["pretrain.epochs"], rng.child(32),
                                lr=config["pretrain.lr"], log=log)
        if accuracy < PRETRAIN_GATE:
            code = EXIT_PRETRAIN_GATE
            log(f"gate failed: held-out accuracy {accuracy:.2%} < {PRETRAIN_GATE:.0%}; "
                "psi.dplc not written")
    except PretrainingDiverged as e:
        code = EXIT_NUMERIC_HALT
        log(f"numerical halt: {e}; psi.dplc not written")
    except KeyboardInterrupt:
        code = EXIT_INTERRUPTED
        log("interrupted; psi.dplc not written", sys.stderr)
    with atomic_write(out / "pretrain_accuracy.log") as fh:
        fh.write("\n".join(log_lines) + "\n")
    if code == EXIT_OK:
        save_checkpoint(psi.state_dict(), out / "psi.dplc")
        print(f"saved extractor checkpoint, held-out accuracy {accuracy:.2%}")
    return code


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _os_error_line(e: OSError) -> str:
    """The one line that reports an OSError, naming its path if it has one."""
    where = f"{e.filename}: " if e.filename is not None else ""
    return f"error: {where}{e.strerror or e}"


def _write_history(path: Path, history) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "generator_loss", *LOSSES, "d_c", "f_norm", "phi_norm"])
        for row in history:
            writer.writerow([
                row.iteration, _fmt(row.generator_loss),
                *(_fmt(row.components.get(name, 0.0)) for name in LOSSES),
                _fmt(row.d_c), _fmt(row.f_norm), _fmt(row.phi_norm),
            ])


def cmd_train(config: ExperimentConfig, args) -> int:
    out = Path(config["out_dir"])
    samples_dir = out / "samples"
    sample_every = config["train.sample_every"]

    def sample_hook(it, gen, x_img, y_img):
        if (it + 1) % sample_every:
            return
        samples_dir.mkdir(parents=True, exist_ok=True)
        x_gen = from_tensor(gen(to_tensor(x_img)).detach())
        save_image(x_img, samples_dir / f"iter{it + 1:06d}_x.ppm")
        save_image(x_gen, samples_dir / f"iter{it + 1:06d}_gen.ppm")
        save_image(y_img, samples_dir / f"iter{it + 1:06d}_y.ppm")

    def no_generator(history, message: str, code: int, stream) -> int:
        if out.is_dir():  # an interrupt can come before a missing out_dir is reported
            _write_history(out / "history.csv", history)
        print(message, file=stream)
        return code

    history = None  # the rows of a finished run
    try:
        crop = triplet_crop(config)
        pairs = _read_pairs(out / "train", square=config["dpl.augment"], min_extent=crop,
                            needs=f"the triplet crop dpl.crop {crop}")
        psi = FeatureNetPsi(Rng(0))
        _load_net(psi, out / "psi.dplc", "dpl pretrain")
        rng = Rng(config["seed"])
        f = GeneratorF(rng.child(40))
        phi = SelectionPhi(rng.child(41))
        _, history = run_training(config, pairs, f, psi, phi, rng.child(42),
                                  sample_hook=sample_hook)
        _write_history(out / "history.csv", history)
        save_checkpoint(f.state_dict(), out / "f.dplc")
    except TrainingInterrupted as e:
        return no_generator(e.history, f"{e}; history.csv holds {len(e.history)} "
                            "iterations, f.dplc not written",
                            EXIT_INTERRUPTED, sys.stderr)
    except TrainingFailed as e:
        return no_generator(e.history, _os_error_line(e.__cause__), EXIT_USAGE, sys.stderr)
    except TrainingHalted as e:
        return no_generator(e.history, f"numerical halt: {e}", EXIT_NUMERIC_HALT, sys.stdout)
    except KeyboardInterrupt:  # before the first iteration or after the last
        if history is None:
            where, history = "before iteration 0", []
        else:
            where = f"after iteration {len(history) - 1}"
        return no_generator(history, f"interrupted {where}; history.csv holds {len(history)} "
                            "iterations, f.dplc not written", EXIT_INTERRUPTED, sys.stderr)
    print(f"trained {config['dpl.iterations']} iterations; wrote f.dplc and history.csv")
    return EXIT_OK


def _evaluate(config: ExperimentConfig, out: Path, checkpoint_path) -> int:
    """Score the generator on every validation pair into report.csv;
    returns the number of pairs."""
    metric_names = config["metrics"]
    # ms_ssim refuses a smaller pair: refuse it here, naming its line, before any is scored
    min_extent = MS_SSIM_MIN_EXTENT if "ms_ssim" in metric_names else 0
    pairs = _read_pairs(out / "val", min_extent=min_extent,
                        needs=f"{MS_SSIM_MIN_EXTENT}, the smallest extent ms_ssim accepts")
    psi = FeatureNetPsi(Rng(0))
    _load_net(psi, out / "psi.dplc", "dpl pretrain")
    f = GeneratorF(Rng(0))
    _load_net(f, checkpoint_path or out / "f.dplc", "dpl train")
    # built on each call, so a metric function patched on this module is the one scored
    metrics = {"psnr": psnr, "ms_ssim": ms_ssim,
               "dfd": lambda x_gen, y: feature_distance(x_gen, y, psi)}
    rows = []
    sums = {name: 0.0 for name in metric_names}
    for i, (x, y) in enumerate(pairs, start=1):
        x_gen = from_tensor(f(to_tensor(x)).detach())
        row = {"id": f"{i:04d}"}
        for name in metric_names:
            row[name] = metrics[name](x_gen, y)
            sums[name] += row[name]
        rows.append(row)
    with atomic_write(out / "report.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *metric_names])
        for row in rows:
            writer.writerow([row["id"], *(_fmt(row[name]) for name in metric_names)])
        writer.writerow(["mean", *(_fmt(sums[name] / len(rows)) for name in metric_names)])
    return len(rows)


def cmd_eval(config: ExperimentConfig, args) -> int:
    out = Path(config["out_dir"])
    try:
        count = _evaluate(config, out, args.f_checkpoint)
    except KeyboardInterrupt:
        print("interrupted; report.csv not written", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(f"evaluated {count} pairs; wrote report.csv")
    return EXIT_OK


def cmd_distort(config: ExperimentConfig, args) -> int:
    if config["dpl.distortion"] == "none":
        raise ConfigError("distort requires dpl.distortion != none")
    image = load_image(args.input)
    save_image(distort(image, config, Rng(config["seed"])), args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_show_config(config: ExperimentConfig, args) -> int:
    sys.stdout.write(emit_config(config))
    return EXIT_OK


@contextlib.contextmanager
def _sigterm_interrupts():
    """Within the block, SIGTERM raises KeyboardInterrupt as Ctrl-C does; the
    caller's handler is restored after it. Only the main thread handles
    signals, so elsewhere this does nothing."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        yield
    finally:
        # None: the caller's handler was not set from Python
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


COMMANDS = {  # name: (cmd_*(config, args), help, its outputs as globs, commands reading them)
    "gen-data": (cmd_gen_data, "write paired PPM datasets for the configured task",
                 ("train/manifest.txt", "train/[0-9][0-9][0-9][0-9]*_[xy].ppm",
                  "val/manifest.txt", "val/[0-9][0-9][0-9][0-9]*_[xy].ppm"), ("train", "eval")),
    "pretrain": (cmd_pretrain, "train the texture classifier and save psi.dplc",
                 ("psi.dplc", "pretrain_accuracy.log"), ("train", "eval")),
    "train": (cmd_train, "run transformation training and save f.dplc + history.csv",
              ("f.dplc", "history.csv", "samples/iter*.ppm"), ("eval",)),
    "eval": (cmd_eval, "evaluate a generator checkpoint on the validation set",
             ("report.csv",), ()),
    "distort": (cmd_distort, "apply the configured distortion to one image", (), ()),
    "show-config": (cmd_show_config, "print the fully resolved configuration", (), ()),
}


def _stale(command: str) -> dict:
    """The globs of ``command``'s outputs and of every output derived from them."""
    _, _, writes, readers = COMMANDS[command]
    return dict.fromkeys([*writes, *(glob for r in readers for glob in _stale(r))])


def main(argv=None) -> int:
    parser = _Parser(prog="dpl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[])
        _add_common(p)
        if name == "eval":
            p.add_argument("--f-checkpoint", default=None,
                           help="generator checkpoint (default <out_dir>/f.dplc)")
        if name == "distort":
            p.add_argument("--input", required=True, help="input PPM")
            p.add_argument("--output", required=True, help="output PPM")

    args = None
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        with _sigterm_interrupts():
            for pattern in _stale(args.command):
                for path in Path(config["out_dir"]).glob(pattern):
                    path.unlink()
            return COMMANDS[args.command][0](config, args)
    except (_UsageError, ConfigError, CheckpointError, ImageError, MetricError,
            NetworkError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # an output path the command cannot write, or a path it cannot read
        print(_os_error_line(e), file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # numpy's _ArrayMemoryError says what it could not allocate
        reason = f": {e}" if str(e) else ""
        command = f" (dpl {args.command})" if args is not None else ""
        print(f"error: out of memory{reason}{command}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # train, pretrain and eval report their own
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
