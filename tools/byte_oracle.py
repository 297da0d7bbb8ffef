"""Print a sha256 for every output of a fixed seven-mode pipeline.

Runs gen-data, pretrain, train and eval through ``dpl.cli.main`` at seed 3
(6 train and 3 val pairs at 32 px, 600 pretraining samples for 3 epochs,
60 training iterations) in seven training modes, each in its own directory
under OUT_DIR, then ``dpl distort`` once per distortion kind on a generated
image and ``dpl gen-data`` once for each of the synthetic blur and darken
tasks, and prints ``<sha256>  <path>`` for every file written, paths
relative to OUT_DIR.
Between them the modes set every ``dpl.*`` training key to a value other
than its default, and the runs reach every user of the Gaussian filter.
A change that claims to keep outputs byte-identical shows it with one
``diff`` of this script's output on the parent and on the change:

    python3 tools/byte_oracle.py /tmp/before --src ../parent/src > before.txt
    python3 tools/byte_oracle.py /tmp/after > after.txt
    diff before.txt after.txt

Only the standard library and dpl (with numpy) are used. Exits 1 if any
command exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

COMMON = ("--seed", "3", "--size", "32", "--train_count", "6", "--val_count", "3")
PRETRAIN = ("--pretrain.samples", "600", "--pretrain.epochs", "3")
TRAIN = ("--dpl.iterations", "60", "--dpl.interval", "2", "--train.sample_every", "20")
MODES = {
    "fs_task_oriented": ("--dpl.mode", "feature_selection", "--dpl.strategy", "task_oriented",
                         "--dpl.distortion", "color_jitter"),
    "fs_instance_self": ("--dpl.mode", "feature_selection", "--dpl.strategy", "instance_self"),
    "full_contextual_color_grayscale": ("--dpl.mode", "full", "--dpl.strategy", "task_oriented",
                                        "--dpl.distortion", "grayscale",
                                        "--dpl.w_contextual", "1", "--dpl.w_color", "1"),
    # perfbench's train_ctx_frozen training flags
    "frozen_contextual": ("--dpl.mode", "frozen", "--dpl.w_perceptual", "1",
                          "--dpl.w_contextual", "1"),
    "frozen_pixel_texture": ("--dpl.mode", "frozen", "--dpl.w_pixel_l1", "1",
                             "--dpl.w_texture", "1"),
    # the later --dpl.interval overrides the one in TRAIN
    "fs_gaussian_blur_interval3": ("--dpl.mode", "feature_selection",
                                   "--dpl.strategy", "task_oriented",
                                   "--dpl.distortion", "gaussian_blur", "--dpl.interval", "3"),
    "fs_source_anchored_tuned": ("--dpl.mode", "feature_selection",
                                 "--dpl.strategy", "source_anchored", "--dpl.augment", "false",
                                 "--dpl.margin", "0.5", "--dpl.crop", "8",
                                 "--dpl.lr_generator", "3e-4", "--dpl.lr_selector", "2e-4",
                                 "--dpl.w_contextual", "1", "--dpl.contextual_bandwidth", "0.3",
                                 "--dpl.contextual_epsilon", "1e-4",
                                 "--dpl.w_color", "0.5", "--dpl.color_sigma", "2"),
}
# dpl distort, one run per kind, with ranges other than the defaults
DISTORT = {
    "gaussian_blur": ("--dpl.blur_sigma_min", "0.5", "--dpl.blur_sigma_max", "1.5"),
    "color_jitter": ("--dpl.jitter_scale_min", "0.8", "--dpl.jitter_scale_max", "1.2",
                     "--dpl.jitter_bias_min", "-0.05", "--dpl.jitter_bias_max", "0.05"),
    "grayscale": (),
}


def run(main, out: Path, command: str, *args) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--out_dir", str(out), *COMMON, *args])
    if code != 0:
        sys.exit(f"byte_oracle: `dpl {command}` exited {code} in {out}")


def run_mode(main, out: Path, flags) -> None:
    for command, extra in [("gen-data", ()), ("pretrain", PRETRAIN),
                           ("train", (*TRAIN, *flags)), ("eval", ())]:
        run(main, out, command, *extra)


def run_pipeline(main, out_dir: Path) -> None:
    """Every command of the pipeline, each run in its directory under ``out_dir``."""
    for mode, flags in MODES.items():
        run_mode(main, out_dir / mode, flags)
    image = out_dir / next(iter(MODES)) / "train" / "0001_y.ppm"
    out = out_dir / "distort"
    out.mkdir(parents=True, exist_ok=True)
    for kind, flags in DISTORT.items():
        run(main, out, "distort", "--dpl.distortion", kind, *flags,
            "--input", str(image), "--output", str(out / f"{kind}.ppm"))
    run(main, out_dir / "gen_blur", "gen-data", "--task", "blur")
    run(main, out_dir / "gen_darken", "gen-data", "--task", "darken")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory for the runs")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the dpl package (default: this repo's src)")
    args = parser.parse_args()
    # one BLAS thread, set before numpy is first imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(args.src.resolve()))
    from dpl.cli import main as dpl_main

    run_pipeline(dpl_main, args.out_dir)
    for path in sorted(p for p in args.out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out_dir).as_posix()}")


if __name__ == "__main__":
    main()
