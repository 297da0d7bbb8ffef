import argparse
import builtins
import contextlib
import errno
import importlib.util
import io
import os
import shutil
import signal
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpl
from conftest import train_config
from dpl import cli
from dpl import config as config_module
from dpl import networks, trainer
from dpl.checkpoint import load_checkpoint, save_checkpoint
from dpl.cli import main
from dpl.config import SCHEMA, ConfigError, emit_config, parse_config
from dpl.image import as_image, gaussian_blur, load_image, save_image, to_tensor
from dpl.losses import FLOAT32_MAX
from dpl.networks import FeatureNetPsi, GeneratorF
from dpl.rng import Rng
from dpl.synth import generate_synthetic


# -- config parsing ----------------------------------------------------------------


def test_defaults_without_file():
    cfg = parse_config()
    assert cfg["task"] == "colorcast"
    assert cfg["size"] == 32
    assert cfg["seed"] == 0
    assert cfg["dpl.margin"] == 1.0
    assert cfg["dpl.interval"] == 4
    assert cfg["metrics"] == ("psnr", "ms_ssim", "dfd")


def test_file_parsing_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment\n"
        "task = darken   # target task\n"
        "\n"
        "dpl.margin = 0.5\n"
        "metrics = psnr,dfd\n"
    )
    cfg = parse_config(path)
    assert cfg["task"] == "darken"
    assert cfg["dpl.margin"] == 0.5
    assert cfg["metrics"] == ("psnr", "dfd")


def test_unknown_key_names_it(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dpl.margain = 1.0\n")
    with pytest.raises(ConfigError, match="dpl.margain"):
        parse_config(path)


def test_bad_value_names_key_and_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("task = colorcast\nsize = tiny\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "size" in str(err.value)
    assert ":2" in str(err.value)


def test_negative_margin_message():
    with pytest.raises(ConfigError, match=r"'dpl\.margin' \(command line\): must be >= 0"):
        parse_config(overrides={"dpl.margin": "-1"})


def test_size_16_is_accepted_without_ms_ssim():
    cfg = parse_config(overrides={"size": "16", "metrics": "psnr,dfd"})
    assert cfg["size"] == 16


def test_env_seed_and_override_precedence(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\n")
    monkeypatch.setenv("DPL_SEED", "9")
    assert parse_config(path)["seed"] == 9
    assert parse_config(path, overrides={"seed": "11"})["seed"] == 11


def test_emit_round_trip(tmp_path):
    cfg = parse_config(overrides={"task": "blur", "dpl.lr_generator": "3e-05",
                                  "dpl.augment": "false"})
    path = tmp_path / "emitted.cfg"
    path.write_text(emit_config(cfg))
    again = parse_config(path)
    assert again == cfg


def test_trainer_config_construction():
    cfg = parse_config(overrides={"dpl.strategy": "instance_self",
                                  "dpl.distortion": "none"})
    assert cfg["dpl.strategy"] == "instance_self"
    assert cfg["dpl.distortion"] == "none"
    with pytest.raises(ConfigError, match="distortion"):
        parse_config(overrides={"dpl.strategy": "task_oriented",
                                "dpl.distortion": "none"})


# -- CLI -----------------------------------------------------------------------------


def _base_args(out_dir, **extra):
    args = ["--out_dir", str(out_dir), "--size", "32",
            "--train_count", "4", "--val_count", "2", "--seed", "3"]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


@pytest.fixture()
def prepared_run(tmp_path, pretrained_psi):
    out = tmp_path / "run"
    assert main(["gen-data", *_base_args(out)]) == 0
    save_checkpoint(pretrained_psi.state_dict(), out / "psi.dplc")
    return out


def test_gen_data_files_and_determinism(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["gen-data", *_base_args(a)]) == 0
    assert main(["gen-data", *_base_args(b)]) == 0
    assert main(["gen-data", *_base_args(c)[:-2], "--seed", "4"]) == 0
    names = sorted(p.name for p in (a / "train").iterdir())
    assert names == sorted([f"{i:04d}_{s}.ppm" for i in range(1, 5)
                            for s in "xy"] + ["manifest.txt"])
    assert len(list((a / "val").iterdir())) == 2 * 2 + 1
    for name in names:
        assert (a / "train" / name).read_bytes() == (b / "train" / name).read_bytes()
    assert (a / "train" / "0001_x.ppm").read_bytes() != \
        (c / "train" / "0001_x.ppm").read_bytes()


def test_gen_data_over_a_larger_dataset_leaves_only_the_new_pairs(tmp_path):
    # was 0002_* and 0003_* of the older seed beside a one-pair manifest
    out = tmp_path / "out"
    assert main(["gen-data", *_base_args(out, train_count=3)]) == 0
    (out / "train" / "notes.txt").write_text("kept\n")
    assert main(["gen-data", *_base_args(out, train_count=1, seed=2)]) == 0
    names = sorted(p.name for p in (out / "train").iterdir())
    assert names == ["0001_x.ppm", "0001_y.ppm", "manifest.txt", "notes.txt"]
    assert (out / "train" / "manifest.txt").read_text() == "seed 2\n0001_x.ppm 0001_y.ppm\n"


def test_pretrain_gate_exit_two(tmp_path, capsys):
    out = tmp_path / "gate"
    code = main(["pretrain", *_base_args(out), "--pretrain.samples", "30",
                 "--pretrain.epochs", "1"])
    assert code == 2
    assert (out / "pretrain_accuracy.log").exists()


def test_pretrain_gate_miss_writes_no_checkpoint(tmp_path):
    # one epoch on 600 samples at seed 1 reaches 68% held-out accuracy, below
    # the 80% gate of the command
    out = tmp_path / "gate"
    code = main(["pretrain", *_base_args(out, seed=1), "--pretrain.samples", "600",
                 "--pretrain.epochs", "1"])
    assert code == 2
    assert not (out / "psi.dplc").exists()
    last = (out / "pretrain_accuracy.log").read_text().splitlines()[-1]
    assert last.startswith("gate failed: held-out accuracy") and "< 80%" in last


def test_diverging_pretrain_halts_with_exit_three(tmp_path, capsys):
    # was exit 2 with "gate failed" and the held-out accuracy of a NaN psi,
    # whose logits' argmax is class 0
    out = tmp_path / "run"
    out.mkdir()
    (out / "psi.dplc").write_bytes(b"an older extractor")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pretrain", *_base_args(out), "--pretrain.samples", "30",
                     "--pretrain.epochs", "2", "--pretrain.lr", "1e30"])
    assert code == 3
    # the halt is reported once, by the finiteness check, not by numpy
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    line = "numerical halt: non-finite loss nan at epoch 1, step 2 of 27; psi.dplc not written"
    assert capsys.readouterr().out.splitlines()[-1] == line
    assert (out / "pretrain_accuracy.log").read_text().splitlines()[-1] == line
    assert not (out / "psi.dplc").exists()


def test_train_outputs_and_determinism(prepared_run, tmp_path, pretrained_psi):
    args = _base_args(prepared_run) + ["--dpl.iterations", "6", "--dpl.interval", "2",
                                       "--train.sample_every", "3"]
    assert main(["train", *args]) == 0
    assert (prepared_run / "f.dplc").exists()
    history = (prepared_run / "history.csv").read_bytes()
    lines = history.decode().splitlines()
    assert lines[0] == ("iteration,generator_loss,perceptual,contextual,"
                        "pixel_l1,color,texture,d_c,f_norm,phi_norm")
    assert len(lines) == 1 + 6
    # periodic sample dumps at iterations 3 and 6
    sample_names = sorted(p.name for p in (prepared_run / "samples").iterdir())
    assert sample_names == [f"iter{i:06d}_{s}.ppm"
                            for i in (3, 6) for s in ("gen", "x", "y")]
    # byte-identical history on a fresh identical run
    out2 = tmp_path / "run2"
    assert main(["gen-data", *_base_args(out2)]) == 0
    save_checkpoint(pretrained_psi.state_dict(), out2 / "psi.dplc")
    args2 = _base_args(out2) + ["--dpl.iterations", "6", "--dpl.interval", "2",
                                "--train.sample_every", "3"]
    assert main(["train", *args2]) == 0
    assert (out2 / "history.csv").read_bytes() == history


def test_train_divergence_exit_three(prepared_run, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", *_base_args(prepared_run), "--dpl.iterations", "20",
                     "--dpl.lr_generator", "1e15"])
    assert code == 3
    # the halt is reported once, by the finiteness check, not by numpy
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err
    lines = (prepared_run / "history.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    # the rows before the halt are kept, numbered from 0, every value finite:
    # the iteration whose step makes F non-finite halts before its row
    assert 1 <= len(rows) < 20
    assert [int(row[0]) for row in rows] == list(range(len(rows)))
    assert all(np.isfinite(float(v)) for row in rows for v in row[1:])
    assert not (prepared_run / "f.dplc").exists()


def test_diverging_train_removes_older_generator(prepared_run, capsys):
    args = [*_base_args(prepared_run), "--dpl.iterations", "2"]
    assert main(["train", *args]) == 0
    assert (prepared_run / "f.dplc").exists()
    assert main(["train", *args, "--dpl.lr_generator", "1e15", "--dpl.iterations", "20"]) == 3
    assert not (prepared_run / "f.dplc").exists()
    capsys.readouterr()
    assert main(["eval", *_base_args(prepared_run)]) == 1
    err = capsys.readouterr().err
    assert "f.dplc" in err and "dpl train" in err


def test_missed_pretrain_gate_removes_older_extractor(tmp_path, capsys):
    # seed 3 passes the gate in 3 epochs; seed 1 misses it in one (68%)
    out = tmp_path / "run"
    assert main(["gen-data", *_base_args(out)]) == 0
    assert main(["pretrain", *_base_args(out), "--pretrain.samples", "600",
                 "--pretrain.epochs", "3"]) == 0
    assert (out / "psi.dplc").exists()
    assert main(["pretrain", *_base_args(out, seed=1), "--pretrain.samples", "600",
                 "--pretrain.epochs", "1"]) == 2
    assert not (out / "psi.dplc").exists()
    capsys.readouterr()
    assert main(["train", *_base_args(out), "--dpl.iterations", "2"]) == 1
    err = capsys.readouterr().err
    assert "psi.dplc" in err and "dpl pretrain" in err


@pytest.mark.parametrize("command, missing, writer", [
    ("train", "psi.dplc", "dpl pretrain"),
    ("eval", "f.dplc", "dpl train"),
])
def test_missing_checkpoint_is_usage_error(prepared_run, capsys, command, missing, writer):
    (prepared_run / missing).unlink(missing_ok=True)
    assert main([command, *_base_args(prepared_run)]) == 1
    err = capsys.readouterr().err
    assert missing in err and writer in err


def test_checkpoint_path_that_is_a_directory_is_usage_error(prepared_run, capsys):
    assert main(["eval", *_base_args(prepared_run), "--f-checkpoint", str(prepared_run)]) == 1
    assert "cannot read checkpoint" in capsys.readouterr().err


def test_checkpoint_format_error_names_the_file(prepared_run, capsys):
    # was "error: truncated checkpoint: wanted 64 bytes at offset 28": eval reads
    # two checkpoints, and the message named neither
    head = prepared_run / "head.dplc"
    save_checkpoint(GeneratorF(Rng(0)).state_dict(), head)
    head.write_bytes(head.read_bytes()[:50])
    assert main(["eval", *_base_args(prepared_run), "--f-checkpoint", str(head)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {head}: truncated checkpoint")


def test_checkpoint_of_another_network_names_the_file(prepared_run, capsys):
    # was "error: checkpoint missing tensor 'enc1.weight'", naming no file
    psi = prepared_run / "psi.dplc"
    assert main(["eval", *_base_args(prepared_run), "--f-checkpoint", str(psi)]) == 1
    assert capsys.readouterr().err == (
        f"error: {psi}: checkpoint missing tensor 'enc1.weight'; `dpl train` writes it\n")
    state = FeatureNetPsi(Rng(0)).state_dict()
    state["block1.weight"] = np.zeros((2, 2))
    save_checkpoint(state, psi)
    assert main(["train", *_base_args(prepared_run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {psi}: checkpoint tensor 'block1.weight' has shape (2, 2)")
    assert err.endswith("; `dpl pretrain` writes it\n")


@pytest.mark.parametrize("command, name, tensor, value", [
    ("eval", "f.dplc", "dec2.bias", np.nan), ("train", "psi.dplc", "block1.weight", np.inf)])
def test_checkpoint_with_a_non_finite_value_is_usage_error(prepared_run, capsys, command, name,
                                                            tensor, value):
    # was exit 0 and an all-nan report.csv (eval), or numpy warnings and then
    # "numerical halt: non-finite triplet loss nan" with exit 3 (train)
    if command == "eval":
        save_checkpoint(GeneratorF(Rng(0)).state_dict(), prepared_run / "f.dplc")
    state = load_checkpoint(prepared_run / name)
    state[tensor].flat[0] = value
    save_checkpoint(state, prepared_run / name)
    assert main([command, *_base_args(prepared_run)]) == 1
    assert capsys.readouterr().err == (f"error: {prepared_run / name}: tensor {tensor!r} "
                                       "holds a NaN or infinite value\n")
    assert not (prepared_run / ("report.csv" if command == "eval" else "history.csv")).exists()


def test_repeated_metric_is_usage_error(prepared_run, capsys):
    # was a report whose mean row counted each pair once per listing: 14.7506
    # for psnr,psnr where psnr alone gave 7.3753
    save_checkpoint(GeneratorF(Rng(0)).state_dict(), prepared_run / "f.dplc")
    assert main(["eval", *_base_args(prepared_run), "--metrics", "psnr,psnr"]) == 1
    assert "metric 'psnr' is listed twice" in capsys.readouterr().err
    assert not (prepared_run / "report.csv").exists()
    with pytest.raises(ConfigError, match="metric 'dfd' is listed twice"):
        parse_config(overrides={"metrics": "dfd,psnr,dfd"})


def test_eval_report_format(prepared_run):
    args = _base_args(prepared_run) + ["--dpl.iterations", "4"]
    assert main(["train", *args]) == 0
    assert main(["eval", *_base_args(prepared_run)]) == 0
    raw = (prepared_run / "report.csv").read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    lines = raw.decode().splitlines()
    assert lines[0] == "id,psnr,ms_ssim,dfd"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0001", "0002", "mean"]
    mean = [float(v) for v in lines[-1].split(",")[1:]]
    per = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:-1]])
    assert np.allclose(mean, per.mean(axis=0), rtol=1e-9)


def test_eval_of_a_metric_no_table_holds_raises_and_writes_no_report(prepared_run):
    # was a dfd column under the name "lpips"
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "2"]) == 0
    config = {**train_config(), "out_dir": str(prepared_run), "metrics": ("psnr", "lpips")}
    with pytest.raises(KeyError, match="lpips"):
        cli.cmd_eval(config, argparse.Namespace(f_checkpoint=None))
    assert not (prepared_run / "report.csv").exists()


@pytest.mark.parametrize("command, name", [("train", "history.csv"), ("eval", "report.csv")])
def test_interrupted_csv_write_leaves_no_file(prepared_run, monkeypatch, command, name):
    # the older file describes an earlier run, so it is not kept either
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "2"]) == 0
    assert main(["eval", *_base_args(prepared_run)]) == 0

    class Interrupt(Exception):
        pass

    fmt, formatted = cli._fmt, []

    def interrupted(value):  # fails on the third value, after some rows are written
        formatted.append(value)
        if len(formatted) == 3:
            raise Interrupt()
        return fmt(value)

    monkeypatch.setattr(cli, "_fmt", interrupted)
    with pytest.raises(Interrupt):
        main([command, *_base_args(prepared_run), "--dpl.iterations", "3"])
    # neither the older file, a truncated one, nor the temporary .<name>.<pid>.tmp
    assert [p.name for p in prepared_run.iterdir() if name in p.name] == []


def _cut_ppm_writes(monkeypatch) -> None:
    """Make every file opened for writing under a name holding ``.ppm`` write
    half of its first write, then stop with Ctrl-C (KeyboardInterrupt)."""
    real_open = builtins.open

    class Cut:
        def __init__(self, f):
            self._f = f

        def write(self, data):
            self._f.write(bytes(data)[: len(data) // 2])
            raise KeyboardInterrupt

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    def cutting_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return Cut(f) if "w" in mode and ".ppm" in os.fspath(path) else f

    monkeypatch.setattr(builtins, "open", cutting_open)


def test_interrupted_distort_leaves_the_older_output(prepared_run, tmp_path, monkeypatch,
                                                     capsys):
    # was half a PPM header at --output in place of the older file
    dst = tmp_path / "o.ppm"
    dst.write_bytes(b"older")
    _cut_ppm_writes(monkeypatch)
    code = _main_interrupted(["distort", *_base_args(prepared_run), "--dpl.distortion",
                              "grayscale", "--input", str(prepared_run / "train" / "0001_y.ppm"),
                              "--output", str(dst)])
    assert code == 130 and capsys.readouterr().err == "interrupted\n"
    assert dst.read_bytes() == b"older"
    assert [p.name for p in tmp_path.iterdir() if "o.ppm" in p.name] == ["o.ppm"]


def test_interrupted_sample_write_leaves_no_truncated_sample(prepared_run, monkeypatch, capsys):
    # was samples/iter000002_x.ppm cut short after half its header
    _cut_ppm_writes(monkeypatch)
    code = _main_interrupted(["train", *_base_args(prepared_run), "--dpl.mode", "frozen",
                              "--dpl.iterations", "4", "--train.sample_every", "2"])
    assert code == 130
    assert capsys.readouterr().err == ("interrupted at iteration 1; history.csv holds 2 "
                                       "iterations, f.dplc not written\n")
    assert list((prepared_run / "samples").iterdir()) == []


def test_interrupted_gen_data_leaves_no_truncated_image(tmp_path, monkeypatch, capsys):
    # was train/0001_x.ppm cut short after half its header
    out = tmp_path / "out"
    _cut_ppm_writes(monkeypatch)
    assert _main_interrupted(["gen-data", *_base_args(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert list((out / "train").iterdir()) == []


def test_metric_error_is_usage_error(prepared_run, capsys):
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "1"]) == 0
    # a 16x16 target beside a 32x32 input: no metric can compare the pair
    save_image(as_image(np.zeros((16, 16, 3))), prepared_run / "val" / "0002_y.ppm")
    assert main(["eval", *_base_args(prepared_run)]) == 1
    assert "shape mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command, part", [("train", "train"), ("eval", "val")])
def test_pair_of_unequal_images_is_usage_error(prepared_run, capsys, command, part):
    # was a LossError traceback from the first perceptual loss of train
    save_image(as_image(np.zeros((40, 40, 3))), prepared_run / part / "0002_y.ppm")
    assert main([command, *_base_args(prepared_run), "--dpl.iterations", "5"]) == 1
    err = capsys.readouterr().err
    assert "manifest.txt:3" in err and "32x32" in err and "40x40" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("size", [42, 33])
def test_dataset_image_the_networks_cannot_take_is_usage_error(prepared_run, capsys, size):
    # was an exit 1 from the first extractor or generator call, naming no file
    for side in "xy":
        save_image(as_image(np.zeros((size, size, 3))),
                   prepared_run / "train" / f"0002_{side}.ppm")
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "30"]) == 1
    err = capsys.readouterr().err
    assert "manifest.txt:3" in err and "0002_x.ppm" in err and f"{size}x{size}" in err
    assert "divisible by 4 and at least 8" in err
    assert not (prepared_run / "history.csv").exists()


def _replace_pair(run, part, index, shape):
    for side in "xy":
        save_image(as_image(np.zeros((*shape, 3))), run / part / f"{index:04d}_{side}.ppm")


def test_pair_below_the_triplet_crop_is_refused_when_a_selector_trains(prepared_run, capsys):
    # was "error: crop size 16 exceeds image extent 12x12", naming no file
    _replace_pair(prepared_run, "train", 2, (12, 12))
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "30"]) == 1
    err = capsys.readouterr().err
    assert "manifest.txt:3" in err and "0002_x.ppm" in err and "12x12" in err
    assert "dpl.crop 16" in err
    assert not (prepared_run / "history.csv").exists()
    # frozen mode cuts no triplet crops
    args = [*_base_args(prepared_run), "--dpl.mode", "frozen", "--dpl.iterations", "2"]
    assert main(["train", *args]) == 0


def test_eval_refuses_pairs_below_the_ms_ssim_extent_before_loading_networks(tmp_path, capsys):
    # was exit 1 after both networks loaded and pair 1 was scored, naming no file
    out = tmp_path / "out"
    assert main(["gen-data", *_base_args(out), "--size", "16", "--metrics", "psnr"]) == 0
    capsys.readouterr()
    # no psi.dplc or f.dplc: the pairs are refused before either is read
    assert main(["eval", *_base_args(out), "--metrics", "psnr,ms_ssim"]) == 1
    err = capsys.readouterr().err
    assert "manifest.txt:2" in err and "0001_x.ppm" in err and "16x16" in err
    assert "32, the smallest extent ms_ssim accepts" in err
    assert not (out / "report.csv").exists()


def test_non_square_pair_is_refused_under_augment(prepared_run, capsys):
    # was "error: augment requires a square image (rotations)", naming no file
    for index in (1, 2, 3, 4):
        _replace_pair(prepared_run, "train", index, (32, 48))
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "30"]) == 1
    err = capsys.readouterr().err
    assert "manifest.txt:2" in err and "0001_x.ppm" in err and "32x48" in err
    assert "dpl.augment" in err
    args = [*_base_args(prepared_run), "--dpl.augment", "false", "--dpl.iterations", "2"]
    assert main(["train", *args]) == 0
    # eval neither crops nor rotates
    _replace_pair(prepared_run, "val", 1, (32, 48))
    assert main(["eval", *_base_args(prepared_run)]) == 0


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    # a dataset that fits the parse-time bound but not the memory that is free
    def exhausted(*args):
        raise MemoryError("Unable to allocate 24.0 KiB for an array with shape (32, 32, 3)")

    monkeypatch.setattr(cli, "generate_synthetic", exhausted)
    assert main(["gen-data", *_base_args(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert err.endswith(" (dpl gen-data)\n") and "Traceback" not in err


def test_out_of_memory_without_a_reason_names_the_command(tmp_path, capsys, monkeypatch):
    # was `error: out of memory: ` for Python's own MemoryError, whose text is empty
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "load_image", exhausted)
    args = ["distort", "--dpl.distortion", "grayscale", "--input", str(tmp_path / "x.ppm"),
            "--output", str(tmp_path / "o.ppm")]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: out of memory (dpl distort)\n"


class _TermReachedCaller(Exception):
    pass


def _caller_sigterm(signum, frame):
    raise _TermReachedCaller()


def _interrupting(fn, calls: int, how: str):
    """``fn`` that, on its ``calls``-th call, is interrupted by Ctrl-C
    (KeyboardInterrupt) or by a SIGTERM sent to this process."""
    count = [0]

    def wrapper(*args, **kwargs):
        count[0] += 1
        if count[0] == calls:
            if how == "sigterm":
                os.kill(os.getpid(), signal.SIGTERM)  # the handler runs before this returns
                pytest.fail("SIGTERM did not interrupt the command")
            raise KeyboardInterrupt
        return fn(*args, **kwargs)

    return wrapper


def _main_interrupted(argv) -> int:
    """``main(argv)`` with a SIGTERM handler of the caller's, which must be in
    place again after it; a SIGTERM that reaches it, or an interrupt that
    escapes ``main``, fails the test."""
    previous = signal.signal(signal.SIGTERM, _caller_sigterm)
    try:
        code = main(argv)
        assert signal.getsignal(signal.SIGTERM) is _caller_sigterm
        return code
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped dpl.cli.main")
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.parametrize("how", ["ctrl_c", "sigterm"])
def test_interrupted_train_keeps_its_rows_and_removes_older_generator(prepared_run, capsys,
                                                                     monkeypatch, how):
    args = [*_base_args(prepared_run), "--dpl.iterations", "2"]
    assert main(["train", *args]) == 0
    capsys.readouterr()
    # the fourth generator step, iteration 3, is interrupted
    monkeypatch.setattr(trainer, "generator_step",
                        _interrupting(trainer.generator_step, 4, how))
    assert _main_interrupted(["train", *args, "--dpl.iterations", "6"]) == 130
    out, err = capsys.readouterr()
    assert err == ("interrupted at iteration 3; history.csv holds 3 iterations, "
                   "f.dplc not written\n")
    lines = (prepared_run / "history.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert not (prepared_run / "f.dplc").exists()
    assert main(["eval", *_base_args(prepared_run)]) == 1
    assert "dpl train" in capsys.readouterr().err


def test_train_interrupted_in_its_sample_hook_counts_the_rows_it_keeps(prepared_run, capsys,
                                                                       monkeypatch):
    # was "history.csv holds the 5 iterations before it" of iteration 4, whose
    # row is written before the hook runs
    monkeypatch.setattr(cli, "save_image", _interrupting(cli.save_image, 2, "ctrl_c"))
    code = _main_interrupted(["train", *_base_args(prepared_run), "--dpl.mode", "frozen",
                              "--dpl.iterations", "10", "--train.sample_every", "5"])
    assert code == 130
    assert capsys.readouterr().err == ("interrupted at iteration 4; history.csv holds 5 "
                                       "iterations, f.dplc not written\n")
    lines = (prepared_run / "history.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
    assert not (prepared_run / "f.dplc").exists()


def test_train_stopped_by_an_unwritable_sample_keeps_its_rows_and_removes_older_generator(
        prepared_run, capsys):
    # was exit 1 with the older run's f.dplc and its 4-row history.csv left in place
    args = [*_base_args(prepared_run), "--dpl.mode", "frozen"]
    assert main(["train", *args, "--dpl.iterations", "4"]) == 0
    samples = prepared_run / "samples"
    shutil.rmtree(samples, ignore_errors=True)
    samples.write_text("")
    capsys.readouterr()
    code = main(["train", *args, "--dpl.iterations", "10", "--train.sample_every", "5"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {samples}: File exists\n"
    lines = (prepared_run / "history.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
    assert not (prepared_run / "f.dplc").exists()


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_train_on_a_full_disk_removes_older_generator_even_without_a_history(
        prepared_run, capsys, monkeypatch):
    # a sample, then history.csv, cannot be written: the older f.dplc still goes
    args = [*_base_args(prepared_run), "--dpl.mode", "frozen"]
    assert main(["train", *args, "--dpl.iterations", "4"]) == 0
    monkeypatch.setattr(cli, "save_image", _disk_full)
    monkeypatch.setattr(cli, "_write_history", _disk_full)
    capsys.readouterr()
    assert main(["train", *args, "--dpl.iterations", "10", "--train.sample_every", "5"]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert not (prepared_run / "f.dplc").exists()


def test_train_that_cannot_save_its_generator_removes_older_one(prepared_run, capsys,
                                                                monkeypatch):
    # was exit 1 with the new history.csv beside the previous run's f.dplc
    args = _base_args(prepared_run)
    assert main(["train", *args, "--dpl.iterations", "2"]) == 0
    monkeypatch.setattr(cli, "save_checkpoint", _disk_full)
    capsys.readouterr()
    assert main(["train", *args, "--dpl.iterations", "3"]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    lines = (prepared_run / "history.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert not (prepared_run / "f.dplc").exists()


def _cut_manifest_line(run) -> list[str]:
    manifest = run / "train" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[1] = lines[1].split()[0]
    manifest.write_text("\n".join(lines) + "\n")
    return []


def _remove_extractor(run) -> list[str]:
    (run / "psi.dplc").unlink()
    return []


def _extractor_as_generator(run) -> list[str]:
    return ["--f-checkpoint", str(run / "psi.dplc")]


@pytest.mark.parametrize("command, spoil, message, gone", [
    ("train", _cut_manifest_line, "manifest.txt:2: expected two image names",
     ("f.dplc", "history.csv")),
    ("train", _remove_extractor, "cannot read checkpoint", ("f.dplc", "history.csv")),
    ("eval", _extractor_as_generator, "checkpoint missing tensor 'enc1.weight'",
     ("report.csv",)),
], ids=["train_cut_manifest_line", "train_without_extractor", "eval_of_another_network"])
def test_refused_command_leaves_none_of_its_older_outputs(prepared_run, capsys, command, spoil,
                                                         message, gone):
    # was exit 1 with the older f.dplc and history.csv, or report.csv, left in place
    args = [*_base_args(prepared_run), "--dpl.iterations", "2"]
    assert main(["train", *args]) == 0
    assert main(["eval", *args]) == 0
    extra = spoil(prepared_run)
    capsys.readouterr()
    assert main([command, *args, *extra]) == 1
    assert message in capsys.readouterr().err
    assert [name for name in gone if (prepared_run / name).exists()] == []


def test_pretrain_that_cannot_save_its_extractor_leaves_no_older_one(tmp_path, capsys,
                                                                    monkeypatch):
    # was exit 1 with the new pretrain_accuracy.log beside the older psi.dplc
    out = tmp_path / "run"
    out.mkdir()
    save_checkpoint(FeatureNetPsi(Rng(0)).state_dict(), out / "psi.dplc")
    monkeypatch.setattr(cli, "PRETRAIN_GATE", 0.0)  # any accuracy passes: psi.dplc is saved
    monkeypatch.setattr(cli, "save_checkpoint", _disk_full)
    assert main(["pretrain", *_base_args(out), "--pretrain.samples", "30",
                 "--pretrain.epochs", "1"]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    log = (out / "pretrain_accuracy.log").read_text().splitlines()
    assert [line.split()[:2] for line in log] == [["epoch", "0"], ["epoch", "1"]]
    assert not (out / "psi.dplc").exists()


def test_shorter_train_leaves_no_older_samples(prepared_run):
    # was the 6-iteration run's iter000006_* beside the 3-iteration run's samples
    args = [*_base_args(prepared_run), "--dpl.mode", "frozen", "--train.sample_every", "3"]
    assert main(["train", *args, "--dpl.iterations", "6"]) == 0
    assert main(["train", *args, "--dpl.iterations", "3"]) == 0
    assert sorted(p.name for p in (prepared_run / "samples").iterdir()) == [
        f"iter000003_{s}.ppm" for s in ("gen", "x", "y")]


def test_each_command_writes_exactly_what_its_outputs_entry_names(tmp_path, monkeypatch):
    # main removes each entry's matches before the command runs: an entry that
    # misses a file leaves an older one, one that matches no file names nothing
    out = tmp_path / "run"
    monkeypatch.setattr(cli, "PRETRAIN_GATE", 0.0)  # any accuracy passes: psi.dplc is saved
    extras = {"gen-data": [], "pretrain": ["--pretrain.samples", "30", "--pretrain.epochs", "1"],
              "train": ["--dpl.iterations", "2", "--train.sample_every", "2"], "eval": []}
    assert list(extras) == [name for name, (_, _, writes, _) in cli.COMMANDS.items() if writes]
    for command, extra in extras.items():
        before = set(out.rglob("*"))
        assert main([command, *_base_args(out), *extra]) == 0
        after = set(out.rglob("*"))
        assert before <= after
        writes = cli.COMMANDS[command][2]
        matches = [set(out.glob(pattern)) for pattern in writes]
        assert all(matches), (command, writes)
        assert set().union(*matches) == {p for p in after - before if p.is_file()}


@pytest.mark.parametrize("command, extra, gone, kept", [
    ("train", ["--dpl.iterations", "2"], ["report.csv"], ["psi.dplc", "train/manifest.txt"]),
    ("gen-data", ["--seed", "5"], ["f.dplc", "history.csv", "samples/iter000002_gen.ppm",
                                   "report.csv"], ["psi.dplc"]),
    ("pretrain", ["--pretrain.samples", "30", "--pretrain.epochs", "1"],
     ["f.dplc", "history.csv", "samples/iter000002_gen.ppm", "report.csv"],
     ["train/manifest.txt"]),
])
def test_a_command_removes_the_older_outputs_derived_from_its_own(
        prepared_run, monkeypatch, command, extra, gone, kept):
    # was the older report.csv left after a second train, and the older
    # generator, history and report left after gen-data or pretrain
    args = [*_base_args(prepared_run), "--train.sample_every", "2"]
    assert main(["train", *args, "--dpl.iterations", "2"]) == 0
    assert main(["eval", *args]) == 0
    assert all((prepared_run / name).exists() for name in gone)
    monkeypatch.setattr(cli, "PRETRAIN_GATE", 0.0)  # any accuracy passes: psi.dplc is saved
    assert main([command, *args, *extra]) == 0
    assert [name for name in gone if (prepared_run / name).exists()] == []
    assert all((prepared_run / name).exists() for name in kept)


@pytest.mark.parametrize("how", ["ctrl_c", "sigterm"])
def test_interrupted_pretrain_keeps_its_log_and_removes_older_extractor(tmp_path, capsys,
                                                                        monkeypatch, how):
    out = tmp_path / "run"
    out.mkdir()
    save_checkpoint(FeatureNetPsi(Rng(0)).state_dict(), out / "psi.dplc")
    # 27 training samples per epoch: the interrupt comes in the second epoch
    monkeypatch.setattr(networks, "cross_entropy",
                        _interrupting(networks.cross_entropy, 30, how))
    code = _main_interrupted(["pretrain", *_base_args(out), "--pretrain.samples", "30",
                              "--pretrain.epochs", "3"])
    assert code == 130
    assert capsys.readouterr().err == "interrupted; psi.dplc not written\n"
    log = (out / "pretrain_accuracy.log").read_text().splitlines()
    assert [line.split()[:2] for line in log[:2]] == [["epoch", "0"], ["epoch", "1"]]
    assert log[2:] == ["interrupted; psi.dplc not written"]
    assert not (out / "psi.dplc").exists()


@pytest.mark.parametrize("how", ["ctrl_c", "sigterm"])
@pytest.mark.parametrize("step", ["load_ppm", "load_checkpoint"])
def test_train_interrupted_before_its_first_iteration_removes_older_outputs(
        prepared_run, capsys, monkeypatch, step, how):
    # was exit 130 leaving the previous run's f.dplc and history.csv in place
    args = [*_base_args(prepared_run), "--dpl.iterations", "2"]
    assert main(["train", *args]) == 0
    capsys.readouterr()
    # reading the first pair, or loading psi.dplc
    monkeypatch.setattr(cli, step, _interrupting(getattr(cli, step), 1, how))
    assert _main_interrupted(["train", *args]) == 130
    assert capsys.readouterr().err == ("interrupted before iteration 0; history.csv holds 0 "
                                       "iterations, f.dplc not written\n")
    assert (prepared_run / "history.csv").read_text().splitlines()[1:] == []
    assert not (prepared_run / "f.dplc").exists()


def test_train_interrupted_before_finding_its_out_dir_exits_130(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_read_pairs", _interrupting(cli._read_pairs, 1, "ctrl_c"))
    assert _main_interrupted(["train", *_base_args(tmp_path / "none")]) == 130
    assert capsys.readouterr().err.startswith("interrupted before iteration 0;")
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("how", ["ctrl_c", "sigterm"])
def test_train_interrupted_before_saving_its_generator_removes_older_one(
        prepared_run, capsys, monkeypatch, how):
    # was exit 130 with the new history.csv beside the previous run's f.dplc
    args = _base_args(prepared_run)
    assert main(["train", *args, "--dpl.iterations", "2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "save_checkpoint", _interrupting(cli.save_checkpoint, 1, how))
    assert _main_interrupted(["train", *args, "--dpl.iterations", "3"]) == 130
    assert capsys.readouterr().err == ("interrupted after iteration 2; history.csv holds 3 "
                                       "iterations, f.dplc not written\n")
    lines = (prepared_run / "history.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert not (prepared_run / "f.dplc").exists()


@pytest.mark.parametrize("how", ["ctrl_c", "sigterm"])
def test_interrupted_eval_removes_older_report(prepared_run, capsys, monkeypatch, how):
    # was exit 130 leaving the report of an earlier generator in place
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "2"]) == 0
    assert main(["eval", *_base_args(prepared_run)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "psnr", _interrupting(cli.psnr, 2, how))
    assert _main_interrupted(["eval", *_base_args(prepared_run)]) == 130
    assert capsys.readouterr().err == "interrupted; report.csv not written\n"
    assert sorted(p.name for p in prepared_run.iterdir() if "report" in p.name) == []


def test_interrupted_gen_data_exits_130(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_synthetic",
                        _interrupting(cli.generate_synthetic, 1, "ctrl_c"))
    assert _main_interrupted(["gen-data", *_base_args(tmp_path / "out")]) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_interrupted_gen_data_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    # was exit 130 with the older manifest.txt listing a mix of old and new pairs
    out = tmp_path / "out"
    assert main(["gen-data", *_base_args(out)]) == 0
    # the second pair's input image
    monkeypatch.setattr(cli, "save_image", _interrupting(cli.save_image, 3, "ctrl_c"))
    assert _main_interrupted(["gen-data", *_base_args(out, seed=4)]) == 130
    assert not (out / "train" / "manifest.txt").exists()
    capsys.readouterr()
    assert main(["train", *_base_args(out)]) == 1
    assert "run gen-data first" in capsys.readouterr().err


def _gen_data_traced_peak(out, count: int) -> int:
    tracemalloc.start()
    try:
        assert main(["gen-data", *_base_args(out, train_count=count // 2,
                                             val_count=count // 2)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_data_memory_does_not_grow_with_the_pair_count(tmp_path, capsys):
    # was ~14 MB more for 300 pairs than for 30: every pair held as float64
    _gen_data_traced_peak(tmp_path / "warm-up", 2)  # numpy's one-time allocations
    few = _gen_data_traced_peak(tmp_path / "few", 30)
    many = _gen_data_traced_peak(tmp_path / "many", 300)
    # the manifest's lines are the only state that grows
    assert many - few < 2**16


def test_pretrain_samples_are_the_float32_tensors_psi_reads(tmp_path, monkeypatch):
    received = []

    def capture(psi, dataset, *args, **kwargs):
        received.extend(dataset)
        return 1.0

    monkeypatch.setattr(cli, "pretrain_psi", capture)
    assert main(["pretrain", *_base_args(tmp_path / "out"), "--pretrain.samples", "30"]) == 0
    textures = list(generate_synthetic("textures", 30, 32, Rng(3).child(30)))
    assert len(received) == len(textures)
    for (x, label), (img, want_label) in zip(received, textures):
        assert x.dtype == np.float32 and x.shape == (3, 32, 32)
        assert x.data.tobytes() == to_tensor(img).data.tobytes()
        assert label == want_label


def test_read_pairs_holds_payloads_and_decodes_like_load_image(tmp_path):
    out = tmp_path / "out"
    assert main(["gen-data", *_base_args(out, train_count=40)]) == 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = cli._read_pairs(out / "train")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 40 pairs of 3 x 32 x 32 bytes each, plus the objects that hold them;
    # was 8 times the payloads, the pairs decoded to float64 when read
    payloads = 40 * 2 * 3 * 32 * 32
    assert held < 1.25 * payloads
    manifest = (out / "train" / "manifest.txt").read_text().splitlines()[1:]
    assert len(pairs) == len(manifest) == 40
    for (x, y), line in zip(pairs, manifest):
        for image, name in zip((x, y), line.split()):
            assert image.dtype == np.float64
            assert image.tobytes() == load_image(out / "train" / name).tobytes()


def test_eval_without_data_is_usage_error(tmp_path, capsys):
    assert main(["eval", *_base_args(tmp_path / "nothing")]) == 1
    assert "manifest" in capsys.readouterr().err


def test_manifest_that_is_not_utf8_is_usage_error(prepared_run, capsys):
    # was a UnicodeDecodeError traceback out of cli._read_pairs
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "1"]) == 0
    manifest = prepared_run / "val" / "manifest.txt"
    manifest.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main(["eval", *_base_args(prepared_run)]) == 1
    assert capsys.readouterr().err == (f"error: {manifest} is not UTF-8 text: "
                                       "invalid start byte at byte 0\n")


def test_malformed_manifest_line_is_usage_error(prepared_run, capsys):
    manifest = prepared_run / "val" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[2] = lines[2].split()[0]  # line 3 names only the input image
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["eval", *_base_args(prepared_run)]) == 1
    assert "manifest.txt:3" in capsys.readouterr().err


@pytest.mark.parametrize("first", [None, "seed", "0001_x.ppm 0001_y.ppm"])
def test_manifest_without_its_seed_line_is_usage_error(prepared_run, capsys, first):
    # was read as one pair fewer: line 1 was skipped without a look
    manifest = prepared_run / "train" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[0:1] = [] if first is None else [first]
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "1"]) == 1
    err = capsys.readouterr().err
    assert f"manifest.txt:1: expected `seed N`, got {lines[0]!r}" in err
    assert not (prepared_run / "history.csv").exists()


def test_missing_dataset_image_is_usage_error(prepared_run, capsys):
    (prepared_run / "train" / "0002_y.ppm").unlink()
    assert main(["train", *_base_args(prepared_run)]) == 1
    err = capsys.readouterr().err
    assert "cannot read image" in err and "0002_y.ppm" in err


@pytest.mark.parametrize("command, part", [("train", "train"), ("eval", "val")])
def test_manifest_without_pairs_is_usage_error(prepared_run, capsys, command, part):
    # was a TrainerError traceback (train) and a ZeroDivisionError at report.csv's
    # mean row (eval)
    if command == "eval":
        assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "1"]) == 0
    manifest = prepared_run / part / "manifest.txt"
    manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
    assert main([command, *_base_args(prepared_run)]) == 1
    assert capsys.readouterr().err == f"error: {manifest} lists no pairs; run gen-data first\n"


@pytest.mark.parametrize("flags, message", [
    (["--dpl.distortion", "gaussian_blur", "--dpl.blur_sigma_min", "3"], "blur sigma range"),
    (["--dpl.w_perceptual", "0"], "loss weights"),
    (["--dpl.jitter_scale_max", "3"], "jitter scale range (0.6, 3.0) outside"),
    (["--size", "16"], "size 16 is below 32, the smallest extent ms_ssim accepts"),
    (["--dpl.crop", "64"], "dpl.crop 64 exceeds size 32"),
    (["--dpl.crop", "6"], "'dpl.crop' (command line): must be > 0 and divisible by 4"),
    (["--dpl.distortion", "gaussian_blur", "--dpl.blur_sigma_max", "nan"],
     "not a finite number: 'nan'"),
    (["--dpl.lr_generator", "inf"], "not a finite number: 'inf'"),
    (["--dpl.distortion", "gaussian_blur", "--dpl.blur_sigma_max", "1e15"],
     "dpl.blur_sigma_max 1e+15 exceeds size 32"),
    (["--dpl.w_color", "1", "--dpl.color_sigma", "33"], "dpl.color_sigma 33 exceeds size 32"),
    (["--dpl.distortion", "none"], "task_oriented triplets require a distortion"),
    # 2 sigma^2 underflows to 0: was an all-black blur (distort) and a NaN loss at
    # iteration 0 (train)
    (["--dpl.distortion", "gaussian_blur", "--dpl.blur_sigma_min", "1e-300",
      "--dpl.blur_sigma_max", "1e-300"],
     "'dpl.blur_sigma_min' (command line): sigma 1e-300 is too small"),
    (["--dpl.blur_sigma_max", "1e-300"], "'dpl.blur_sigma_max' (command line): sigma 1e-300"),
    (["--dpl.w_color", "1", "--dpl.color_sigma", "1e-300"],
     "'dpl.color_sigma' (command line): sigma 1e-300 is too small"),
    # the float32 contextual loss read NaN at both, and training exited 3
    (["--dpl.w_contextual", "1", "--dpl.contextual_epsilon", "2e-7"],
     "'dpl.contextual_epsilon' (command line): must be >= 2^-17"),
    (["--dpl.w_contextual", "1", "--dpl.contextual_bandwidth", "1e-4"],
     "dpl.contextual_bandwidth x dpl.contextual_epsilon is 1e-09, below 2^-22"),
    # was exit 0 with every row's generator_loss 0 and F never moved
    (["--dpl.w_perceptual", "0", "--dpl.w_texture", "1e-320"],
     "'dpl.w_texture' (command line): 1e-320 rounds to 0 in float32"),
    # were numpy's "overflow encountered in cast" and a halt at iteration 0, exit 3
    (["--dpl.w_pixel_l1", "1e300"],
     "'dpl.w_pixel_l1' (command line): must be <= 3.403e+38, float32's largest value"),
    (["--dpl.margin", "1e300"], "'dpl.margin' (command line): must be <= 3.403e+38"),
    (["--dpl.lr_generator", "1e39"], "'dpl.lr_generator' (command line): must be <= 3.403e+38"),
    (["--dpl.lr_selector", "1e39"], "'dpl.lr_selector' (command line): must be <= 3.403e+38"),
    (["--pretrain.lr", "1e39"], "'pretrain.lr' (command line): must be <= 3.403e+38"),
    # were exit 0 with f_norm, or phi_norm at interval 1, the same on every row
    (["--dpl.lr_generator", "1e-50"], "'dpl.lr_generator' (command line): 1e-50 rounds to 0"),
    (["--dpl.lr_selector", "1e-300"], "'dpl.lr_selector' (command line): 1e-300 rounds to 0"),
    # was every epoch run at a rate of 0, then "gate failed" (exit 2)
    (["--pretrain.lr", "1e-50"], "'pretrain.lr' (command line): 1e-50 rounds to 0 in float32"),
    # was a triplet margin of 0
    (["--dpl.margin", "1e-50"], "'dpl.margin' (command line): 1e-50 rounds to 0 in float32"),
    # were numpy's "overflow encountered in cast" from the contextual loss
    (["--dpl.w_contextual", "1", "--dpl.contextual_bandwidth", "1e300"],
     "'dpl.contextual_bandwidth' (command line): must be <= 3.403e+38"),
    (["--dpl.w_contextual", "1", "--dpl.contextual_epsilon", "1e300"],
     "'dpl.contextual_epsilon' (command line): must be <= 2^32"),
    # was numpy's "overflow encountered in multiply" from the contextual loss
    (["--dpl.w_contextual", "1", "--dpl.contextual_epsilon", "2",
      "--dpl.contextual_bandwidth", "1e38"],
     "dpl.contextual_bandwidth x (dpl.contextual_epsilon + 2) is 4e+38, above 2^127"),
])
def test_combinations_the_trainer_rejects_fail_at_parse_time(tmp_path, capsys, flags, message):
    # refused before any data is read: the output directory does not exist
    assert main(["train", *_base_args(tmp_path / "nothing"), *flags]) == 1
    assert message in capsys.readouterr().err


def test_float32_bounds_themselves_are_accepted():
    largest, smallest = repr(FLOAT32_MAX), repr(2.0 ** -149)  # float32's least subnormal
    config = parse_config(overrides={"dpl.w_texture": smallest, "dpl.w_color": largest,
                                     "dpl.margin": largest, "dpl.lr_generator": largest,
                                     "dpl.lr_selector": smallest, "pretrain.lr": largest})
    assert np.float32(config["dpl.w_texture"]) > 0
    assert np.isfinite(np.float32(config["dpl.margin"]))


# float64's least value that rounds to a positive float32, and the least sigma
# whose Gaussian kernel is finite
TINY, SIGMA_MIN = float(np.nextafter(2.0 ** -150, 1.0)), 1.111379374742539e-162
# Every float key of SCHEMA: its smallest and largest accepted values, under
# the settings that put it to use
FLOAT_EXTREMES = {
    "pretrain.lr": (TINY, FLOAT32_MAX, {}),
    "dpl.blur_sigma_min": (SIGMA_MIN, 32.0, {"dpl.distortion": "gaussian_blur",
                                             "dpl.blur_sigma_max": "32"}),
    "dpl.blur_sigma_max": (SIGMA_MIN, 32.0, {"dpl.distortion": "gaussian_blur",
                                             "dpl.blur_sigma_min": repr(SIGMA_MIN)}),
    "dpl.jitter_scale_min": (0.0, 1.5, {"dpl.jitter_scale_max": "1.5"}),
    "dpl.jitter_scale_max": (0.0, 1.5, {"dpl.jitter_scale_min": "0"}),
    "dpl.jitter_bias_min": (-0.25, 0.25, {"dpl.jitter_bias_max": "0.25"}),
    "dpl.jitter_bias_max": (-0.25, 0.25, {"dpl.jitter_bias_min": "-0.25"}),
    "dpl.margin": (0.0, FLOAT32_MAX, {}),
    "dpl.lr_generator": (TINY, FLOAT32_MAX, {}),
    "dpl.lr_selector": (TINY, FLOAT32_MAX, {"dpl.interval": "1"}),
    "dpl.w_perceptual": (0.0, FLOAT32_MAX, {"dpl.w_pixel_l1": "1"}),
    "dpl.w_contextual": (0.0, FLOAT32_MAX, {}),
    "dpl.w_pixel_l1": (0.0, FLOAT32_MAX, {}),
    "dpl.w_color": (0.0, FLOAT32_MAX, {}),
    "dpl.w_texture": (0.0, FLOAT32_MAX, {}),
    "dpl.color_sigma": (SIGMA_MIN, 32.0, {"dpl.w_color": "1"}),
    "dpl.contextual_bandwidth": (2.0 ** -23, 2.0 ** 125, {"dpl.w_contextual": "1",
                                                          "dpl.contextual_epsilon": "2"}),
    "dpl.contextual_epsilon": (2.0 ** -17, 2.0 ** 32, {"dpl.w_contextual": "1"}),
}


def test_float_extremes_lists_every_float_key_at_its_bounds():
    assert sorted(FLOAT_EXTREMES) == sorted(
        key for key, spec in SCHEMA.items() if isinstance(spec.default, float))
    for key, (low, high, settings) in FLOAT_EXTREMES.items():
        for value in (low, high):
            parse_config(overrides={**settings, key: repr(value)})
        for value in (np.nextafter(low, -np.inf), np.nextafter(high, np.inf)):
            with pytest.raises(ConfigError):
                parse_config(overrides={**settings, key: repr(float(value))})


def test_float_extremes_run_without_overflow(prepared_run, tmp_path, capsys):
    # a positive weight or margin at float32's least value runs too. The
    # 30-sample pretraining cannot reach the gate at any rate, so its end is
    # the gate miss (2) or a numerical halt (3)
    for key, (low, high, settings) in FLOAT_EXTREMES.items():
        pretrain = key.startswith("pretrain.")
        out = tmp_path / "pretrain" if pretrain else prepared_run
        command, budget = (("pretrain", ["--pretrain.samples", "30", "--pretrain.epochs", "1"])
                           if pretrain else ("train", ["--dpl.iterations", "2"]))
        for value in (low, high, *([TINY] if low == 0 else [])):
            flags = [arg for k, v in {**settings, key: repr(value)}.items()
                     for arg in (f"--{k}", v)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, *_base_args(out), *budget, *flags])
            err = capsys.readouterr().err
            where = f"{key} = {value!r}: exit {code}, {err}"
            assert code in ((2, 3) if pretrain else (0, 3)), where
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], where
            assert "Traceback" not in err and "RuntimeWarning" not in err, where
            if code == 0:
                rows = (out / "history.csv").read_text().splitlines()[1:]
                assert len(rows) == 2, where
                assert all(np.isfinite(float(v)) for row in rows for v in row.split(",")), where


def test_equal_blur_sigma_range_is_accepted():
    # the range check refuses min > max only: one sigma for every blur
    config = parse_config(overrides={"dpl.distortion": "gaussian_blur",
                                     "dpl.blur_sigma_min": "1.5", "dpl.blur_sigma_max": "1.5"})
    assert (config["dpl.blur_sigma_min"], config["dpl.blur_sigma_max"]) == (1.5, 1.5)


def test_smallest_contextual_settings_are_accepted():
    # the corner where both bounds hold with equality
    config = parse_config(overrides={"dpl.contextual_epsilon": repr(2.0 ** -17),
                                     "dpl.contextual_bandwidth": repr(2.0 ** -5)})
    assert config["dpl.contextual_epsilon"] * config["dpl.contextual_bandwidth"] == 2.0 ** -22


@pytest.mark.parametrize("command, flags, message", [
    # was a numpy _ArrayMemoryError traceback
    ("gen-data", ["--size", "1000000"], "train_count and val_count at size 1000000"),
    # each key is fine alone; the 20,100 images of 256 x 256 need ~30 GiB
    ("gen-data", ["--size", "256", "--train_count", "10000"],
     "train_count and val_count at size 256"),
    ("gen-data", ["--val_count", "10000000000"], "train_count and val_count at size 32"),
    ("pretrain", ["--size", "128", "--pretrain.samples", "100000"],
     "pretrain.samples at size 128"),
])
def test_datasets_larger_than_memory_fail_at_parse_time(tmp_path, capsys, monkeypatch,
                                                         command, flags, message):
    monkeypatch.setattr(config_module, "_memory_bytes", lambda: 2**30)
    assert main([command, "--out_dir", str(tmp_path / "out")] + flags) == 1
    err = capsys.readouterr().err
    assert message in err and "more than the 1 GiB" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_dataset_memory_bound_is_the_images_held(monkeypatch):
    # one split of 2 pairs of 3 x 32 x 32 uint8 payloads, or 1 pretraining sample
    # of 3 x 32 x 32 float32 values: 12,288 bytes
    monkeypatch.setattr(config_module, "_memory_bytes", lambda: 12_288)
    fits = {"train_count": "2", "val_count": "2", "pretrain.samples": "1"}
    parse_config(None, fits)
    for key in ("train_count", "val_count"):
        with pytest.raises(ConfigError, match="train_count and val_count at size 32"):
            parse_config(None, dict(fits, **{key: "3"}))
    with pytest.raises(ConfigError, match="pretrain.samples at size 32"):
        parse_config(None, dict(fits, **{"pretrain.samples": "2"}))


def test_dataset_memory_bound_follows_an_address_space_limit(monkeypatch):
    resource = config_module.resource
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    monkeypatch.setattr(resource, "getrlimit", lambda _: (resource.RLIM_INFINITY,) * 2)
    assert config_module._memory_bytes() == physical
    monkeypatch.setattr(resource, "getrlimit", lambda _: (2**20, resource.RLIM_INFINITY))
    assert config_module._memory_bytes() == 2**20
    with pytest.raises(ConfigError, match="more than the 0.000977 GiB"):
        parse_config(None, {"train_count": "10", "val_count": "10"})


@pytest.mark.parametrize("kind", ["grayscale", "gaussian_blur"])
def test_distort_command(prepared_run, tmp_path, kind):
    src = prepared_run / "train" / "0001_y.ppm"
    dst = tmp_path / "distorted.ppm"
    code = main(["distort", *_base_args(prepared_run),
                 "--dpl.distortion", kind,
                 "--input", str(src), "--output", str(dst)])
    assert code == 0
    img = load_image(dst)
    if kind == "grayscale":
        assert np.array_equal(img[..., 0], img[..., 1])
    else:
        # sigma is one draw from Rng(seed) over the default range [1, 2]
        want = tmp_path / "want.ppm"
        save_image(gaussian_blur(load_image(src), Rng(3).uniform(1.0, 2.0)), want)
        assert dst.read_bytes() == want.read_bytes()


def test_distort_of_a_ppm_declaring_more_than_it_holds_is_one_error_line(tmp_path, capsys):
    # was an OverflowError traceback: the payload was read at the declared size
    src = tmp_path / "huge.ppm"
    src.write_bytes(b"P6\n4000000000 4000000000\n255\n" + bytes(3))
    code = main(["distort", *_base_args(tmp_path / "run"), "--dpl.distortion", "grayscale",
                 "--input", str(src), "--output", str(tmp_path / "o.ppm")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: truncated PPM payload") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not (tmp_path / "o.ppm").exists()


def test_distort_to_a_missing_directory_is_usage_error(prepared_run, tmp_path, capsys):
    # was a FileNotFoundError traceback
    dst = tmp_path / "missing" / "o.ppm"
    code = main(["distort", *_base_args(prepared_run), "--dpl.distortion", "grayscale",
                 "--input", str(prepared_run / "train" / "0001_y.ppm"), "--output", str(dst)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(dst) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, sub", [("gen-data", ""), ("pretrain", "x")])
def test_out_dir_under_a_regular_file_is_usage_error(tmp_path, capsys, command, sub):
    # was a NotADirectoryError traceback from mkdir
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, *_base_args(blocker / sub)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and len(err.splitlines()) == 1


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    # was a UnicodeDecodeError traceback out of config.parse_config
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main(["show-config", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: config file {path} is not UTF-8 text: "
                                       "invalid start byte at byte 0\n")


def test_show_config_round_trips(tmp_path, capsys):
    assert main(["show-config", "--task", "blur", "--dpl.margin", "0.25"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "shown.cfg"
    path.write_text(text)
    cfg = parse_config(path)
    assert cfg["task"] == "blur"
    assert cfg["dpl.margin"] == 0.25


def test_usage_errors_exit_one(capsys):
    assert main(["train", "--size", "not-a-number"]) == 1
    assert "size" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    assert main(["gen-data", "--task", "sharpen"]) == 1


# -- config fuzz ------------------------------------------------------------------------

# values drawn for every key: valid and invalid numbers, special floats,
# booleans, and the words of every choice-valued key
FUZZ_VALUES = ("0", "1", "2", "-1", "0.5", "1e-12", "1e15", "nan", "inf", "-inf", "", "x",
               "16", "32", "64", "true", "none", "psnr", "dfd,psnr", "ms_ssim",
               "darken", "blur", "grayscale", "gaussian_blur", "color_jitter",
               "feature_selection", "full", "frozen", "instance_self", "task_oriented",
               "source_anchored")
FUZZ_KEYS = sorted(key for key in SCHEMA if key not in ("out_dir", "dpl.iterations"))


def _accepted(key, raw):
    try:
        parse_config(None, {key: raw})
    except ConfigError:
        return False
    return True


# each example sets up to four keys to values they accept alone, and at most
# one key to any value, so that most examples get past parsing
FUZZ_ACCEPTED = {key: [v for v in FUZZ_VALUES if _accepted(key, v)] for key in FUZZ_KEYS}
FUZZ_OVERRIDES = st.lists(st.sampled_from(FUZZ_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(FUZZ_ACCEPTED[key]))), max_size=4)
FUZZ_ANY = st.none() | st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES))


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-data", "--out_dir", str(out), "--size", "32", "--train_count", "2",
                 "--val_count", "2", "--seed", "3"]) == 0
    save_checkpoint(FeatureNetPsi(Rng(0)).state_dict(), out / "psi.dplc")
    return out


@settings(max_examples=225, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["show-config", "gen-data", "pretrain", "train", "eval",
                                 "distort"]),
       overrides=FUZZ_OVERRIDES, extra=FUZZ_ANY,
       iterations=st.sampled_from(["1", "2"]))  # bounded: one example stays fast
def test_config_fuzz_exits_with_a_documented_code(fuzz_run, command, overrides, extra,
                                                  iterations):
    argv = [command, "--out_dir", str(fuzz_run), "--dpl.iterations", iterations]
    if command in ("gen-data", "pretrain"):
        # they write into their own directory, so that the data and extractor the
        # other commands read stay in place, and start from small datasets that
        # the overrides after them may raise
        argv[2] = str(fuzz_run / command)
        argv += ["--train_count", "2", "--val_count", "2", "--pretrain.samples", "20",
                 "--pretrain.epochs", iterations]
    for key, value in overrides + ([extra] if extra else []):
        if command == "pretrain" and key == "pretrain.epochs" and value.isdigit():
            value = min(value, iterations, key=int)  # each epoch is a pass over the samples
        argv += [f"--{key}", value]
    if command == "distort":
        argv += ["--input", str(fuzz_run / "val" / "0001_y.ppm"),
                 "--output", str(fuzz_run / "distorted.ppm")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_module(name: str):
    """The benchmark's ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def _benchmark_tracer():
    """A ``Tracer`` of the benchmark's ``perfbench/tracing.py``."""
    return _benchmark_module("tracing").Tracer()


def test_benchmark_call_counts_hold(prepared_run, tmp_path, monkeypatch):
    # the benchmark times pretraining samples by Adam.step calls, eval pairs by
    # cli.psnr calls and iterations by the sample hook; a change to what they
    # count shows here, not only as a failed benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workload.py imports checks.py
    workload = _benchmark_module("workload")
    samples, epochs, holdout = 30, 2, 3
    with workload.call_stamps(dpl.optim.Adam, "step") as steps:
        assert main(["pretrain", *_base_args(tmp_path / "pretrain"), "--pretrain.samples",
                     str(samples), "--pretrain.epochs", str(epochs)]) == 2  # the gate's miss
    log = (tmp_path / "pretrain" / "pretrain_accuracy.log").read_text()
    assert f"epoch {epochs} heldout_accuracy" in log
    assert len(steps) == epochs * (samples - holdout)
    with workload.TrainClock(cli) as clock:
        assert main(["train", *_base_args(prepared_run), "--dpl.iterations", "5"]) == 0
    assert len(clock.ticks) == 5
    with workload.call_stamps(cli, "psnr") as pairs:
        assert main(["eval", *_base_args(prepared_run)]) == 0
    assert len(pairs) == 2  # val_count


def test_benchmark_tracer_records_a_traced_train_and_eval(prepared_run):
    # a renamed function the benchmark's traced run patches fails here; it
    # showed only in a traced benchmark run
    tracer = _benchmark_tracer()
    tracer.install(dpl)
    try:
        args = [*_base_args(prepared_run), "--dpl.iterations", "3"]
        assert main(["train", *args, "--dpl.mode", "feature_selection"]) == 0
        assert main(["train", *args, "--dpl.mode", "frozen", "--dpl.w_contextual", "1"]) == 0
        assert main(["eval", *_base_args(prepared_run)]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"trainer.generator_step", "trainer.build_triplet", "tensor.conv2d",
            "networks.enc1"} <= names
