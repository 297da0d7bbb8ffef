"""Experiment configuration: line-oriented `key = value` files with `#`
comments and dotted keys, overridable from the command line. Unknown keys
are rejected; every value is validated at parse time."""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass

import numpy as np

from .image import ImageError, check_jitter_ranges, gaussian_kernel1d
from .losses import (CONTEXTUAL_BANDWIDTH_EPSILON_MIN, CONTEXTUAL_BANDWIDTH_Q_MAX,
                     CONTEXTUAL_EPSILON_MAX, CONTEXTUAL_EPSILON_MIN, FLOAT32_MAX)
from .metrics import MS_SSIM_MIN_EXTENT
from .synth import PAIRED_TASKS
from .trainer import DISTORTIONS, LOSSES, MODES, STRATEGIES

VALID_METRICS = ("psnr", "ms_ssim", "dfd")


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _float32(text: str) -> float:
    """A finite float the runtime casts to float32 (a loss weight, the margin,
    a learning rate or the contextual bandwidth): at most float32's largest
    value, and not a positive value that rounds to float32 0."""
    value = _float(text)
    if value > FLOAT32_MAX:
        raise ValueError(f"must be <= {FLOAT32_MAX:.4g}, float32's largest value")
    if value > 0 and np.float32(value) == 0:
        raise ValueError(f"{value:.3g} rounds to 0 in float32")
    return value


def _parse_metrics(text: str) -> tuple:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    for i, n in enumerate(names):
        if n not in VALID_METRICS:
            raise ValueError(f"unknown metric {n!r}; choices: {VALID_METRICS}")
        if n in names[:i]:
            raise ValueError(f"metric {n!r} is listed twice")
    if not names:
        raise ValueError("metric list is empty")
    return names


def _choice(options):
    def parse(text: str) -> str:
        t = text.strip()
        if t not in options:
            raise ValueError(f"expected one of {options}, got {t!r}")
        return t
    return parse


@dataclass
class _Key:
    parse: object
    default: object
    check: object = None
    help: str = ""


def _positive(v):
    if v <= 0:
        raise ValueError("must be > 0")


def _non_negative(v):
    if v < 0:
        raise ValueError("must be >= 0")


def _contextual_epsilon_check(v):
    if v < CONTEXTUAL_EPSILON_MIN:
        raise ValueError(f"must be >= 2^-17 = {CONTEXTUAL_EPSILON_MIN:.4g}, or the float32 "
                         "contextual loss can be NaN")
    if v > CONTEXTUAL_EPSILON_MAX:
        raise ValueError(f"must be <= 2^32 = {CONTEXTUAL_EPSILON_MAX:.4g}, or its square "
                         "can overflow the float32 contextual loss")


def _sigma_check(v):
    """A Gaussian sigma: positive, and with a finite kernel. At 1 or above
    the kernel is finite, so only a smaller sigma's, of at most 7 taps, is
    built here."""
    _positive(v)
    try:
        gaussian_kernel1d(min(v, 1.0))
    except ImageError as e:
        raise ValueError(str(e)) from None


def _size_check(v):
    if v < 16 or v % 4:
        raise ValueError("must be >= 16 and divisible by 4")


def _crop_check(v):
    if v <= 0 or v % 4:
        raise ValueError("must be > 0 and divisible by 4")


SCHEMA: dict[str, _Key] = {
    "task": _Key(_choice(tuple(PAIRED_TASKS)), "colorcast", help="paired transformation task"),
    "size": _Key(int, 32, _size_check, "image extent in pixels"),
    "train_count": _Key(int, 400, _positive, "training pair count"),
    "val_count": _Key(int, 50, _positive, "validation pair count"),
    "seed": _Key(int, 0, help="master seed for every stream"),
    "out_dir": _Key(str, "runs/default", help="output directory"),
    "metrics": _Key(_parse_metrics, ("psnr", "ms_ssim", "dfd"),
                    help="comma-separated metric list"),
    "pretrain.epochs": _Key(int, 5, _positive),
    "pretrain.samples": _Key(int, 2000, _positive),
    "pretrain.lr": _Key(_float32, 1e-3, _positive),
    "dpl.strategy": _Key(_choice(tuple(STRATEGIES)), "task_oriented"),
    "dpl.distortion": _Key(_choice((*DISTORTIONS, "none")), "color_jitter"),
    "dpl.blur_sigma_min": _Key(_float, 1.0, _sigma_check),
    "dpl.blur_sigma_max": _Key(_float, 2.0, _sigma_check),
    "dpl.jitter_scale_min": _Key(_float, 0.6, _non_negative),
    "dpl.jitter_scale_max": _Key(_float, 1.4, _non_negative),
    "dpl.jitter_bias_min": _Key(_float, -0.1),
    "dpl.jitter_bias_max": _Key(_float, 0.1),
    "dpl.crop": _Key(int, 16, _crop_check, "triplet crop size"),
    "dpl.interval": _Key(int, 4, _positive, "iterations between selector updates"),
    "dpl.margin": _Key(_float32, 1.0, _non_negative, "triplet margin"),
    "dpl.mode": _Key(_choice(MODES), "feature_selection"),
    "dpl.iterations": _Key(int, 2000, _positive),
    "dpl.lr_generator": _Key(_float32, 1e-4, _positive),
    "dpl.lr_selector": _Key(_float32, 1e-4, _positive),
    **{f"dpl.w_{name}": _Key(_float32, weight, _non_negative)
       for name, (weight, _) in LOSSES.items()},
    "dpl.color_sigma": _Key(_float, 3.0, _sigma_check),
    "dpl.contextual_bandwidth": _Key(_float32, 0.5, _positive),
    "dpl.contextual_epsilon": _Key(_float, 1e-5, _contextual_epsilon_check),
    "dpl.augment": _Key(_parse_bool, True, help="joint pair augmentation"),
    "train.sample_every": _Key(int, 500, _positive, "iterations between sample triptychs"),
}


def _set_value(values: dict, key: str, raw: str, where: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"unknown key {key!r} ({where})")
    spec = SCHEMA[key]
    try:
        value = spec.parse(raw)
        if spec.check is not None:
            spec.check(value)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {key!r} ({where}): {e}") from None
    values[key] = value


def _memory_bytes() -> int:
    """Physical memory, or the address-space limit (``ulimit -v``) if lower."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    return total if limit == resource.RLIM_INFINITY else min(total, limit)


def parse_config(path=None, overrides: dict | None = None) -> dict:
    """Every ``SCHEMA`` key's value: defaults, then file, then DPL_SEED, then
    command-line overrides.

    The merged values must also make a consistent training recipe (a
    distortion for task_oriented triplets, some loss weight above 0, and
    ordered distortion ranges), an image size every listed metric accepts,
    a triplet crop and blur widths that fit in the image, and a contextual
    bandwidth and epsilon that keep the float32 loss finite, so
    combinations the runtime rejects fail here. Floats must be finite; loss
    weights, the margin, learning rates and the contextual bandwidth must be
    at most float32's largest value and, when positive, not round to float32
    0. The datasets train, eval and pretrain hold must fit in the memory the
    process may use.
    """
    config = {key: spec.default for key, spec in SCHEMA.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.readlines()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {path} is not UTF-8 text: {e.reason} "
                              f"at byte {e.start}") from None
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"missing '=' at {path}:{lineno}: {line.strip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            _set_value(config, key, raw, f"{path}:{lineno}")
    if os.environ.get("DPL_SEED"):
        _set_value(config, "seed", os.environ["DPL_SEED"], "env DPL_SEED")
    for key, raw in (overrides or {}).items():
        _set_value(config, key, raw, "command line")
    if "ms_ssim" in config["metrics"] and config["size"] < MS_SSIM_MIN_EXTENT:
        raise ConfigError(f"size {config['size']} is below {MS_SSIM_MIN_EXTENT}, the smallest "
                          "extent ms_ssim accepts; raise size or drop ms_ssim from metrics")
    if config["dpl.crop"] > config["size"]:
        raise ConfigError(f"dpl.crop {config['dpl.crop']} exceeds size {config['size']}; "
                          "triplet crops are cut from the images")
    for key in ("dpl.blur_sigma_max", "dpl.color_sigma"):
        if config[key] > config["size"]:
            raise ConfigError(f"{key} {config[key]:g} exceeds size {config['size']}; "
                              "a blur is at most as wide as the image")
    # train and eval each hold one split's pairs as 3 x size x size uint8
    # payloads, pretrain every sample as a float32 tensor of that shape, and
    # gen-data one pair at a time; a dataset that fits can still fail to
    # allocate when that memory is in use elsewhere
    memory = _memory_bytes()
    for keys, images, bytes_per_value in (
            ("train_count and val_count",
             2 * max(config["train_count"], config["val_count"]), 1),
            ("pretrain.samples", config["pretrain.samples"], 4)):
        need = images * bytes_per_value * 3 * config["size"] ** 2
        if need > memory:
            raise ConfigError(f"{keys} at size {config['size']} need {need / 2**30:.3g} GiB "
                              f"of images, more than the {memory / 2**30:.3g} GiB of memory "
                              "this process may use")
    h, eps = config["dpl.contextual_bandwidth"], config["dpl.contextual_epsilon"]
    if h * eps < CONTEXTUAL_BANDWIDTH_EPSILON_MIN:
        raise ConfigError(f"dpl.contextual_bandwidth x dpl.contextual_epsilon is {h * eps:.4g}, "
                          f"below 2^-22 = {CONTEXTUAL_BANDWIDTH_EPSILON_MIN:.4g}, where the "
                          "float32 contextual loss can overflow to NaN")
    if (hq := h * (eps + 2)) > CONTEXTUAL_BANDWIDTH_Q_MAX:
        raise ConfigError(f"dpl.contextual_bandwidth x (dpl.contextual_epsilon + 2) is {hq:.4g}, "
                          "above 2^127, where the float32 contextual loss overflows")
    if "distorted" in STRATEGIES[config["dpl.strategy"]] and config["dpl.distortion"] == "none":
        raise ConfigError("task_oriented triplets require a distortion; set dpl.distortion")
    if not any(config[f"dpl.w_{name}"] > 0 for name in LOSSES):
        raise ConfigError("loss weights are all 0; set some dpl.w_* above 0")
    if config["dpl.distortion"] != "none":
        blur = (config["dpl.blur_sigma_min"], config["dpl.blur_sigma_max"])
        if blur[0] > blur[1]:
            raise ConfigError(f"bad blur sigma range {blur}: dpl.blur_sigma_min > max")
        try:
            check_jitter_ranges((config["dpl.jitter_scale_min"], config["dpl.jitter_scale_max"]),
                                (config["dpl.jitter_bias_min"], config["dpl.jitter_bias_max"]))
        except ImageError as e:
            raise ConfigError(f"bad dpl.jitter_* settings: {e}") from None
    return config


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(config: dict) -> str:
    lines = [f"{key} = {_format_value(config[key])}" for key in SCHEMA]
    return "\n".join(lines) + "\n"
