"""Seeded synthetic datasets: 10 procedural texture families for extractor
pretraining and paired (X, Y) sets for the darken/colorcast/blur tasks."""

from __future__ import annotations

import numpy as np

from .image import Image, color_jitter, gaussian_blur
from .rng import Rng

# paired task: name -> source(y, rng), the degraded X drawn from the clean target Y
PAIRED_TASKS = {
    "darken": lambda y, rng: Image.from_array(
        0.2 * y.pixels + rng.normal(0.0, 0.02, size=y.pixels.shape)),
    "colorcast": color_jitter,
    "blur": lambda y, rng: gaussian_blur(y, rng.uniform(1.0, 2.0)),
}


class SynthError(Exception):
    pass


def _grid(size: int):
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64) / size
    return ys, xs


def _two_colors(rng: Rng):
    dark = rng.uniform(0.0, 0.4, size=3)
    bright = rng.uniform(0.6, 1.0, size=3)
    return dark, bright


def _from_mask(mask: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> Image:
    return Image.from_array(c0 + mask[:, :, None] * (c1 - c0))


def texture_sample(label: int, size: int, rng: Rng) -> Image:
    ys, xs = _grid(size)
    c0, c1 = _two_colors(rng)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    freq = rng.integers(3, 7)

    if label == 0:  # stripes
        mask = 0.5 + 0.5 * np.sin(2 * np.pi * freq * ys + phase)
    elif label == 1:  # checker
        mask = ((np.floor(xs * freq) + np.floor(ys * freq)) % 2.0)
    elif label == 2:  # dots
        fx = (xs * freq) % 1.0 - 0.5
        fy = (ys * freq) % 1.0 - 0.5
        mask = (fx * fx + fy * fy < 0.09).astype(np.float64)
    elif label == 3:  # radial gradient
        cx, cy = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
        mask = np.hypot(xs - cx, ys - cy)
        mask = mask / mask.max()
    elif label == 4:  # linear gradient
        theta = rng.uniform(0.0, 2.0 * np.pi)
        proj = np.cos(theta) * xs + np.sin(theta) * ys
        mask = (proj - proj.min()) / (proj.max() - proj.min())
    elif label == 5:  # noise
        mask = rng.uniform(0.0, 1.0, size=(size, size))
    elif label == 6:  # rings
        cx, cy = rng.uniform(0.35, 0.65), rng.uniform(0.35, 0.65)
        r = np.hypot(xs - cx, ys - cy)
        mask = 0.5 + 0.5 * np.sin(2 * np.pi * freq * r + phase)
    elif label == 7:  # diagonal bands
        mask = 0.5 + 0.5 * np.sin(2 * np.pi * freq * (xs + ys) + phase)
    elif label == 8:  # blobs
        mask = np.zeros((size, size))
        for _ in range(5):
            cx, cy = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            s = rng.uniform(0.05, 0.15)
            mask += np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * s * s))
        mask = mask / mask.max()
    elif label == 9:  # grid lines
        t = 0.15
        mask = (((xs * freq) % 1.0 < t) | ((ys * freq) % 1.0 < t)).astype(np.float64)
    else:
        raise SynthError(f"texture label {label} out of range 0..9")
    return _from_mask(mask, c0, c1)


def _scene(size: int, rng: Rng) -> Image:
    """Colorful procedural target: gradient background plus soft shapes."""
    ys, xs = _grid(size)
    ca = rng.uniform(0.2, 0.9, size=3)
    cb = rng.uniform(0.2, 0.9, size=3)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    proj = np.cos(theta) * xs + np.sin(theta) * ys
    proj = (proj - proj.min()) / (proj.max() - proj.min())
    img = ca + proj[:, :, None] * (cb - ca)
    for _ in range(rng.integers(2, 5)):
        cx, cy = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        s = rng.uniform(0.08, 0.22)
        blob = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * s * s))
        color = rng.uniform(0.1, 1.0, size=3)
        img = img + blob[:, :, None] * (color - img) * 0.8
    freq = rng.integers(2, 5)
    ripple = 0.04 * np.sin(2 * np.pi * freq * (xs + ys))
    img = img + ripple[:, :, None]
    return Image.from_array(np.clip(img, 0.02, 0.98))


def generate_synthetic(task: str, count: int, size: int, rng: Rng):
    """Deterministic dataset generation, one draw at a time.

    ``textures`` -> iterator of (Image, label 0..9); paired tasks -> iterator
    of (X, Y) where X is the degraded source and Y the clean target. A bad
    ``task`` or ``size`` raises here, before anything is drawn.
    """
    if size < 16:
        raise SynthError(f"size must be >= 16, got {size}")
    if task == "textures":
        return ((texture_sample(i % 10, size, rng), i % 10) for i in range(count))
    if task not in PAIRED_TASKS:
        raise SynthError(f"unknown task {task!r}; expected textures or {tuple(PAIRED_TASKS)}")
    return _pairs(task, count, size, rng)


def _pairs(task: str, count: int, size: int, rng: Rng):
    for _ in range(count):
        y = _scene(size, rng)
        yield PAIRED_TASKS[task](y, rng), y
