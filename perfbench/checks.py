"""Checks on the files the `dpl` CLI writes, independent of the dpl package.

Every check raises CheckFailed with a message naming the file and what is
wrong. Only numpy and the standard library are used, so a fault in dpl's
own readers or metrics cannot hide a fault in its outputs.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def read_ppm(path) -> np.ndarray:
    """Binary P6 file with maxval 255 -> (H, W, 3) float64 in [0, 1]."""
    raw = Path(path).read_bytes()
    match = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", raw)
    if match is None:
        raise CheckFailed(f"{path}: not a P6 PPM with maxval 255")
    w, h = int(match.group(1)), int(match.group(2))
    payload = raw[match.end():]
    if len(payload) != w * h * 3:
        raise CheckFailed(f"{path}: payload has {len(payload)} bytes, expected {w * h * 3}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3) / 255.0


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR against peak 1.0."""
    mse = float(np.mean((np.asarray(a, float) - np.asarray(b, float)) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def identity_psnr(val_dir) -> float:
    """Mean over the val pairs of PSNR(x, y): the score of a generator that
    returns its input unchanged."""
    val_dir = Path(val_dir)
    lines = (val_dir / "manifest.txt").read_text().splitlines()[1:]
    if not lines:
        raise CheckFailed(f"{val_dir}/manifest.txt lists no pairs")
    values = []
    for line in lines:
        xname, yname = line.split()
        values.append(psnr_db(read_ppm(val_dir / xname), read_ppm(val_dir / yname)))
    return float(np.mean(values))


def check_history(path, iterations: int, mode: str) -> dict[str, np.ndarray]:
    """One finite row per iteration; d_c >= 0 (0 in frozen mode); the
    selector moves in feature_selection mode and stays put in frozen mode;
    the generator loss falls from the first tenth of the run to the last."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    if len(body) != iterations:
        raise CheckFailed(f"{path}: {len(body)} rows for {iterations} iterations")
    try:
        table = np.array(body, dtype=float)
    except ValueError as e:
        raise CheckFailed(f"{path}: unparsable row: {e}") from None
    if not np.isfinite(table).all():
        bad = int(np.argwhere(~np.isfinite(table))[0][0])
        raise CheckFailed(f"{path}: non-finite value in row {bad + 1}")
    cols = {name: table[:, i] for i, name in enumerate(header)}
    if not np.array_equal(cols["iteration"], np.arange(iterations)):
        raise CheckFailed(f"{path}: iteration column is not 0..{iterations - 1}")
    if (cols["d_c"] < 0).any():
        raise CheckFailed(f"{path}: negative triplet loss d_c")
    phi = cols["phi_norm"]
    if mode == "frozen":
        if (cols["d_c"] != 0).any():
            raise CheckFailed(f"{path}: d_c is nonzero in frozen mode")
        if (phi != phi[0]).any():
            raise CheckFailed(f"{path}: selector moved in frozen mode")
    elif mode == "feature_selection" and (phi == phi[0]).all():
        raise CheckFailed(f"{path}: selector never moved in feature_selection mode")
    tenth = max(1, iterations // 10)
    loss = cols["generator_loss"]
    first, last = loss[:tenth].mean(), loss[-tenth:].mean()
    if not last < first:
        raise CheckFailed(
            f"{path}: generator loss did not fall: last tenth {last:.6g} >= first tenth {first:.6g}")
    return cols


def check_report(path, pairs: int, metrics) -> dict[str, float]:
    """One row per val pair plus a mean row equal to the mean of the rows;
    ms_ssim in [0, 1] and dfd >= 0. Returns the mean row."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["id", *metrics]:
        raise CheckFailed(f"{path}: header {rows[0]} != {['id', *metrics]}")
    body, mean_row = rows[1:-1], rows[-1]
    if len(body) != pairs or mean_row[0] != "mean":
        raise CheckFailed(f"{path}: {len(body)} rows for {pairs} pairs, last row {mean_row[0]!r}")
    values = np.array([row[1:] for row in body], dtype=float)
    means = np.array(mean_row[1:], dtype=float)
    if not np.isfinite(values).all():
        raise CheckFailed(f"{path}: non-finite metric value")
    # values are written with 12 significant digits
    if not np.allclose(values.mean(axis=0), means, rtol=1e-9, atol=0.0):
        raise CheckFailed(f"{path}: mean row {means} != mean of rows {values.mean(axis=0)}")
    by_name = dict(zip(metrics, values.T))
    if "ms_ssim" in by_name and ((by_name["ms_ssim"] < 0) | (by_name["ms_ssim"] > 1)).any():
        raise CheckFailed(f"{path}: ms_ssim outside [0, 1]")
    if "dfd" in by_name and (by_name["dfd"] < 0).any():
        raise CheckFailed(f"{path}: negative dfd")
    return dict(zip(metrics, means.tolist()))


def check_beats_identity(val_psnr: float, baseline: float) -> None:
    if not val_psnr > baseline:
        raise CheckFailed(
            f"generator PSNR {val_psnr:.4f} dB does not beat the identity baseline {baseline:.4f} dB")


def check_pretrain_log(path, gate: float = 0.80) -> int:
    """The last held-out accuracy meets the gate. Returns the epochs run."""
    found = re.findall(r"^epoch (\d+) heldout_accuracy ([0-9.]+)$",
                       Path(path).read_text(), flags=re.M)
    if not found:
        raise CheckFailed(f"{path}: no epoch lines")
    epochs, accuracy = int(found[-1][0]), float(found[-1][1])
    if accuracy < gate:
        raise CheckFailed(f"{path}: held-out accuracy {accuracy:.4f} < {gate}")
    return epochs
