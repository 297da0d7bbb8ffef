"""Fast self-test of the benchmark's output checks: each one accepts a good
output and rejects a broken one. Needs numpy only, not dpl.

    python -m pytest -q perfbench/test_checks.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
from tracing import LAYER_METRICS

COLUMNS = ("iteration", "generator_loss", "perceptual", "contextual", "pixel_l1",
           "color", "texture", "d_c", "f_norm", "phi_norm")


def _write_history(path, rows):
    lines = [",".join(COLUMNS)]
    lines += [",".join(repr(float(v)) if i else str(int(v)) for i, v in enumerate(row))
              for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _history(n=20, mode="feature_selection"):
    rows = []
    for it in range(n):
        loss = 1.0 - it / (2.0 * n)
        phi = 10.0 if mode == "frozen" else 10.0 + 0.01 * it
        d_c = 0.0 if mode == "frozen" else 0.5
        rows.append([it, loss, loss, 0, 0, 0, 0, d_c, 5.0 + 0.001 * it, phi])
    return rows


def _write_ppm(path, pixels):
    h, w, _ = pixels.shape
    payload = np.round(pixels * 255.0).astype(np.uint8).tobytes()
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + payload)


def test_psnr_helper_constant_images():
    a = np.full((8, 8, 3), 0.4)
    b = np.full((8, 8, 3), 0.5)
    assert checks.psnr_db(a, b) == pytest.approx(20.0, abs=1e-9)
    assert checks.psnr_db(a, a) == math.inf


@pytest.mark.parametrize("mode", ["feature_selection", "frozen"])
def test_good_history_passes(tmp_path, mode):
    _write_history(tmp_path / "history.csv", _history(mode=mode))
    cols = checks.check_history(tmp_path / "history.csv", 20, mode)
    assert len(cols["generator_loss"]) == 20


def test_nan_row_in_history_rejected(tmp_path):
    rows = _history()
    rows[7][1] = float("nan")
    _write_history(tmp_path / "history.csv", rows)
    with pytest.raises(checks.CheckFailed, match="non-finite value in row 8"):
        checks.check_history(tmp_path / "history.csv", 20, "feature_selection")


def test_missing_history_row_rejected(tmp_path):
    _write_history(tmp_path / "history.csv", _history()[:-1])
    with pytest.raises(checks.CheckFailed, match="19 rows for 20 iterations"):
        checks.check_history(tmp_path / "history.csv", 20, "feature_selection")


def test_selector_moved_in_frozen_mode_rejected(tmp_path):
    rows = _history(mode="frozen")
    rows[-1][9] += 1e-6
    _write_history(tmp_path / "history.csv", rows)
    with pytest.raises(checks.CheckFailed, match="selector moved in frozen mode"):
        checks.check_history(tmp_path / "history.csv", 20, "frozen")


def test_still_selector_in_feature_selection_rejected(tmp_path):
    _write_history(tmp_path / "history.csv", _history(mode="frozen"))
    with pytest.raises(checks.CheckFailed, match="never moved"):
        checks.check_history(tmp_path / "history.csv", 20, "feature_selection")


def test_loss_that_does_not_fall_rejected(tmp_path):
    rows = _history()
    for row in rows:
        row[1] = 1.0
    _write_history(tmp_path / "history.csv", rows)
    with pytest.raises(checks.CheckFailed, match="did not fall"):
        checks.check_history(tmp_path / "history.csv", 20, "feature_selection")


def _write_report(path, rows, mean_row):
    lines = ["id,psnr,ms_ssim,dfd"]
    lines += [f"{i + 1:04d}," + ",".join(f"{v:.12g}" for v in row) for i, row in enumerate(rows)]
    lines.append("mean," + ",".join(f"{v:.12g}" for v in mean_row))
    path.write_text("\n".join(lines) + "\n")


def test_report_mean_row_checked(tmp_path):
    rows = np.array([[20.0, 0.9, 0.001], [22.5, 0.95, 0.002], [21.0, 0.93, 0.0015]])
    _write_report(tmp_path / "report.csv", rows, rows.mean(axis=0))
    means = checks.check_report(tmp_path / "report.csv", 3, ("psnr", "ms_ssim", "dfd"))
    assert means["psnr"] == pytest.approx(21.1666666667)
    _write_report(tmp_path / "report.csv", rows, rows.mean(axis=0) + [0.01, 0, 0])
    with pytest.raises(checks.CheckFailed, match="mean row"):
        checks.check_report(tmp_path / "report.csv", 3, ("psnr", "ms_ssim", "dfd"))


def test_report_ms_ssim_out_of_range_rejected(tmp_path):
    rows = np.array([[20.0, 1.2, 0.001], [22.0, 0.9, 0.002]])
    _write_report(tmp_path / "report.csv", rows, rows.mean(axis=0))
    with pytest.raises(checks.CheckFailed, match="ms_ssim"):
        checks.check_report(tmp_path / "report.csv", 2, ("psnr", "ms_ssim", "dfd"))


def test_generator_no_better_than_identity_rejected(tmp_path):
    val = tmp_path / "val"
    val.mkdir()
    _write_ppm(val / "0001_x.ppm", np.full((4, 4, 3), 0.4))
    _write_ppm(val / "0001_y.ppm", np.full((4, 4, 3), 0.5))
    (val / "manifest.txt").write_text("seed 0\n0001_x.ppm 0001_y.ppm\n")
    baseline = checks.identity_psnr(val)
    assert baseline == pytest.approx(10 * math.log10(1 / (26 / 255) ** 2))
    with pytest.raises(checks.CheckFailed, match="does not beat the identity baseline"):
        checks.check_beats_identity(baseline, baseline)
    checks.check_beats_identity(baseline + 0.01, baseline)


def test_pretraining_gate(tmp_path):
    log = tmp_path / "pretrain_accuracy.log"
    log.write_text("epoch 0 heldout_accuracy 0.1000\nepoch 1 heldout_accuracy 0.7000\n"
                   "epoch 2 heldout_accuracy 0.8167\n")
    assert checks.check_pretrain_log(log) == 2
    log.write_text("epoch 0 heldout_accuracy 0.1000\nepoch 5 heldout_accuracy 0.7833\n")
    with pytest.raises(checks.CheckFailed, match="0.7833"):
        checks.check_pretrain_log(log)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {name: unit for name, (_, _, _, unit) in LAYER_METRICS.items()}
