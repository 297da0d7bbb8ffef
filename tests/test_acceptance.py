"""Acceptance gate: one test per criterion, each ending in a PASS line.

The directional criteria (5 and 6) run the full training protocol three
times per mode and compare seed-averaged validation metrics, so this module
is slow (about a minute end to end on a 2-core box, where each criterion's
six runs share two worker processes); everything else finishes in seconds.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from conftest import as_float64, check_gradients, param_hash, pretrained_psi_full, train_config
import tape_ops as ops
from dpl import tensor as T
from dpl.checkpoint import load_checkpoint, save_checkpoint
from dpl.cli import main
from dpl.config import parse_config, emit_config
from dpl.image import Image, load_image, save_image, to_tensor
from dpl.losses import (color_loss, contextual_loss, perceptual_loss, pixel_loss, texture_loss,
                        triplet_loss, weighted_sum)
from dpl.metrics import feature_distance, ms_ssim, psnr
from dpl.networks import FeatureNetPsi, GeneratorF, SelectionPhi
from dpl.rng import Rng
from dpl.synth import generate_synthetic
from dpl.tensor import Tensor
from dpl.optim import Adam
from dpl.trainer import (build_triplet, generator_step, run_training, selector_accumulate,
                         selector_apply, triplet_features)

from test_losses import _vectors_to_tap, contextual_oracle


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS — {message}")


# -- 1. gradient integrity ----------------------------------------------------------


def _op_cases(rng):
    """(name, build, arrays) for every differentiable op, at smooth points."""
    u = lambda *s: rng.uniform(0.5, 1.5, size=s)          # positive, away from 0
    n = lambda *s: rng.normal(size=s)
    distinct = rng.permutation(16).reshape(1, 4, 4) / 7.0  # no pooling ties
    signs = rng.choice([-1.0, 1.0], size=(3, 4, 5))
    return [
        ("add", lambda t: ops.tsum(T.add(t[0], t[1])), [n(3, 4), n(3, 4)]),
        ("sub", lambda t: ops.tsum(ops.sub(t[0], t[1])), [n(3, 4), n(3, 4)]),
        ("mul", lambda t: ops.tsum(ops.mul(t[0], t[1])), [n(3, 4), n(3, 4)]),
        ("div", lambda t: ops.tsum(ops.div(t[0], t[1])), [n(3, 4), u(3, 4)]),
        ("neg", lambda t: ops.tsum(ops.neg(t[0])), [n(3, 4)]),
        ("power", lambda t: ops.tsum(ops.power(t[0], 3)), [u(3, 4)]),
        ("sqrt", lambda t: ops.tsum(ops.sqrt(t[0])), [u(3, 4)]),
        ("exp", lambda t: ops.tsum(ops.exp(t[0])), [n(3, 4)]),
        ("log", lambda t: ops.tsum(ops.log(t[0])), [u(3, 4)]),
        ("absolute", lambda t: ops.tsum(ops.absolute(t[0])), [u(3, 4)]),
        ("relu", lambda t: ops.tsum(T.relu(t[0])), [u(3, 4)]),
        ("sum", lambda t: ops.tsum(ops.mul(ops.tsum(t[0], axis=1), ops.tsum(t[0], axis=0))),
         [n(4, 4)]),
        ("mean", lambda t: ops.tsum(ops.mul(ops.tmean(t[0], axis=1), ops.tmean(t[0]))), [n(4, 4)]),
        ("reduce_max", lambda t: ops.tsum(ops.reduce_max(t[0], axis=1)), [n(5, 5)]),
        ("reduce_min", lambda t: ops.tsum(ops.reduce_min(t[0], axis=1)), [n(5, 5)]),
        ("matmul", lambda t: ops.tsum(ops.matmul(t[0], t[1])), [n(3, 4), n(4, 2)]),
        ("reshape",
         lambda t: ops.tsum(ops.mul(ops.reshape(t[0], (2, 6)), ops.reshape(t[0], (2, 6)))),
         [n(3, 4)]),
        ("transpose", lambda t: ops.tsum(ops.matmul(ops.transpose(t[0]), t[0])), [n(3, 4)]),
        ("conv2d", lambda t: ops.tsum(T.conv2d(t[0], t[1], t[2], padding=1)),
         [n(2, 5, 5), n(3, 2, 3, 3), n(3)]),
        ("conv2d_strided", lambda t: ops.tsum(T.conv2d(t[0], t[1], t[2], stride=2)),
         [n(2, 6, 6), n(2, 2, 3, 3), n(2)]),
        ("max_pool2", lambda t: ops.tsum(T.max_pool2(t[0])), [distinct.copy()]),
        ("upsample_nearest2", lambda t: ops.tsum(ops.power(ops.upsample_nearest2(t[0]), 2)),
         [n(2, 3, 3)]),
        ("upsample_conv3x3",
         lambda t: ops.tsum(ops.power(T.upsample_conv3x3(t[0], t[1], t[2]), 2)),
         [n(2, 3, 4), n(3, 2, 3, 3), n(3)]),
        ("color_loss", lambda t: color_loss(t[0], t[1], 1.0), [n(3, 4, 5), n(3, 4, 5)]),
        ("texture_loss", lambda t: texture_loss(t[0], t[1]), [n(3, 4, 5), n(3, 4, 5)]),
        # differences of either sign, each at least 1 from the kink at 0
        ("pixel_loss", lambda t: pixel_loss(t[0], t[1]), [signs * u(3, 4, 5), -signs * u(3, 4, 5)]),
        ("concat_width", lambda t: ops.tsum(ops.power(T.concat_width(t), 2)),
         [n(2, 3, 2), n(2, 3, 1), n(2, 3, 4)]),
        ("weighted_sum", lambda t: weighted_sum(
            [ops.tsum(ops.power(t[0], 3)), ops.tsum(ops.mul(t[0], t[1])), ops.tsum(t[1])],
            [0.3, 1.7, 1e-3]), [n(3, 4), n(3, 4)]),
    ]


def _check_gradients_smooth(build, arrays, rng, n_points, rtol=1e-5, atol=1e-7):
    """FD check at random smooth points: coordinates whose two-step central
    differences disagree sit near a relu/pool kink and are resampled."""
    from conftest import finite_difference

    tensors = [T.Tensor(a) for a in arrays]
    with T.ComputationTape(tensors) as tape:
        T.backward(build(tensors), tape)

    def fn(arrs):
        return build([T.Tensor(a) for a in arrs]).item()

    plain = [t.data.copy() for t in tensors]
    checked = 0
    budget = n_points * 20
    while checked < n_points and budget:
        budget -= 1
        which = int(rng.integers(0, len(arrays)))
        flat = int(rng.integers(0, arrays[which].size))
        index = np.unravel_index(flat, arrays[which].shape)
        h = 1e-5
        base = fn(plain)
        plain[which][index] += h
        hi = fn(plain)
        plain[which][index] -= 2 * h
        lo = fn(plain)
        plain[which][index] += h
        forward, backward = (hi - base) / h, (base - lo) / h
        scale = max(abs(forward), abs(backward), 1e-8)
        if abs(forward - backward) > 1e-3 * scale:
            continue  # one-sided kink (relu or pooling tie) in the stencil
        fd1 = (hi - lo) / (2 * h)
        got = tensors[which].grad[index]
        assert got == pytest.approx(fd1, rel=rtol, abs=atol), (
            f"grad mismatch at arg {which} index {index}: {got} vs fd {fd1}"
        )
        checked += 1
    assert checked == n_points, "could not find enough smooth points"


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    rng = np.random.default_rng(1000)
    for name, build, arrays in _op_cases(rng):
        check_gradients(build, arrays, rng, n_points=100, rtol=1e-5, atol=1e-7)

    # composed pipeline A: selector . extractor . triplet loss; gradients flow
    # through both inputs and the selector parameters
    psi = FeatureNetPsi(Rng(1001))
    phi = SelectionPhi(Rng(1002))
    as_float64(psi, phi)
    slots = [(layer, attr) for layer in phi._layers().values()
             for attr in ("weight", "bias")]
    imgs = [rng.uniform(0.2, 0.8, size=(3, 8, 8)) for _ in range(3)]
    param_arrays = [getattr(layer, attr).data.copy() for layer, attr in slots]
    assert all(a.dtype == np.float64 for a in param_arrays)

    def build_triplet_pipe(ts):
        for (layer, attr), t in zip(slots, ts[3:]):
            setattr(layer, attr, t)
        return triplet_loss(triplet_features(psi, phi, ts[:3], "feature_selection"), margin=1.0)

    _check_gradients_smooth(build_triplet_pipe, imgs + param_arrays, rng,
                            n_points=100)

    # composed pipeline B: generator . extractor . perceptual loss; gradients
    # flow through the input and the generator parameters
    f = GeneratorF(Rng(1003))
    as_float64(f)
    fslots = [(layer, attr) for layer in f._layers().values()
              for attr in ("weight", "bias")]
    x = rng.uniform(0.2, 0.8, size=(3, 8, 8))
    y = rng.uniform(0.2, 0.8, size=(3, 8, 8))
    fparams = [getattr(layer, attr).data.copy() for layer, attr in fslots]
    assert all(a.dtype == np.float64 for a in fparams)

    def build_perceptual_pipe(ts):
        for (layer, attr), t in zip(fslots, ts[1:]):
            setattr(layer, attr, t)
        return perceptual_loss(psi(f(ts[0])), psi(Tensor(y)))

    _check_gradients_smooth(build_perceptual_pipe, [x] + fparams, rng,
                            n_points=100)

    took = time.time() - t0
    assert took < 120
    _report(1, f"per-op and composed FD checks at rel 1e-5, {took:.1f}s")


# -- 2. Algorithm 1 mechanics --------------------------------------------------------


def test_criterion_2_algorithm_mechanics():
    t0 = time.time()
    rng = Rng(2000)
    data = list(generate_synthetic("colorcast", 8, 32, rng.child(1)))
    f = GeneratorF(rng.child(2))
    psi = FeatureNetPsi(rng.child(3))
    phi = SelectionPhi(rng.child(4))
    config = train_config(interval=4, iterations=200, strategy="instance_self")
    gen_opt = Adam(f.params(), lr=config["dpl.lr_generator"])
    sel_opt = Adam(phi.params(), lr=config["dpl.lr_selector"])
    psi_hash = param_hash(psi.params())
    trip_rng = rng.child(5)

    for it in range(200):
        x, y = data[it % len(data)]
        f_hash = param_hash(f.params())
        phi_hash = param_hash(phi.params())
        x_out, _, _ = generator_step(f, to_tensor(x), to_tensor(y), psi, phi, config, gen_opt)
        # selector untouched by the generator step, generator changed by it
        assert param_hash(phi.params()) == phi_hash
        assert param_hash(f.params()) != f_hash
        f_hash = param_hash(f.params())
        x_gen = Image.from_array(np.clip(x_out.data.transpose(1, 2, 0), 0.0, 1.0))
        trip = build_triplet(config, x, y, x_gen, trip_rng)

        selector_accumulate(psi, phi, trip, config, sel_opt)
        # accumulation alone moves no parameter
        assert param_hash(phi.params()) == phi_hash
        if (it + 1) % config["dpl.interval"] == 0:
            selector_apply(sel_opt)
        # generator untouched by any selector work this iteration
        assert param_hash(f.params()) == f_hash
        assert param_hash(psi.params()) == psi_hash

    # accumulation equivalence, bitwise: N backwards vs one summed backward
    trips = [build_triplet(config, *data[i], data[i][0], rng.child(50 + i))
             for i in range(4)]

    def by_accumulation():
        p = SelectionPhi(Rng(2001))
        cfg, opt = train_config(interval=4, strategy="instance_self"), Adam(p.params())
        for tr in trips:
            selector_accumulate(psi, p, tr, cfg, opt)
        return [q.grad.copy() for q in p.params()]

    def by_sum():
        p = SelectionPhi(Rng(2001))
        with T.ComputationTape(p.params()) as tape:
            total = None
            for tr in trips:
                crops = [to_tensor(c) for c in (tr.anchor, tr.positive, tr.negative)]
                term = triplet_loss(triplet_features(psi, p, crops, "feature_selection"), 1.0)
                total = term if total is None else ops.add(total, term)
            T.backward(total, tape)
        return [q.grad.copy() for q in p.params()]

    for a, b in zip(by_accumulation(), by_sum()):
        assert np.array_equal(a, b)

    took = time.time() - t0
    assert took < 120
    _report(2, f"200-iteration freeze discipline + bitwise accumulation, {took:.1f}s")


# -- 3. loss properties ----------------------------------------------------------------


def test_criterion_3_loss_properties():
    t0 = time.time()
    rng = np.random.default_rng(3000)
    for _ in range(1000):
        a = Tensor(rng.normal(size=(3, 4, 4)))
        b = Tensor(rng.normal(size=(3, 4, 4)))
        c = Tensor(rng.normal(size=(3, 4, 4)))
        assert perceptual_loss([a], [b]).item() >= 0.0
        assert perceptual_loss([a], [a]).item() == 0.0
        assert perceptual_loss([a], [b]).item() == perceptual_loss([b], [a]).item()
        tl = triplet_loss([T.concat_width([a, b, c])], margin=1.0)
        assert tl.item() >= 0.0
        assert triplet_loss([T.concat_width([a, a, a])], margin=1.0).item() == pytest.approx(1.0)
        assert pixel_loss(a, b).item() >= 0.0
        assert pixel_loss(a, a).item() == 0.0

    # brute-force oracle agreement on hand-built 2-D feature sets
    fixed = [
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
         np.array([[0.5, -0.5], [-1.0, 2.0]])),
        (np.array([[0.1, 0.2], [0.3, -0.4]]),
         np.array([[2.0, 0.0], [0.0, 2.0], [1.0, -1.0]])),
    ]
    randoms = [(rng.normal(size=(int(rng.integers(2, 7)), 2)),
                rng.normal(size=(int(rng.integers(2, 7)), 2)))
               for _ in range(100)]
    for xs, ys in fixed + randoms:
        got = contextual_loss([Tensor(_vectors_to_tap(xs))],
                              [Tensor(_vectors_to_tap(ys))]).item()
        want = contextual_oracle(xs, ys)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    took = time.time() - t0
    assert took < 60
    _report(3, f"1000-trial loss properties + contextual oracle at 1e-6, {took:.1f}s")


# -- 4. pretraining gate ------------------------------------------------------------------


def test_criterion_4_pretraining_gate():
    psi, accuracy, seconds = pretrained_psi_full()
    assert accuracy >= 0.80
    assert seconds < 600
    _report(4, f"held-out texture accuracy {accuracy:.1%} in {seconds:.1f}s")


# -- 5/6. directional training claims ---------------------------------------------------


def _color_error(a: Image, b: Image) -> float:
    return float(np.abs(a.pixels.mean(axis=(0, 1)) - b.pixels.mean(axis=(0, 1))).mean())


def _protocol_run(task: str, mode: str, seed: int, psi: FeatureNetPsi):
    """One full training run at the acceptance budget; returns val means."""
    r = Rng(seed)
    train = list(generate_synthetic(task, 400, 32, r.child(10)))
    val = list(generate_synthetic(task, 50, 32, r.child(20)))
    f = GeneratorF(r.child(40))
    phi = SelectionPhi(r.child(41))
    config = train_config(strategy="task_oriented", distortion="color_jitter", mode=mode,
                          iterations=2000, interval=4, margin=1.0, w_perceptual=1.0)
    f, _ = run_training(config, train, f, psi, phi, r.child(42))
    dfd = cerr = ps = 0.0
    for x, y in val:
        x_gen = Image.from_array(
            np.clip(f(to_tensor(x)).detach().data.transpose(1, 2, 0), 0.0, 1.0))
        dfd += feature_distance(x_gen, y, psi)
        cerr += _color_error(x_gen, y)
        ps += psnr(x_gen, y)
    n = len(val)
    return dfd / n, cerr / n, ps / n


# read once, when a process loads its BLAS: each worker computes on one thread
_ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}


def _protocol_runs(jobs, psi: FeatureNetPsi) -> list:
    """``_protocol_run(*job, psi)`` for each job, in job order, in up to two
    spawned workers, each on one BLAS thread (one worker on one core runs
    them serially): a fork of this process, whose BLAS may already run
    threads, can hang."""
    workers = max(1, min(2, os.cpu_count() or 1))
    spawn = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, _ONE_BLAS_THREAD), \
            ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        futures = [pool.submit(_protocol_run, *job, psi) for job in jobs]
        return [future.result() for future in futures]


def _seed_averaged(task: str, psi: FeatureNetPsi):
    seeds = (1, 2, 3)
    runs = _protocol_runs([(task, mode, s) for mode in ("feature_selection", "frozen")
                           for s in seeds], psi)
    fs = np.mean(runs[:len(seeds)], axis=0)
    frozen = np.mean(runs[len(seeds):], axis=0)
    return fs, frozen


def test_criterion_5_colorcast_direction(pretrained_psi):
    t0 = time.time()
    fs, frozen = _seed_averaged("colorcast", pretrained_psi)
    assert fs[0] < frozen[0], f"DFD {fs[0]:.6f} !< {frozen[0]:.6f}"
    assert fs[1] < frozen[1], f"color error {fs[1]:.6f} !< {frozen[1]:.6f}"
    _report(5, f"colorcast DFD {fs[0]:.6f} < {frozen[0]:.6f}, "
               f"color error {fs[1]:.6f} < {frozen[1]:.6f} "
               f"({time.time() - t0:.0f}s)")


def test_criterion_6_darken_direction(pretrained_psi):
    t0 = time.time()
    fs, frozen = _seed_averaged("darken", pretrained_psi)
    assert fs[2] >= frozen[2] - 0.2, f"PSNR {fs[2]:.3f} < {frozen[2]:.3f} - 0.2"
    assert fs[0] < frozen[0], f"DFD {fs[0]:.6f} !< {frozen[0]:.6f}"
    _report(6, f"darken PSNR {fs[2]:.3f} vs {frozen[2]:.3f}, "
               f"DFD {fs[0]:.6f} < {frozen[0]:.6f} "
               f"({time.time() - t0:.0f}s)")


# -- 7. metric sanity ----------------------------------------------------------------------


def test_criterion_7_metric_sanity():
    a = Image.from_array(np.full((32, 32, 3), 0.4))
    b = Image.from_array(np.full((32, 32, 3), 0.5))
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-6)
    scene = list(generate_synthetic("darken", 1, 32, Rng(7000)))[0][1]
    assert ms_ssim(scene, scene) == 1.0
    f = GeneratorF(Rng(7001))
    as_float64(f)  # float32 would round the pixels on their way through F
    x = Tensor(scene.pixels.transpose(2, 0, 1))
    out = Image.from_array(np.clip(f(x).detach().data.transpose(1, 2, 0), 0.0, 1.0))
    assert psnr(out, scene) == float("inf")
    _report(7, "PSNR offset = 20 dB, ms_ssim identity = 1.0, identity F PSNR = inf")


# -- 8. determinism and formats ----------------------------------------------------------


def test_criterion_8_determinism_and_formats(tmp_path, pretrained_psi):
    base = ["--size", "32", "--train_count", "4", "--val_count", "2",
            "--seed", "3", "--dpl.iterations", "30", "--dpl.interval", "2"]
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["gen-data", "--out_dir", str(out), *base]) == 0
        save_checkpoint(pretrained_psi.state_dict(), out / "psi.dplc")
        assert main(["train", "--out_dir", str(out), *base]) == 0
        blobs.append(((out / "history.csv").read_bytes(),
                      (out / "f.dplc").read_bytes()))
    assert blobs[0] == blobs[1]

    # checkpoint round trip, bit-exact
    state = pretrained_psi.state_dict()
    save_checkpoint(state, tmp_path / "rt.dplc")
    loaded = load_checkpoint(tmp_path / "rt.dplc")
    for key, arr in state.items():
        assert np.array_equal(loaded[key], arr.astype(np.float32))

    # PPM round trip, bit-exact
    img = list(generate_synthetic("colorcast", 1, 32, Rng(8000)))[0][0]
    save_image(img, tmp_path / "rt.ppm")
    again = load_image(tmp_path / "rt.ppm")
    save_image(again, tmp_path / "rt2.ppm")
    assert (tmp_path / "rt.ppm").read_bytes() == (tmp_path / "rt2.ppm").read_bytes()

    # config round trip equality
    cfg = parse_config(overrides={"task": "darken", "dpl.margin": "0.75"})
    (tmp_path / "cfg").write_text(emit_config(cfg))
    assert parse_config(tmp_path / "cfg").values == cfg.values

    _report(8, "bit-identical reruns; checkpoint/PPM/config round trips exact")
