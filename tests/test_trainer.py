import functools

import numpy as np
import pytest

import tape_ops as ops
from conftest import as_float64, param_hash, train_config
from dpl import tensor as T
from dpl import trainer
from dpl.config import ConfigError, parse_config
from dpl.networks import FeatureNetPsi, GeneratorF, SelectionPhi
from dpl.optim import Adam
from dpl.rng import Rng
from dpl.synth import generate_synthetic
from dpl.tensor import Tensor
from dpl.trainer import (MODES, TrainerError, TrainingDiverged, _features, build_triplet, distort,
                         generator_step, param_norm, run_training, selector_accumulate,
                         selector_apply, triplet_features)
from dpl.image import as_image, to_grayscale, to_tensor


def _nets(seed):
    r = Rng(seed)
    return GeneratorF(r.child(1)), FeatureNetPsi(r.child(2)), SelectionPhi(r.child(3))


def _pair(seed, size=32):
    rng = Rng(seed)
    return list(generate_synthetic("colorcast", 4, size, rng))


# -- configuration validation ---------------------------------------------------------


def test_config_rejects_bad_values():
    # the trainer reads the parsed config: every rule is checked at parse time
    for key, raw, message in [("dpl.margin", "-0.5", "margin"),
                              ("dpl.interval", "0", "interval"),
                              ("dpl.mode", "nonsense", "mode"),
                              ("dpl.w_perceptual", "0", "loss"),
                              ("dpl.w_bogus", "1", "w_bogus")]:
        with pytest.raises(ConfigError, match=message):
            parse_config(overrides={key: raw})


def test_strategy_distortion_invariants():
    with pytest.raises(ConfigError, match="require a distortion"):
        parse_config(overrides={"dpl.strategy": "task_oriented", "dpl.distortion": "none"})
    # fine without distortion
    parse_config(overrides={"dpl.strategy": "source_anchored", "dpl.distortion": "none"})


# -- triplet construction --------------------------------------------------------------


def test_triplet_roles_per_strategy():
    # constant X and x_gen and a Y with one value per channel: every crop shows
    # its source, and grayscale(Y) differs from all three
    def fill(rgb):
        return as_image(np.broadcast_to(np.array(rgb, dtype=np.float64), (32, 32, 3)))

    x, x_gen, y = fill([0.1] * 3), fill([0.9] * 3), fill([0.2, 0.5, 0.8])
    sources = {"X": x, "gen": x_gen, "Y": y, "gray(Y)": to_grayscale(y)}

    def source(crop):
        return [name for name, img in sources.items()
                if np.array_equal(crop, img[:16, :16])]

    cases = [(train_config(strategy="instance_self"), ("Y", "Y", "gen")),
             (train_config(strategy="source_anchored"), ("X", "X", "gen")),
             (train_config(strategy="task_oriented", distortion="grayscale"),
              ("gray(Y)", "gen", "Y"))]
    for config, roles in cases:
        trip = build_triplet(config, x, y, x_gen, Rng(0))
        got = [source(crop) for crop in trip]
        assert got == [[name] for name in roles], config["dpl.strategy"]


def test_a_name_no_table_holds_raises():
    # was grayscale for the task name "blur", and a task_oriented triplet for
    # the misspelled strategy
    y = as_image(np.full((32, 32, 3), 0.5))
    with pytest.raises(KeyError, match="blur"):
        distort(y, train_config(distortion="blur"), Rng(0))
    with pytest.raises(KeyError, match="task-oriented"):
        build_triplet(train_config(strategy="task-oriented"), y, y, y, Rng(0))


# -- freeze discipline ------------------------------------------------------------------


def test_generator_step_leaves_extractor_and_selector_untouched():
    f, psi, phi = _nets(2)
    config = train_config(iterations=1)
    x, y = _pair(3)[0]
    before_psi = param_hash(psi.params())
    before_phi = param_hash(phi.params())
    before_f = param_hash(f.params())
    x_gen, _, _ = generator_step(f, to_tensor(x), to_tensor(y), psi, phi, config,
                                 Adam(f.params(), lr=1e-4))
    # the output returned is F's before the step, a constant
    assert np.array_equal(x_gen.data, GeneratorF(Rng(2).child(1))(to_tensor(x)).data)
    assert x_gen.grad is None
    assert param_hash(psi.params()) == before_psi
    assert param_hash(phi.params()) == before_phi
    assert param_hash(f.params()) != before_f
    # the extractor and selector were constants on the generator's tape
    assert all(p.grad is None for p in psi.params() + phi.params())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("weights, psi_calls", [
    ({"perceptual": 1.0, "contextual": 1.0}, 2),
    ({"perceptual": 0.0, "contextual": 1.0}, 2),
    ({"perceptual": 0.0, "pixel_l1": 1.0, "color": 1.0, "texture": 1.0}, 0),
])
def test_generator_step_builds_each_feature_set_once(monkeypatch, mode, weights, psi_calls):
    calls = []
    psi_call = FeatureNetPsi.__call__

    def counted(net, x):
        calls.append(x)
        return psi_call(net, x)

    monkeypatch.setattr(FeatureNetPsi, "__call__", counted)
    f, psi, phi = _nets(2)
    config = train_config(mode=mode, **{f"w_{name}": w for name, w in weights.items()})
    x, y = _pair(3)[0]
    generator_step(f, to_tensor(x), to_tensor(y), psi, phi, config, Adam(f.params(), lr=1e-4))
    assert len(calls) == psi_calls
    assert len({id(t) for t in calls}) == psi_calls


def test_selector_accumulate_leaves_generator_and_extractor_untouched():
    f, psi, phi = _nets(4)
    config = train_config(interval=1, strategy="instance_self")
    opt = Adam(phi.params(), lr=1e-4)
    x, y = _pair(5)[0]
    trip = build_triplet(config, x, y, x, Rng(6))
    before_f = param_hash(f.params())
    before_psi = param_hash(psi.params())
    before_phi = param_hash(phi.params())
    selector_accumulate(psi, phi, trip, config, opt)
    # accumulation alone changes no parameters
    assert param_hash(phi.params()) == before_phi
    selector_apply(opt)
    assert param_hash(f.params()) == before_f
    assert param_hash(psi.params()) == before_psi
    assert param_hash(phi.params()) != before_phi


@pytest.mark.parametrize("mode", ["feature_selection", "full"])
def test_triplet_features_side_by_side_equal_each_crops_features(mode):
    # phi acts on each position alone, so one pass over the joined taps is
    # three passes, one per crop, in value and in every gradient (float64)
    _, psi, phi = _nets(30)
    as_float64(psi, phi)
    rng = np.random.default_rng(31)
    crops = [Tensor(rng.uniform(size=(3, 16, 16))) for _ in range(3)]
    params = psi.params() + phi.params()

    def features_and_grads(build):
        with T.ComputationTape(params) as tape:
            feats = build()
            T.backward(functools.reduce(ops.add, (ops.tmean(ops.mul(t, t)) for t in feats)), tape)
        grads = [p.ensure_grad().copy() for p in params]  # psi's unused head: zeros
        for p in params:
            p.grad = None
        return feats, grads

    joined, joined_grads = features_and_grads(lambda: triplet_features(psi, phi, crops, mode))
    split, split_grads = features_and_grads(lambda: [
        T.concat_width(parts) for parts in zip(*(_features(psi, phi, x, mode) for x in crops))])
    assert [t.shape for t in joined] == [(c if mode == "full" else c // 2, 16 >> i, 3 * (16 >> i))
                                         for i, c in enumerate(FeatureNetPsi.TAP_CHANNELS)]
    for got, want in zip(joined, split):
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-15)
    for got, want in zip(joined_grads, split_grads):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)


def _step_optimizers(monkeypatch) -> dict:
    """Patch the trainer's step functions to record the Adam each is first given."""
    seen = {}

    def recording(name):
        step = getattr(trainer, name)

        def wrapper(*args):
            seen.setdefault(name, args[-1])
            return step(*args)
        monkeypatch.setattr(trainer, name, wrapper)

    for name in ("generator_step", "selector_accumulate", "selector_apply"):
        recording(name)
    return seen


@pytest.mark.parametrize("mode", MODES)
def test_each_optimizer_covers_the_network_its_mode_trains(monkeypatch, mode):
    # F's Adam at dpl.lr_generator; the selector's over phi (psi in full mode)
    # at dpl.lr_selector; in frozen mode the selector never accumulates or steps
    seen = _step_optimizers(monkeypatch)
    f, psi, phi = _nets(10)
    config = train_config(mode=mode, lr_generator=3e-4, lr_selector=2e-4, interval=1,
                          iterations=1, strategy="instance_self")
    run_training(config, _pair(8), f, psi, phi, Rng(9))
    trained = {"feature_selection": phi, "full": psi, "frozen": None}[mode]
    assert set(seen) == ({"generator_step"} if trained is None else
                         {"generator_step", "selector_accumulate", "selector_apply"})
    optimizers = [(seen["generator_step"], f, 3e-4)]
    if trained is not None:
        assert seen["selector_accumulate"] is seen["selector_apply"]
        optimizers.append((seen["selector_apply"], trained, 2e-4))
    for opt, net, lr in optimizers:
        assert [id(p) for p in opt.params] == [id(p) for p in net.params()]
        assert opt.lr == lr


def test_selector_steps_every_interval_iterations():
    # phi accumulates every iteration and steps at the end of iterations N-1, 2N-1, ...
    data = _pair(10)
    f, psi, phi = _nets(11)
    norms = [param_norm(phi.params())]
    config = train_config(interval=3, iterations=8, strategy="instance_self")
    _, history = run_training(config, data, f, psi, phi, Rng(12))
    norms += [r.phi_norm for r in history]
    assert [it for it in range(8) if norms[it + 1] != norms[it]] == [2, 5]


# -- accumulation equivalence -----------------------------------------------------------


def _triplets(seed, n):
    data = _pair(seed)
    rng = Rng(seed + 1)
    out = []
    for i in range(n):
        x, y = data[i % len(data)]
        out.append(build_triplet(train_config(strategy="instance_self"),
                                 x, y, x, rng.child(i)))
    return out


def test_accumulated_gradient_equals_summed_loss_gradient():
    """N accumulations must equal a single backward of the summed loss, bitwise."""
    from dpl.losses import triplet_loss
    from dpl.trainer import triplet_features

    n = 4
    trips = _triplets(11, n)

    def grads_by_accumulation():
        _, psi, phi = _nets(12)
        config, opt = train_config(interval=n), Adam(phi.params(), lr=1e-4)
        for trip in trips:
            selector_accumulate(psi, phi, trip, config, opt)
        return [p.grad.copy() for p in phi.params()]

    def grads_by_sum():
        _, psi, phi = _nets(12)
        with T.ComputationTape(phi.params()) as tape:
            total = None
            for trip in trips:
                crops = [to_tensor(c) for c in trip]
                term = triplet_loss(triplet_features(psi, phi, crops, "feature_selection"), 1.0)
                total = term if total is None else ops.add(total, term)
            T.backward(total, tape)
        return [p.grad.copy() for p in phi.params()]

    for a, b in zip(grads_by_accumulation(), grads_by_sum()):
        assert np.array_equal(a, b)


def test_interval_one_degenerates_to_per_iteration_updates():
    data = _pair(14)
    results = {}
    for interval in (1, 1):
        f, psi, phi = _nets(15)
        config = train_config(interval=interval, iterations=6, strategy="instance_self")
        _, history = run_training(config, data, f, psi, phi, Rng(16))
        results[len(results)] = (param_hash(phi.params()),
                                 [r.generator_loss for r in history])
    assert results[0] == results[1]
    # with interval=1 the selector has stepped every iteration: phi moved
    f2, psi2, phi2 = _nets(15)
    assert results[0][0] != param_hash(phi2.params())


# -- full loop -------------------------------------------------------------------------


def test_run_training_deterministic():
    data = _pair(17)
    hashes, losses = [], []
    for _ in range(2):
        f, psi, phi = _nets(18)
        config = train_config(iterations=8, interval=2, strategy="instance_self")
        f, history = run_training(config, data, f, psi, phi, Rng(19))
        hashes.append(param_hash(f.params()) + param_hash(phi.params()))
        losses.append([r.generator_loss for r in history])
    assert hashes[0] == hashes[1]
    assert losses[0] == losses[1]


@pytest.mark.parametrize("mode, weights", [
    ("frozen", {"w_contextual": 1.0}),
    ("full", {"w_contextual": 0.5, "w_pixel_l1": 2.0}),
    ("feature_selection", {"w_perceptual": 0.0, "w_contextual": 1.0, "w_color": 0.3,
                           "w_texture": 0.7}),
    ("feature_selection", {"w_perceptual": 0.25}),
])
def test_generator_step_trains_as_the_chains_it_fuses(monkeypatch, mode, weights):
    # the contextual loss and the weighted sum as one op each give the bytes
    # of the per-tap ops and the mul/add chain they replace
    data = _pair(23)
    runs = []
    for fused in (True, False):
        if not fused:
            monkeypatch.setattr(trainer, "contextual_loss", ops.contextual_tap_chain)
            monkeypatch.setattr(trainer, "weighted_sum", ops.weighted_sum_chain)
        f, psi, phi = _nets(24)
        config = train_config(mode=mode, iterations=3, interval=2, **weights)
        f, history = run_training(config, data, f, psi, phi, Rng(25))
        runs.append((param_hash(f.params()), [(r.generator_loss, r.components) for r in history]))
    assert runs[0] == runs[1]


def test_frozen_mode_never_touches_selector_or_extractor():
    data = _pair(20)
    f, psi, phi = _nets(21)
    before_psi = param_hash(psi.params())
    before_phi = param_hash(phi.params())
    config = train_config(mode="frozen", iterations=6)
    f, history = run_training(config, data, f, psi, phi, Rng(22))
    assert param_hash(psi.params()) == before_psi
    assert param_hash(phi.params()) == before_phi
    assert all(r.d_c == 0.0 for r in history)
    assert all(r.phi_norm == history[0].phi_norm for r in history)


@pytest.mark.parametrize("mode", MODES)
def test_untrained_networks_get_no_gradient(mode):
    # each tape differentiates only its optimizer's parameters: psi never gets
    # a gradient unless it is fine-tuned (full), phi only when it is trained
    data = _pair(32)
    f, psi, phi = _nets(33)
    config = train_config(mode=mode, iterations=3, interval=2, strategy="instance_self")
    run_training(config, data, f, psi, phi, Rng(34))
    assert all(p.grad is not None for p in f.params())
    if mode != "full":
        assert all(p.grad is None for p in psi.params())
    if mode != "feature_selection":
        assert all(p.grad is None for p in phi.params())


def test_history_row_contents():
    data = _pair(23)
    f, psi, phi = _nets(24)
    config = train_config(iterations=3, interval=2, strategy="instance_self",
                          w_perceptual=1.0, w_pixel_l1=0.5)
    _, history = run_training(config, data, f, psi, phi, Rng(25))
    assert [r.iteration for r in history] == [0, 1, 2]
    for row in history:
        assert set(row.components) == {"perceptual", "pixel_l1"}
        assert np.isfinite(row.generator_loss)
        assert row.f_norm > 0 and row.phi_norm > 0


def test_single_pair_overfit_halves_loss():
    # 200 iterations on one fixed pair must cut the generator loss by >= 50%
    rng = Rng(26)
    data = list(generate_synthetic("darken", 1, 32, rng.child(1)))
    f, psi, phi = _nets(27)
    config = train_config(iterations=200, interval=4, augment=False, strategy="instance_self",
                          w_perceptual=1.0, w_pixel_l1=1.0)
    _, history = run_training(config, data, f, psi, phi, rng.child(2))
    first = np.mean([r.generator_loss for r in history[:10]])
    last = np.mean([r.generator_loss for r in history[-10:]])
    assert last <= 0.5 * first, f"loss {first:.5f} -> {last:.5f}"


def test_empty_dataset_rejected():
    f, psi, phi = _nets(28)
    with pytest.raises(TrainerError, match="empty"):
        run_training(train_config(iterations=1), [], f, psi, phi, Rng(29))


def test_divergence_is_reported_with_iteration():
    f, psi, phi = _nets(30)

    def poison(it, gen, *_):
        # after iteration 6, the generator's output is NaN
        if it == 6:
            gen.dec2.weight.data = np.full_like(gen.dec2.weight.data, np.nan)

    config = train_config(iterations=10, mode="frozen")
    with pytest.raises(TrainingDiverged, match="^non-finite loss nan at iteration 7$") as e:
        run_training(config, _pair(31), f, psi, phi, Rng(32), sample_hook=poison)
    assert [r.iteration for r in e.value.history] == list(range(7))


def test_param_norm_and_hash_basics():
    t = Tensor(np.array([3.0, 4.0]))
    assert param_norm([t]) == pytest.approx(5.0)
    assert param_hash([t]) == param_hash([Tensor(np.array([3.0, 4.0]))])
    assert param_hash([t]) != param_hash([Tensor(np.array([3.0, 4.1]))])
