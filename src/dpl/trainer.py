"""Alternating two-optimizer training loop.

Each iteration: build a triplet from the current pair and the generator's
own output, accumulate the selector gradient (without stepping), take one
Adam step on the generator, and apply the accumulated selector update
every N iterations. Each step differentiates only with respect to the
parameter list of the optimizer it feeds: the generator step's tape holds
F's parameters, the selector tape holds phi's (psi's in full mode), so
everything else is a constant on that tape.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .image import (Image, augment, check_jitter_ranges, color_jitter, from_tensor,
                    gaussian_blur, random_crop, to_grayscale, to_tensor)
from .losses import (ContextualParams, color_loss, contextual_loss, perceptual_loss,
                     pixel_loss, texture_loss, triplet_loss)
from .networks import FeatureNetPsi, GeneratorF, SelectionPhi
from .optim import Adam
from .rng import Rng
from .tensor import Tensor

STRATEGY_KINDS = ("instance_self", "task_oriented", "source_anchored")
MODES = ("feature_selection", "full", "frozen")
DISTORTION_KINDS = ("gaussian_blur", "color_jitter", "grayscale")

# The generator's loss terms, in history.csv column order: name -> (default
# weight, term(x_gen, y, features, config)), where ``features`` maps an image
# tensor to the feature set of the configured mode, built once per step. The
# terms look the loss functions up in this module's globals when called, not
# when defined.
LOSSES = {
    "perceptual": (1.0, lambda x_gen, y, features, config:
                   perceptual_loss(features(x_gen), features(y))),
    "contextual": (0.0, lambda x_gen, y, features, config:
                   contextual_loss(features(x_gen), features(y), config.contextual_params)),
    "pixel_l1": (0.0, lambda x_gen, y, features, config: pixel_loss(x_gen, y)),
    "color": (0.0, lambda x_gen, y, features, config: color_loss(x_gen, y, config.color_sigma)),
    "texture": (0.0, lambda x_gen, y, features, config: texture_loss(x_gen, y)),
}


class TrainerError(Exception):
    pass


class TrainingDiverged(TrainerError):
    def __init__(self, state: "TrainState", what: str):
        super().__init__(f"{what} at iteration {state.iteration}")
        self.iteration = state.iteration
        self.history = state.history  # the rows of the iterations before the halt


@dataclass
class DistortionSpec:
    kind: str = "color_jitter"
    blur_sigma: tuple[float, float] = (1.0, 2.0)
    jitter_scale: tuple[float, float] = (0.6, 1.4)
    jitter_bias: tuple[float, float] = (-0.1, 0.1)

    def __post_init__(self):
        if self.kind not in DISTORTION_KINDS:
            raise TrainerError(f"unknown distortion kind {self.kind!r}")
        if self.blur_sigma[0] > self.blur_sigma[1] or self.blur_sigma[0] <= 0:
            raise TrainerError(f"bad blur sigma range {self.blur_sigma}")
        check_jitter_ranges(self.jitter_scale, self.jitter_bias)

    def apply(self, image: Image, rng: Rng) -> Image:
        if self.kind == "gaussian_blur":
            return gaussian_blur(image, rng.uniform(*self.blur_sigma))
        if self.kind == "color_jitter":
            return color_jitter(image, rng, self.jitter_scale, self.jitter_bias)
        return to_grayscale(image)


@dataclass
class TripletStrategy:
    kind: str = "task_oriented"
    crop: int = 16
    distortion: DistortionSpec | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise TrainerError(f"unknown triplet strategy {self.kind!r}")
        if self.kind == "task_oriented" and self.distortion is None:
            raise TrainerError("task_oriented triplets require a distortion")
        if self.kind != "task_oriented" and self.distortion is not None:
            raise TrainerError(f"{self.kind} triplets must not carry a distortion")


@dataclass
class Triplet:
    anchor: Image
    positive: Image
    negative: Image


def build_triplet(strategy: TripletStrategy, x: Image, y: Image, x_gen: Image,
                  rng: Rng) -> Triplet:
    """Assign crop roles per strategy; each crop offset is drawn independently."""
    size = strategy.crop
    if strategy.kind == "instance_self":
        return Triplet(random_crop(y, size, rng), random_crop(y, size, rng),
                       random_crop(x_gen, size, rng))
    if strategy.kind == "source_anchored":
        return Triplet(random_crop(x, size, rng), random_crop(x, size, rng),
                       random_crop(x_gen, size, rng))
    distorted = strategy.distortion.apply(y, rng)
    return Triplet(random_crop(distorted, size, rng), random_crop(x_gen, size, rng),
                   random_crop(y, size, rng))


@dataclass
class DplConfig:
    strategy: TripletStrategy = field(default_factory=lambda: TripletStrategy(
        kind="task_oriented", distortion=DistortionSpec("color_jitter")))
    interval: int = 4  # the selector steps once every N iterations
    margin: float = 1.0
    mode: str = "feature_selection"
    iterations: int = 2000
    lr_generator: float = 1e-4
    lr_selector: float = 1e-4
    loss_weights: dict = field(default_factory=lambda: {
        name: weight for name, (weight, _) in LOSSES.items() if weight > 0})
    contextual_params: ContextualParams = field(default_factory=ContextualParams)
    color_sigma: float = 3.0
    augment_pairs: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise TrainerError(f"unknown fine-tune mode {self.mode!r}")
        if self.interval < 1:
            raise TrainerError(f"accumulate interval must be >= 1, got {self.interval}")
        if self.margin < 0:
            raise TrainerError(f"margin must be >= 0, got {self.margin}")
        for name in self.loss_weights:
            if name not in LOSSES:
                raise TrainerError(f"unknown loss component {name!r}")
        weights = [self.loss_weights.get(n, 0.0) for n in LOSSES]
        if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
            raise TrainerError("loss weights must be >= 0 with at least one positive")


@dataclass
class TrainState:
    gen_opt: Adam
    sel_opt: Adam | None  # None in frozen mode
    iteration: int = 0
    history: list[HistoryRow] = field(default_factory=list)


@dataclass
class HistoryRow:
    iteration: int
    generator_loss: float
    components: dict
    d_c: float
    f_norm: float
    phi_norm: float


def param_norm(params) -> float:
    return float(np.sqrt(sum(float((p.data**2).sum()) for p in params)))


def param_hash(params) -> str:
    digest = hashlib.sha256()
    for p in params:
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


def start_state(config: DplConfig, f: GeneratorF, psi: FeatureNetPsi,
                phi: SelectionPhi) -> TrainState:
    """The two optimizers of Algorithm 1: one on the generator, and one on the
    network the selector trains (phi, or psi in full mode; none when frozen)."""
    selector = {"feature_selection": phi, "full": psi}.get(config.mode)
    return TrainState(
        gen_opt=Adam(f.params(), lr=config.lr_generator),
        sel_opt=None if selector is None else Adam(selector.params(), lr=config.lr_selector))


def _features(psi: FeatureNetPsi, phi: SelectionPhi, x: Tensor, mode: str):
    taps = psi(x)
    return phi(taps) if mode == "feature_selection" else taps


def generator_step(tape: T.ComputationTape, x_gen: Tensor, y: Tensor,
                   psi: FeatureNetPsi, phi: SelectionPhi, config: DplConfig,
                   state: TrainState) -> tuple[float, dict]:
    """One Adam step on the generator under the configured loss recipe.

    ``x_gen`` is the generator's output on ``tape``, which also records the
    loss; the tape's parameters are the generator's, so the extractor and
    selector enter the loss as constants.
    Each image's feature set is built at most once, on first use, and shared
    by every term that needs it.
    """
    @functools.cache
    def features(t: Tensor):
        return _features(psi, phi, t, config.mode)

    with tape:
        components = {}
        total = None
        for name, weight in config.loss_weights.items():
            if weight <= 0:
                continue
            term = LOSSES[name][1](x_gen, y, features, config)
            components[name] = term.item()
            weighted = term * weight
            total = weighted if total is None else total + weighted
        value = total.item()
        if not np.isfinite(value):
            raise TrainingDiverged(state, f"non-finite loss {value}")
        T.backward(total, tape)
    state.gen_opt.step()
    state.gen_opt.zero_grad()
    return value, components


def selector_accumulate(psi: FeatureNetPsi, phi: SelectionPhi, triplet: Triplet,
                        config: DplConfig, state: TrainState) -> float:
    """Accumulate the triplet-loss gradient into the selector optimizer's
    parameters without stepping; the generator never appears on this tape."""
    if state.sel_opt is None:
        raise TrainerError("selector_accumulate called in frozen mode")
    with T.ComputationTape(state.sel_opt.params) as tape:
        fa = _features(psi, phi, to_tensor(triplet.anchor), config.mode)
        fp = _features(psi, phi, to_tensor(triplet.positive), config.mode)
        fn = _features(psi, phi, to_tensor(triplet.negative), config.mode)
        loss = triplet_loss(fa, fp, fn, config.margin)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(state, f"non-finite triplet loss {value}")
        T.backward(loss, tape)
    return value


def selector_apply(state: TrainState) -> None:
    """One Adam step on the accumulated selector gradient, then reset it."""
    state.sel_opt.step()
    state.sel_opt.zero_grad()


def run_training(config: DplConfig, dataset, f: GeneratorF, psi: FeatureNetPsi,
                 phi: SelectionPhi, rng: Rng,
                 sample_hook=None) -> tuple[GeneratorF, list[HistoryRow]]:
    """Full training loop; returns the generator and per-iteration history.

    The extractor/selector are inspectable afterwards but form no part of
    the output contract.
    """
    if not dataset:
        raise TrainerError("empty dataset")
    state = start_state(config, f, psi, phi)
    data_rng = rng.child(1)
    aug_rng = rng.child(2)
    trip_rng = rng.child(3)

    for it in range(config.iterations):
        state.iteration = it
        x_img, y_img = dataset[data_rng.integers(0, len(dataset))]
        if config.augment_pairs:
            # identical child seed -> identical draws for both halves of the pair
            x_img = augment(x_img, aug_rng.child(it))
            y_img = augment(y_img, aug_rng.child(it))
        x_t = to_tensor(x_img)
        y_t = to_tensor(y_img)

        with T.ComputationTape(state.gen_opt.params) as gen_tape:
            x_gen = f(x_t)
        d_c = 0.0
        if state.sel_opt is not None:
            # generator frozen: its output enters the triplet as plain data
            triplet = build_triplet(config.strategy, x_img, y_img,
                                    from_tensor(x_gen.detach()), trip_rng)
            d_c = selector_accumulate(psi, phi, triplet, config, state)

        gen_loss, components = generator_step(gen_tape, x_gen, y_t, psi, phi, config, state)

        if state.sel_opt is not None and (it + 1) % config.interval == 0:
            selector_apply(state)

        f_norm, phi_norm = param_norm(f.params()), param_norm(phi.params())
        if not (np.isfinite(f_norm) and np.isfinite(phi_norm)):
            raise TrainingDiverged(
                state, f"non-finite parameters (f_norm {f_norm}, phi_norm {phi_norm})")
        state.history.append(HistoryRow(
            iteration=it,
            generator_loss=gen_loss,
            components=components,
            d_c=d_c,
            f_norm=f_norm,
            phi_norm=phi_norm,
        ))
        if sample_hook is not None:
            sample_hook(it, f, x_img, y_img)
    return f, state.history
