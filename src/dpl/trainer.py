"""Alternating two-optimizer training loop.

Each iteration takes one Adam step on the generator, builds a triplet from
the current pair and the generator's output before that step, accumulates
the selector gradient (without stepping), and applies the accumulated
selector update every N iterations. Taking the generator step before the
selector's work rather than after it changes no byte: the selector reads
only psi, phi, the crops and its own random stream; the generator step
writes only F's parameters and its Adam moments; and accumulating moves
neither psi nor phi. Each step opens its own tape over the parameter list
of the optimizer it feeds: F's for the generator step, phi's (psi's in
full mode) for the selector, so everything else is a constant on that tape.

Images are the (H, W, 3) float64 arrays of ``dpl.image``, and ``config`` is
the dict ``config.parse_config`` returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .image import (augment, color_jitter, from_tensor, gaussian_blur, random_crop, to_grayscale,
                    to_tensor)
from .losses import (color_loss, contextual_loss, perceptual_loss, pixel_loss, texture_loss,
                     triplet_loss, weighted_sum)
from .networks import FeatureNetPsi, GeneratorF, SelectionPhi
from .optim import Adam
from .rng import Rng
from .tensor import Tensor

MODES = ("feature_selection", "full", "frozen")
# dpl.strategy: name -> the images its anchor, positive and negative crops are cut from
STRATEGIES = {
    "instance_self": ("y", "y", "x_gen"),
    "task_oriented": ("distorted", "x_gen", "y"),
    "source_anchored": ("x", "x", "x_gen"),
}
# dpl.distortion: name -> distortion(image, config, rng)
DISTORTIONS = {
    "gaussian_blur": lambda image, config, rng: gaussian_blur(
        image, rng.uniform(config["dpl.blur_sigma_min"], config["dpl.blur_sigma_max"])),
    "color_jitter": lambda image, config, rng: color_jitter(
        image, rng, (config["dpl.jitter_scale_min"], config["dpl.jitter_scale_max"]),
        (config["dpl.jitter_bias_min"], config["dpl.jitter_bias_max"])),
    "grayscale": lambda image, config, rng: to_grayscale(image),
}

# The generator's loss terms, in history.csv column order: name -> (default
# weight of dpl.w_<name>, term(x_gen, y, features, config)), where
# ``features`` maps an image tensor to the feature set of the configured mode,
# built once per step. The terms look the loss functions up in this module's
# globals when called, not when defined.
LOSSES = {
    "perceptual": (1.0, lambda x_gen, y, features, config:
                   perceptual_loss(features(x_gen), features(y))),
    "contextual": (0.0, lambda x_gen, y, features, config:
                   contextual_loss(features(x_gen), features(y),
                                   config["dpl.contextual_bandwidth"],
                                   config["dpl.contextual_epsilon"])),
    "pixel_l1": (0.0, lambda x_gen, y, features, config: pixel_loss(x_gen, y)),
    "color": (0.0, lambda x_gen, y, features, config:
              color_loss(x_gen, y, config["dpl.color_sigma"])),
    "texture": (0.0, lambda x_gen, y, features, config: texture_loss(x_gen, y)),
}


class TrainerError(Exception):
    pass


class TrainingHalted(TrainerError):
    """Training stopped before its last iteration: at ``iteration``, after
    the rows of ``history``. ``run_training`` sets both."""

    iteration = 0
    history = ()

    def __str__(self) -> str:
        return f"{super().__str__()} at iteration {self.iteration}"


class TrainingDiverged(TrainingHalted):
    """A non-finite loss or parameter."""


class TrainingInterrupted(TrainingHalted):
    """A KeyboardInterrupt during an iteration."""


class TrainingFailed(TrainingHalted):
    """An OSError during an iteration, its ``__cause__``: a sample the hook could not write."""


def distort(image: np.ndarray, config: dict, rng: Rng) -> np.ndarray:
    """The configured task-oriented distortion (``dpl.distortion``) of one image."""
    return DISTORTIONS[config["dpl.distortion"]](image, config, rng)


def build_triplet(config: dict, x: np.ndarray, y: np.ndarray, x_gen: np.ndarray,
                  rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (anchor, positive, negative) crops of each role's image under
    ``dpl.strategy``: the distortion is drawn first, then each crop offset
    independently."""
    roles, size = STRATEGIES[config["dpl.strategy"]], config["dpl.crop"]
    images = {"x": x, "y": y, "x_gen": x_gen}
    if "distorted" in roles:
        images["distorted"] = distort(y, config, rng)
    return tuple(random_crop(images[role], size, rng) for role in roles)


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


def triplet_crop(config: dict) -> int:
    """Extent of the triplet crops a run cuts: ``dpl.crop`` when a selector
    trains, 0 in frozen mode, which trains none and cuts no triplets."""
    return 0 if config["dpl.mode"] == "frozen" else config["dpl.crop"]


def _features(psi: FeatureNetPsi, phi: SelectionPhi, x: Tensor, mode: str):
    taps = psi(x)
    return phi(taps) if mode == "feature_selection" else taps


def triplet_features(psi: FeatureNetPsi, phi: SelectionPhi, crops: list[Tensor], mode: str):
    """The features of the anchor, positive and negative ``crops`` side by side
    along the width: psi on each crop, phi (which acts per position) once."""
    taps = [T.concat_width(parts) for parts in zip(*(psi(x) for x in crops))]
    return phi(taps) if mode == "feature_selection" else taps


def generator_step(f: GeneratorF, x: Tensor, y: Tensor, psi: FeatureNetPsi,
                   phi: SelectionPhi, config: dict,
                   opt: Adam) -> tuple[Tensor, float, dict]:
    """One Adam step of ``opt`` on the generator under the configured loss
    recipe: F's output on ``x`` and the terms of ``LOSSES`` whose
    ``dpl.w_<name>`` is above 0, weighted and summed in order as one tape op
    (``losses.weighted_sum``). Returns F's output before the step, detached,
    with the loss and its components.

    The tape's parameters are ``opt``'s, F's, so the extractor and selector
    enter the loss as constants. Each image's feature set is built at most
    once, on first use, and shared by every term that needs it.
    """
    @functools.cache
    def features(t: Tensor):
        return _features(psi, phi, t, config["dpl.mode"])

    weights = {name: config[f"dpl.w_{name}"] for name in LOSSES}
    with T.ComputationTape(opt.params) as tape:
        x_gen = f(x)
        terms = {name: loss(x_gen, y, features, config)
                 for name, (_, loss) in LOSSES.items() if weights[name] > 0}
        components = {name: term.item() for name, term in terms.items()}
        total = weighted_sum(list(terms.values()), [weights[name] for name in terms])
        value = total.item()
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss {value}")
        T.backward(total, tape)
    opt.step()
    return x_gen.detach(), value, components


def selector_accumulate(psi: FeatureNetPsi, phi: SelectionPhi, triplet: tuple, config: dict,
                        opt: Adam) -> float:
    """Accumulate the triplet-loss gradient of the (anchor, positive,
    negative) crops ``triplet`` into ``opt``'s parameters without stepping;
    the generator never appears on this tape."""
    with T.ComputationTape(opt.params) as tape:
        crops = [to_tensor(c) for c in triplet]
        features = triplet_features(psi, phi, crops, config["dpl.mode"])
        loss = triplet_loss(features, config["dpl.margin"])
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite triplet loss {value}")
        T.backward(loss, tape)
    return value


def selector_apply(opt: Adam) -> None:
    """One Adam step on the accumulated selector gradient, which the step consumes."""
    opt.step()


# a diverging run overflows to inf/nan; the finiteness checks report that, so
# numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def run_training(config: dict, dataset, f: GeneratorF, psi: FeatureNetPsi,
                 phi: SelectionPhi, rng: Rng,
                 sample_hook=None) -> tuple[GeneratorF, list[HistoryRow]]:
    """Full training loop over ``dataset``, a sequence of (x, y) image
    pairs; returns the generator and per-iteration history. After each
    iteration ``sample_hook(it, f, x, y)``, if given, sees the pair it trained on.

    It holds the two optimizers of Algorithm 1: Adam on the generator, and
    Adam on the network the selector trains on the triplets (phi, or psi in
    full mode; none when frozen). The extractor/selector are inspectable
    afterwards but form no part of the output contract.
    """
    if not dataset:
        raise TrainerError("empty dataset")
    gen_opt = Adam(f.params(), lr=config["dpl.lr_generator"])
    selector = phi if config["dpl.mode"] == "feature_selection" else psi
    sel_opt = (Adam(selector.params(), lr=config["dpl.lr_selector"])
               if triplet_crop(config) else None)
    data_rng, aug_rng, trip_rng = rng.child(1), rng.child(2), rng.child(3)
    # phi moves only at selector_apply, and only in feature_selection mode
    phi_norm = param_norm(phi.params())
    it, history = 0, []

    try:
        try:
            for it in range(config["dpl.iterations"]):
                x_img, y_img = dataset[data_rng.integers(0, len(dataset))]
                if config["dpl.augment"]:
                    # identical child seed -> identical draws for both halves of the pair
                    x_img = augment(x_img, aug_rng.child(it))
                    y_img = augment(y_img, aug_rng.child(it))
                x_gen, gen_loss, components = generator_step(
                    f, to_tensor(x_img), to_tensor(y_img), psi, phi, config, gen_opt)
                d_c = 0.0
                if sel_opt is not None:
                    # F's output before its step enters the triplet as plain data
                    triplet = build_triplet(config, x_img, y_img, from_tensor(x_gen), trip_rng)
                    d_c = selector_accumulate(psi, phi, triplet, config, sel_opt)
                    if (it + 1) % config["dpl.interval"] == 0:
                        selector_apply(sel_opt)
                        phi_norm = param_norm(phi.params())

                f_norm = param_norm(f.params())
                if not (np.isfinite(f_norm) and np.isfinite(phi_norm)):
                    raise TrainingDiverged(
                        f"non-finite parameters (f_norm {f_norm}, phi_norm {phi_norm})")
                history.append(HistoryRow(it, gen_loss, components, d_c, f_norm, phi_norm))
                if sample_hook is not None:
                    sample_hook(it, f, x_img, y_img)
        except KeyboardInterrupt:
            raise TrainingInterrupted("interrupted") from None
        except OSError as e:
            raise TrainingFailed(str(e)) from e
    except TrainingHalted as halt:
        halt.iteration, halt.history = it, history
        raise
    return f, history
