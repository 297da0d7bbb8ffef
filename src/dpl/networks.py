"""The three networks: generator F, frozen feature extractor, and the
trainable 1x1-conv selection layer, plus extractor pretraining, whose loss
(the extractor's pooled head and the cross-entropy) is one tape op."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .optim import Adam
from .rng import Rng
from .tensor import Tensor


PRETRAIN_GATE = 0.80  # held-out accuracy psi must reach before it is saved


class NetworkError(Exception):
    pass


class PretrainingDiverged(Exception):
    """A non-finite loss or parameter in ``pretrain_psi``."""


# The image extents F and the extractor both take: F needs them even and at
# least 8, the extractor's two 2x2 poolings divisible by 4.
EXTENTS_RULE = "extents divisible by 4 and at least 8"


def takes_extents(h: int, w: int) -> bool:
    """True if both networks take an h x w image (``EXTENTS_RULE``)."""
    return h % 4 == 0 and w % 4 == 0 and min(h, w) >= 8


class Conv2dLayer:
    """A conv2d with the weight it is given and a zero bias; with ``upsample`` a
    3x3 conv, padding 1, of the nearest 2x upsampled input (``T.upsample_conv3x3``)."""

    def __init__(self, weight: np.ndarray, stride: int = 1, padding: int = 0,
                 upsample: bool = False):
        self.stride = stride
        self.padding = padding
        self.upsample = upsample
        self.weight = Tensor(weight, np.float32)
        self.bias = Tensor(np.zeros(weight.shape[0]), np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        if self.upsample:
            return T.upsample_conv3x3(x, self.weight, self.bias)
        return T.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def params(self):
        return [self.weight, self.bias]


class LinearLayer:
    """The (in, out) weight it is given and a zero bias: ψ's pooled head,
    which ``cross_entropy`` and ``classify`` apply."""

    def __init__(self, weight: np.ndarray):
        self.weight = Tensor(weight, np.float32)
        self.bias = Tensor(np.zeros(weight.shape[1]), np.float32)

    def params(self):
        return [self.weight, self.bias]


def _he_normal(rng: Rng, c_out: int, c_in: int) -> np.ndarray:
    """He-normal (c_out, c_in, 3, 3) conv weights drawn from ``rng``."""
    return rng.normal(0.0, np.sqrt(2.0 / (c_in * 9)), size=(c_out, c_in, 3, 3))


class _Net:
    """Shared parameter bookkeeping: named layers with weight/bias pairs."""

    def _layers(self) -> dict:
        """The network's attributes, all layers, in assignment order, which is
        the parameter order; an attribute's name is its checkpoint key prefix."""
        return dict(vars(self))

    def params(self) -> list[Tensor]:
        out = []
        for layer in self._layers().values():
            out.extend(layer.params())
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {}
        for name, layer in self._layers().items():
            state[f"{name}.weight"] = layer.weight.data
            state[f"{name}.bias"] = layer.bias.data
        return state

    def load_state_dict(self, state: dict) -> None:
        for name, layer in self._layers().items():
            for attr in ("weight", "bias"):
                key = f"{name}.{attr}"
                if key not in state:
                    raise NetworkError(f"checkpoint missing tensor {key!r}")
                arr = np.asarray(state[key])
                param: Tensor = getattr(layer, attr)
                if arr.shape != param.shape:
                    raise NetworkError(
                        f"checkpoint tensor {key!r} has shape {arr.shape}, expected {param.shape}"
                    )
                param.data = arr.astype(param.dtype)


class GeneratorF(_Net):
    """Small encoder-decoder with a global additive skip.

    The output head is zero-initialized, so an untrained generator is an
    exact identity map; training sees unclamped values.
    """

    def __init__(self, rng: Rng):
        self.enc1 = Conv2dLayer(_he_normal(rng.child(1), 16, 3), padding=1)
        self.enc2 = Conv2dLayer(_he_normal(rng.child(2), 32, 16), stride=2, padding=1)
        self.mid = Conv2dLayer(_he_normal(rng.child(3), 32, 32), padding=1)
        self.dec1 = Conv2dLayer(_he_normal(rng.child(4), 16, 32), upsample=True)
        self.dec2 = Conv2dLayer(np.zeros((3, 16, 3, 3)), padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        _, h, w = x.shape
        if h % 2 or w % 2 or h < 8 or w < 8:
            raise NetworkError(f"generator needs even extents >= 8, got {h}x{w}")
        z = T.relu(self.enc1(x))
        z = T.relu(self.enc2(z))
        z = T.relu(self.mid(z))
        z = T.relu(self.dec1(z))  # nearest 2x upsample, then a 3x3 conv
        return T.add(x, self.dec2(z))


class FeatureNetPsi(_Net):
    """3-block CNN pretrained on synthetic textures; taps after each block.

    In transformation training only the tap activations are consumed; the
    classification head exists for pretraining alone.
    """

    TAP_CHANNELS = (16, 32, 64)

    def __init__(self, rng: Rng):
        self.block1 = Conv2dLayer(_he_normal(rng.child(11), 16, 3), padding=1)
        self.block2 = Conv2dLayer(_he_normal(rng.child(12), 32, 16), padding=1)
        self.block3 = Conv2dLayer(_he_normal(rng.child(13), 64, 32), padding=1)
        self.head = LinearLayer(rng.child(14).normal(0.0, np.sqrt(1.0 / 64), size=(64, 10)))

    def __call__(self, x: Tensor) -> list[Tensor]:
        _, h, w = x.shape
        if h % 4 or w % 4:
            raise NetworkError(f"extractor needs extents divisible by 4, got {h}x{w}")
        h1 = T.relu(self.block1(x))
        h2 = T.relu(self.block2(T.max_pool2(h1)))
        h3 = T.relu(self.block3(T.max_pool2(h2)))
        return [h1, h2, h3]


class SelectionPhi(_Net):
    """Per-tap pair of 1x1 convolutions with a relu between, halving channels.

    Initialization starts near "pass the pre-trained features through":
    the first conv is an identity matrix plus small noise, the second a
    slice onto the first C/2 channels plus small noise.
    """

    def __init__(self, rng: Rng):
        noise = 0.01
        for i, c in enumerate(FeatureNetPsi.TAP_CHANNELS):
            eye = np.eye(c).reshape(c, c, 1, 1)
            setattr(self, f"tap{i}_first", Conv2dLayer(
                eye + rng.child(200 + i).normal(0.0, noise, size=(c, c, 1, 1))))
            setattr(self, f"tap{i}_second", Conv2dLayer(
                eye[: c // 2] + rng.child(400 + i).normal(0.0, noise, size=(c // 2, c, 1, 1))))

    def __call__(self, features: list[Tensor]) -> list[Tensor]:
        channels = FeatureNetPsi.TAP_CHANNELS
        if len(features) != len(channels):
            raise NetworkError(f"expected {len(channels)} taps, got {len(features)}")
        out = []
        for i, (feat, c) in enumerate(zip(features, channels)):
            if feat.shape[0] != c:
                raise NetworkError(
                    f"tap {i}: channel mismatch, feature has {feat.shape[0]}, selector expects {c}"
                )
            z = T.relu(getattr(self, f"tap{i}_first")(feat))
            out.append(getattr(self, f"tap{i}_second")(z))
        return out


def _head(psi: FeatureNetPsi, h3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ψ's pooled head on its last tap's [C,H,W] data: the (1, C) channel means
    and the logits, rounded as the chain reshape, mean, reshape, matmul, add."""
    c = h3.shape[0]
    pooled = h3.reshape((c, -1)).mean(axis=1).reshape((1, c))
    return pooled, (pooled @ psi.head.weight.data + psi.head.bias.data).reshape(-1)


def cross_entropy(psi: FeatureNetPsi, x: Tensor, label: int) -> Tensor:
    """``-log softmax(logits)[label]`` of ψ's pooled head on ``x``, as one tape
    op over the last tap, ``head.weight`` and ``head.bias``.

    It rounds as the chain of generic ops it replaces does, forward and
    backward: the head's chain (``_head``), then the log-softmax of the logits
    shifted by their max, times the one-hot label, summed and negated. With
    ``dl = -g * onehot``, the logits' gradient is ``dl + (sum(-dl) / S) *
    exp(z)``, ``S = sum(exp(z))``; the bias takes it summed over the (1, K)
    axis, the weight ``pooled.T @ dz``, and the tap ``dz @ weight.T`` spread
    over its H*W positions.
    """
    h3 = psi(x)[-1]
    weight, bias = psi.head.weight, psi.head.bias
    T._check_dtypes("cross_entropy", h3, weight, bias)
    pooled, logits = _head(psi, h3.data)
    z = logits - logits.max()
    e = np.exp(z)
    s = e.sum()
    onehot = np.zeros(logits.shape, h3.dtype)
    onehot[label] = 1.0
    loss = -((z - np.log(s)) * onehot).sum()

    def rule(g):
        dl = -g * onehot
        dz = (dl + ((-dl).sum() / s) * e).reshape((1, -1))
        hw = h3.data[0].size
        dpooled = (dz @ weight.data.T).reshape((-1, 1)) / hw
        dh3 = np.broadcast_to(dpooled, (len(dpooled), hw)).reshape(h3.shape)
        return [(h3, dh3), (weight, pooled.T @ dz), (bias, dz.sum(axis=0))]

    return T._make(loss, (h3, weight, bias), rule)


def classify(psi: FeatureNetPsi, x: Tensor) -> int:
    return int(np.argmax(_head(psi, psi(x)[-1].data)[1]))


def accuracy(psi: FeatureNetPsi, dataset) -> float:
    hits = sum(1 for x, label in dataset if classify(psi, x) == label)
    return hits / len(dataset)


# a diverging step overflows to inf/nan; the finiteness checks report that, so
# numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def pretrain_psi(psi: FeatureNetPsi, dataset, epochs: int, rng: Rng, lr: float,
                 log=None) -> float:
    """Train the texture classifier on all but the first tenth of ``dataset``,
    a list of (image tensor [3,H,W], label) samples (``to_tensor`` of the
    textures), until the accuracy on that tenth reaches ``PRETRAIN_GATE`` or
    the epochs run out; returns the last held-out accuracy. A non-finite
    loss, or parameters left non-finite by an epoch, raise
    ``PretrainingDiverged``."""
    n_hold = max(1, int(len(dataset) * 0.1))
    heldout, train = dataset[:n_hold], dataset[n_hold:]
    opt = Adam(psi.params(), lr=lr)
    acc = accuracy(psi, heldout)
    if log is not None:
        log(f"epoch 0 heldout_accuracy {acc:.4f}")
    for epoch in range(1, epochs + 1):
        for step, idx in enumerate(rng.permutation(len(train)), start=1):
            x, label = train[int(idx)]
            with T.ComputationTape(opt.params) as tape:
                loss = cross_entropy(psi, x, label)
                value = loss.item()
                if not math.isfinite(value):
                    raise PretrainingDiverged(f"non-finite loss {value} at epoch {epoch}, "
                                              f"step {step} of {len(train)}")
                T.backward(loss, tape)
            opt.step()
        # a step that made psi non-finite shows in the next step's loss; the
        # epoch's last step is caught here
        if not all(np.isfinite(p.data).all() for p in psi.params()):
            raise PretrainingDiverged(f"non-finite parameters after epoch {epoch}, "
                                      f"step {len(train)} of {len(train)}")
        acc = accuracy(psi, heldout)
        if log is not None:
            log(f"epoch {epoch} heldout_accuracy {acc:.4f}")
        if acc >= PRETRAIN_GATE:
            break
    return acc
