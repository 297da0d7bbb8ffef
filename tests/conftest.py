import hashlib

import numpy as np
import pytest

from dpl import tensor as T
from dpl.config import SCHEMA
from dpl.image import to_tensor
from dpl.networks import FeatureNetPsi, pretrain_psi
from dpl.rng import Rng
from dpl.synth import generate_synthetic


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    """parse_config reads DPL_SEED; the tests see only the seeds they set."""
    monkeypatch.delenv("DPL_SEED", raising=False)


def train_config(**settings):
    """Every ``SCHEMA`` default, with ``dpl.<key>`` set for each keyword, as
    the trainer reads them."""
    return {**{key: spec.default for key, spec in SCHEMA.items()},
            **{f"dpl.{key}": value for key, value in settings.items()}}


def as_float64(*nets):
    """Cast every parameter of ``nets`` to float64, the element type a
    finite-difference check of a network needs."""
    for net in nets:
        for p in net.params():
            p.data = p.data.astype(np.float64)


def param_hash(params) -> str:
    digest = hashlib.sha256()
    for p in params:
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


_PRETRAIN_CACHE = {}


def pretrained_psi_full():
    """Full-budget pretrained extractor, computed once per session.

    Returns (psi, accuracy, wall_seconds); the acceptance gate asserts on
    the recorded numbers.
    """
    if "psi" not in _PRETRAIN_CACHE:
        import time

        rng = Rng(100)
        data = [(to_tensor(img), label)
                for img, label in generate_synthetic("textures", 2000, 32, rng.child(1))]
        psi = FeatureNetPsi(rng.child(2))
        t0 = time.time()
        accuracy = pretrain_psi(psi, data, 5, rng.child(3), lr=1e-3)
        _PRETRAIN_CACHE["psi"] = (psi, accuracy, time.time() - t0)
    return _PRETRAIN_CACHE["psi"]


@pytest.fixture(scope="session")
def pretrained_psi():
    return pretrained_psi_full()[0]


def finite_difference(fn, arrays, which, index, step=1e-5):
    """Central difference of scalar fn w.r.t. arrays[which][index]."""
    arrays[which][index] += step
    hi = fn(arrays)
    arrays[which][index] -= 2 * step
    lo = fn(arrays)
    arrays[which][index] += step
    return (hi - lo) / (2 * step)


def check_gradients(build, arrays, rng, n_points=20, rtol=1e-6, atol=1e-8,
                    step=1e-5):
    """Compare taped gradients against central finite differences.

    ``build`` maps a list of tensors, one per array, to a scalar Tensor
    while recording on the active tape, whose parameters are those tensors.
    """
    tensors = [T.Tensor(a) for a in arrays]

    with T.ComputationTape(tensors) as tape:
        loss = build(tensors)
        T.backward(loss, tape)

    def fn(arrs):
        ts = [T.Tensor(a) for a in arrs]
        return build(ts).item()

    plain = [t.data.copy() for t in tensors]
    for _ in range(n_points):
        which = int(rng.integers(0, len(arrays)))
        flat = int(rng.integers(0, arrays[which].size))
        index = np.unravel_index(flat, arrays[which].shape)
        expected = finite_difference(fn, plain, which, index, step)
        got = tensors[which].grad[index]
        assert got == pytest.approx(expected, rel=rtol, abs=atol), (
            f"grad mismatch at arg {which} index {index}: {got} vs fd {expected}"
        )
