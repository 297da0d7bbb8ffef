import math
import struct

import numpy as np
import pytest

import tape_ops as ops
from conftest import as_float64, check_gradients, param_hash
from dpl import tensor as T
from dpl.checkpoint import CheckpointError, atomic_write, load_checkpoint, save_checkpoint
from dpl.image import as_image, to_tensor
from dpl import networks
from dpl.networks import (FeatureNetPsi, GeneratorF, NetworkError, PretrainingDiverged,
                          SelectionPhi, accuracy, classify, cross_entropy, pretrain_psi)
from dpl.rng import Rng
from dpl.synth import generate_synthetic
from dpl.tensor import Tensor


def _f32(arr) -> Tensor:
    """A float32 tensor, the element type of the networks' weights."""
    return Tensor(arr, np.float32)


# -- generator ---------------------------------------------------------------------


def test_generator_identity_at_init():
    f = GeneratorF(Rng(0))
    x = _f32(np.random.default_rng(0).uniform(size=(3, 16, 16)))
    out = f(x)
    assert np.array_equal(out.data, x.data)


def test_generator_shape_preserved():
    f = GeneratorF(Rng(1))
    for size in (8, 16, 32):
        x = _f32(np.zeros((3, size, size)))
        assert f(x).shape == (3, size, size)


def test_generator_rejects_odd_or_small():
    f = GeneratorF(Rng(2))
    for h, w in ((7, 8), (8, 9), (6, 6)):
        with pytest.raises(NetworkError, match="even extents"):
            f(_f32(np.zeros((3, h, w))))


def test_generator_deterministic_init():
    a = GeneratorF(Rng(3)).state_dict()
    b = GeneratorF(Rng(3)).state_dict()
    for key in a:
        assert np.array_equal(a[key], b[key])


@pytest.mark.parametrize("net, seed, layers, digest", [
    (GeneratorF, 0, "enc1 enc2 mid dec1 dec2",
     "3dc214075af91dcdcb1b173d446cfbf38f6925e16b84e49bae8cb4cc1a2d71f9"),
    (GeneratorF, 41, "enc1 enc2 mid dec1 dec2",
     "22fbab84785e4ae14defb7408aa1054c178bf11834b6cea69eca2f4ab6027777"),
    (FeatureNetPsi, 0, "block1 block2 block3 head",
     "7450ecd4bdf477b192af088d3386ee8ab8500c088117be22773e00887f6cf227"),
    (FeatureNetPsi, 41, "block1 block2 block3 head",
     "c7b67d1eeb1159207e4e31a704c0e90a82bc48faaa7e94ee27866f1c70e461ee"),
    (SelectionPhi, 0, "tap0_first tap0_second tap1_first tap1_second tap2_first tap2_second",
     "c48e141546d84dee1f207d9e7762847e8f18ce8f1f4a3468d29813fc21dcf103"),
    (SelectionPhi, 41, "tap0_first tap0_second tap1_first tap1_second tap2_first tap2_second",
     "87fb8bac21e521db59836e8523a88eb2998682e168ea8f2b65fcd85d132a69b4"),
])
def test_initial_parameters_keep_their_bytes_order_and_names(net, seed, layers, digest):
    # the digests were recorded when each layer still drew its own weights:
    # the draws, their order and the checkpoint keys are part of every
    # seeded run's output
    built = net(Rng(seed))
    assert param_hash(built.params()) == digest
    assert list(built.state_dict()) == [f"{name}.{attr}" for name in layers.split()
                                        for attr in ("weight", "bias")]


# -- extractor ----------------------------------------------------------------------


def test_psi_tap_shapes():
    psi = FeatureNetPsi(Rng(4))
    taps = psi(_f32(np.zeros((3, 32, 32))))
    assert [t.shape for t in taps] == [(16, 32, 32), (32, 16, 16), (64, 8, 8)]


def test_psi_rejects_indivisible_extent():
    psi = FeatureNetPsi(Rng(5))
    with pytest.raises(NetworkError, match="divisible by 4"):
        psi(_f32(np.zeros((3, 30, 32))))


def test_psi_logits_shape_and_softmax():
    # the probabilities exp(-cross_entropy) over the ten labels sum to 1
    psi = FeatureNetPsi(Rng(6))
    x = _f32(np.random.default_rng(1).uniform(size=(3, 16, 16)))
    losses = [cross_entropy(psi, x, label).item() for label in range(10)]
    assert np.exp(-np.array(losses)).sum() == pytest.approx(1.0, rel=1e-5)
    assert classify(psi, x) == int(np.argmin(losses))


def test_networks_and_images_enter_as_float32():
    rng = Rng(10)
    nets = GeneratorF(rng.child(1)), FeatureNetPsi(rng.child(2)), SelectionPhi(rng.child(3))
    for net in nets:
        assert all(p.dtype == np.float32 for p in net.params())
        net.load_state_dict({k: v.astype(np.float64) for k, v in net.state_dict().items()})
        assert all(p.dtype == np.float32 for p in net.params())
    assert to_tensor(as_image(np.zeros((8, 8, 3)))).dtype == np.float32


def test_cross_entropy_uniform_is_log_k():
    psi = FeatureNetPsi(Rng(6))
    psi.head.weight.data[...] = 0.0  # every logit is the zero bias
    x = _f32(np.random.default_rng(1).uniform(size=(3, 16, 16)))
    assert cross_entropy(psi, x, 3).item() == pytest.approx(math.log(10.0), rel=1e-6)


def _cross_entropy_grads(loss_fn, psi, x, label, scale):
    """The loss of ``loss_fn(psi, x, label) * scale`` and the gradient of every
    parameter of ψ, from one backward on a tape of ψ's parameters."""
    for p in psi.params():
        p.grad = None
    with T.ComputationTape(psi.params()) as tape:
        loss = ops.mul(loss_fn(psi, x, label), scale)
        T.backward(loss, tape)
    return loss.data, [p.grad for p in psi.params()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_rounds_as_its_chain(dtype):
    # value and every gradient bitwise equal to the generic-op chain it fuses,
    # at three labels, through the head's weight and bias and through the tap
    # into ψ's convs; the scale makes the op's upstream gradient other than 1
    psi = FeatureNetPsi(Rng(7))
    if dtype is np.float64:
        as_float64(psi)
    rng = np.random.default_rng(3)
    psi.head.bias.data[...] = rng.normal(size=10)
    x = Tensor(rng.uniform(size=(3, 12, 20)), dtype)  # the tap's 15 positions: no power of 2
    for label, scale in ((0, 1.0), (4, -0.75), (9, 2.5)):
        fused = _cross_entropy_grads(cross_entropy, psi, x, label, scale)
        chain = _cross_entropy_grads(ops.cross_entropy_chain, psi, x, label, scale)
        assert fused[0].dtype == dtype and fused[0].tobytes() == chain[0].tobytes()
        for got, want in zip(fused[1], chain[1]):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_cross_entropy_gradient():
    # float64 finite differences through the tap (the input) and the head
    psi = FeatureNetPsi(Rng(8))
    as_float64(psi)
    rng = np.random.default_rng(4)

    def build(ts):
        psi.head.weight, psi.head.bias = ts[1], ts[2]
        return cross_entropy(psi, ts[0], 6)

    arrays = [rng.uniform(size=(3, 8, 8)), rng.normal(0.0, 0.3, size=(64, 10)),
              rng.normal(size=10)]
    check_gradients(build, arrays, rng, n_points=30, rtol=1e-6, atol=1e-9)


# -- selector -----------------------------------------------------------------------


def test_phi_output_shapes():
    phi = SelectionPhi(Rng(7))
    feats = [_f32(np.random.default_rng(2).uniform(size=(c, 8, 8)))
             for c in (16, 32, 64)]
    out = phi(feats)
    assert [t.shape for t in out] == [(8, 8, 8), (16, 8, 8), (32, 8, 8)]


def test_phi_init_near_slice_of_input():
    # identity-plus-noise first conv and slice-plus-noise second conv should
    # keep the initial selector close to "first half of the relu'd features"
    phi = SelectionPhi(Rng(8))
    feat = _f32(np.abs(np.random.default_rng(3).normal(size=(16, 6, 6))))
    out = phi([feat,
               _f32(np.zeros((32, 6, 6))),
               _f32(np.zeros((64, 6, 6)))])[0]
    assert np.max(np.abs(out.data - feat.data[:8])) < 0.5
    assert np.mean(np.abs(out.data - feat.data[:8])) < 0.1


def test_phi_tap_count_and_channel_validation():
    phi = SelectionPhi(Rng(9))
    with pytest.raises(NetworkError, match="taps"):
        phi([_f32(np.zeros((16, 4, 4)))])
    bad = [_f32(np.zeros((16, 4, 4))), _f32(np.zeros((16, 4, 4))),
           _f32(np.zeros((64, 4, 4)))]
    with pytest.raises(NetworkError, match="channel mismatch"):
        phi(bad)


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_round_trip_generator(tmp_path):
    f = GeneratorF(Rng(11))
    path = tmp_path / "f.dplc"
    save_checkpoint(f.state_dict(), path)
    g = GeneratorF(Rng(12))
    g.load_state_dict(load_checkpoint(path))
    for key, arr in f.state_dict().items():
        assert np.allclose(g.state_dict()[key], arr.astype(np.float32), atol=0)


def test_checkpoint_round_trip_all_nets(tmp_path):
    for net in (FeatureNetPsi(Rng(13)), SelectionPhi(Rng(14))):
        path = tmp_path / "net.dplc"
        save_checkpoint(net.state_dict(), path)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(net.state_dict())


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.dplc"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    f = GeneratorF(Rng(15))
    path = tmp_path / "f.dplc"
    save_checkpoint(f.state_dict(), path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def _record(name: bytes, dims=(2,), payload=b"\0" * 8) -> bytes:
    """One tensor record of the checkpoint format, payload as given."""
    head = struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
    return head + struct.pack(f"<{len(dims)}I", *dims) + payload


_HEAD = b"DPLC" + struct.pack("<I", 1)


@pytest.mark.parametrize("raw, what", [
    (_HEAD + struct.pack("<I", 1) + _record(b"a")[:-3], "truncated"),
    (b"XXXX" + struct.pack("<II", 1, 0), "bad magic"),
    (b"DPLC" + struct.pack("<II", 2, 0), "version 2"),
    (_HEAD + struct.pack("<I", 2) + 2 * _record(b"a"), "duplicate tensor name"),
    (_HEAD + struct.pack("<I", 0) + b"\0", "1 trailing bytes"),
    # were a UnicodeDecodeError and a reshape ValueError, not a CheckpointError
    (_HEAD + struct.pack("<I", 1) + _record(b"\xff"), "not UTF-8"),
    (_HEAD + struct.pack("<I", 1) + _record(b"a", (2**16,) * 4, b""), "truncated"),
], ids=["truncated", "magic", "version", "duplicate", "trailing", "name", "size"])
def test_checkpoint_format_errors_name_the_file(tmp_path, raw, what):
    path = tmp_path / "bad.dplc"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ") and what in str(info.value)


def test_interrupted_checkpoint_write_keeps_previous_file(tmp_path):
    path = tmp_path / "f.dplc"
    save_checkpoint(GeneratorF(Rng(15)).state_dict(), path)
    before = path.read_bytes()

    class Interrupt(Exception):
        pass

    class Unwritable:
        def __array__(self, *args, **kwargs):
            raise Interrupt()

    # "z" sorts last: the header and tensor "a" are written before the failure
    with pytest.raises(Interrupt):
        save_checkpoint({"a": np.ones(4), "z": Unwritable()}, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.dplc"]


@pytest.mark.parametrize("previous", [b"previous\n", None], ids=["over_a_file", "no_file"])
def test_interrupted_atomic_write_keeps_previous_file(tmp_path, previous):
    path = tmp_path / "history.csv"
    if previous is not None:
        path.write_bytes(previous)

    class Interrupt(Exception):
        pass

    with pytest.raises(Interrupt), atomic_write(path) as f:
        f.write("iteration,generator_loss\n0,")
        f.flush()  # the partial row is in the temporary file
        raise Interrupt()
    assert (path.read_bytes() if path.exists() else None) == previous
    assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["history.csv"])


def test_checkpoint_shape_mismatch_on_load(tmp_path):
    f = GeneratorF(Rng(16))
    state = f.state_dict()
    state["enc1.weight"] = np.zeros((2, 2))
    path = tmp_path / "f.dplc"
    save_checkpoint(state, path)
    with pytest.raises(NetworkError, match="shape"):
        GeneratorF(Rng(17)).load_state_dict(load_checkpoint(path))


def test_checkpoint_missing_tensor(tmp_path):
    f = GeneratorF(Rng(18))
    state = f.state_dict()
    del state["mid.bias"]
    path = tmp_path / "f.dplc"
    save_checkpoint(state, path)
    with pytest.raises(NetworkError, match="missing"):
        GeneratorF(Rng(19)).load_state_dict(load_checkpoint(path))


# -- pretraining ---------------------------------------------------------------------


def test_pretrain_smoke_small():
    # tiny run: enough data that the net is well above chance (10%) but cheap
    rng = Rng(20)
    data = [(to_tensor(img), label)
            for img, label in generate_synthetic("textures", 400, 16, rng.child(1))]
    psi = FeatureNetPsi(rng.child(2))
    assert pretrain_psi(psi, data, epochs=3, rng=rng.child(3), lr=1e-3) >= 0.5


def test_pretrained_psi_keeps_its_bytes():
    # pinned on the commit before max_pool2's winner masks and the fused
    # cross-entropy, both of which claim to keep pretraining's bytes
    rng = Rng(22)
    data = [(to_tensor(img), label)
            for img, label in generate_synthetic("textures", 100, 16, rng.child(1))]
    psi = FeatureNetPsi(rng.child(2))
    assert pretrain_psi(psi, data, epochs=2, rng=rng.child(3), lr=1e-3) == 0.3
    assert param_hash(psi.params()) == (
        "70dcb3e24fb6b11f40d4487944289e500b61a581a3fe58da1392dbecb0eb6ff5")


def test_pretraining_halts_on_parameters_an_epoch_leaves_non_finite(monkeypatch):
    # the loss of the epoch's last step is finite, and no later step reads
    # the parameters that step left: the check at the epoch's end reports them
    rng = Rng(23)
    data = [(to_tensor(img), label)
            for img, label in generate_synthetic("textures", 20, 16, rng.child(1))]
    psi = FeatureNetPsi(rng.child(2))

    class PoisonedAdam(networks.Adam):
        def step(self):
            super().step()
            if self.t == 18:  # the last of the 18 steps of epoch 1
                self.params[0].data[0, 0, 0, 0] = np.inf

    monkeypatch.setattr(networks, "Adam", PoisonedAdam)
    with pytest.raises(PretrainingDiverged,
                       match="^non-finite parameters after epoch 1, step 18 of 18$"):
        pretrain_psi(psi, data, epochs=2, rng=rng.child(3), lr=1e-3)


def test_classify_and_accuracy_consistent():
    rng = Rng(21)
    data = [(to_tensor(img), label)
            for img, label in generate_synthetic("textures", 20, 16, rng.child(1))]
    psi = FeatureNetPsi(rng.child(2))
    preds = [classify(psi, x) for x, _ in data]
    acc = accuracy(psi, data)
    hits = sum(1 for p, (_, label) in zip(preds, data) if p == label)
    assert acc == pytest.approx(hits / len(data))
