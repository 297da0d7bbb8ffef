import numpy as np
import pytest

import tape_ops as ops
from conftest import check_gradients
from dpl import tensor as T
from dpl.losses import (LossError, color_loss,
                        contextual_loss, perceptual_loss, pixel_loss,
                        texture_loss, triplet_loss, weighted_sum)
from dpl.tensor import ComputationTape, Tensor


def _featset(*arrays):
    return [Tensor(a) for a in arrays]


def _vectors_to_tap(vecs: np.ndarray) -> np.ndarray:
    """(N, C) position vectors -> [C, 1, N] feature tensor."""
    return vecs.T.reshape(vecs.shape[1], 1, vecs.shape[0])


# -- perceptual ------------------------------------------------------------------


def test_perceptual_identity_zero():
    f = _featset(np.random.default_rng(0).normal(size=(4, 3, 3)))
    assert perceptual_loss(f, f).item() == pytest.approx(0.0, abs=1e-12)


def test_perceptual_arithmetic():
    fa = _featset(np.array([[[1.0, 2.0]]]))
    fb = _featset(np.array([[[1.0, 4.0]]]))
    assert perceptual_loss(fa, fb).item() == pytest.approx(2.0)


def test_perceptual_shape_mismatch():
    with pytest.raises(LossError, match="shape mismatch"):
        perceptual_loss(_featset(np.zeros((2, 2, 2))), _featset(np.zeros((2, 3, 3))))


def test_perceptual_gradient():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4, 4))
    b = rng.normal(size=(3, 4, 4))
    check_gradients(lambda ts: perceptual_loss([ts[0]], [Tensor(b)]), [a], rng,
                    n_points=20, rtol=1e-6)


@pytest.mark.parametrize("derived", [False, True])
def test_perceptual_refuses_a_tape_that_tracks_the_target_set(derived):
    # the target features are a constant; the loss has no gradient for them
    rng = np.random.default_rng(27)
    fa = _featset(rng.normal(size=(4, 3, 3)), rng.normal(size=(8, 2, 2)))
    fb = _featset(rng.normal(size=(4, 3, 3)), rng.normal(size=(8, 2, 2)))
    with ComputationTape(fa + fb[1:]):
        if derived:  # an output the tape recorded, not the parameter itself
            fb[1] = ops.mul(fb[1], 2.0)
        with pytest.raises(LossError, match="tap 1 target set is tracked"):
            perceptual_loss(fa, fb)


def perceptual_chain(fa, fb):
    """The perceptual loss composed from generic tape ops: the reference for
    its one-op form."""
    total = None
    for a, b in zip(fa, fb):
        tap = ops.tmean(ops.power(ops.sub(a, b), 2))
        total = tap if total is None else ops.add(total, tap)
    return ops.mul(total, 1.0 / len(fa))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_perceptual_matches_composed_chain_bitwise(dtype):
    # the one op rounds as the chain does, in value and in gradient
    rng = np.random.default_rng(28)
    arrays_a = [rng.normal(size=s).astype(dtype) for s in TAP_SHAPES]
    arrays_b = [rng.normal(size=s).astype(dtype) for s in TAP_SHAPES]
    for weight in (1.0, 0.37):
        got, want = (_value_and_grads(lambda fa, fb: ops.mul(fn(fa, fb), weight),
                                      arrays_a, arrays_b)
                     for fn in (perceptual_loss, perceptual_chain))
        assert got[0] == want[0]
        for g, w in zip(got[1], want[1]):
            assert g.dtype == dtype and np.array_equal(g, w)


# -- contextual ------------------------------------------------------------------


def contextual_oracle(a_vecs, b_vecs, h=0.5, eps=1e-5):
    """Straight-line evaluation of the affinity chain on (N, C) arrays."""
    mu = b_vecs.mean(axis=0, keepdims=True)
    ac, bc = a_vecs - mu, b_vecs - mu
    an = ac / np.sqrt((ac**2).sum(axis=1, keepdims=True) + eps * eps)
    bn = bc / np.sqrt((bc**2).sum(axis=1, keepdims=True) + eps * eps)
    d = 1.0 - an @ bn.T
    dt = d / (d.min(axis=1, keepdims=True) + eps)
    w = np.exp((1.0 - dt) / h)
    cx = w / w.sum(axis=1, keepdims=True)
    return -np.log(cx.max(axis=0).mean())


def test_contextual_identity_small():
    vecs = np.array([[1.0, 0.2], [0.1, 1.0], [-1.0, 0.5], [0.4, -1.0]])
    f = _featset(_vectors_to_tap(vecs))
    assert contextual_loss(f, f).item() < 0.01


def test_contextual_orthogonal_uniform_gives_log_n():
    # zero-mean target set so centering is a no-op; all cross cosines are 0
    e = np.eye(8)
    ys = np.stack([e[0], -e[0], e[1], -e[1]])
    xs = np.stack([e[2], -e[2], e[3], -e[3]])
    loss = contextual_loss(_featset(_vectors_to_tap(xs)), _featset(_vectors_to_tap(ys)))
    assert loss.item() == pytest.approx(np.log(4.0), rel=1e-3)


def test_contextual_permutation_invariant_in_first_set():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(6, 4))
    ys = rng.normal(size=(5, 4))
    base = contextual_loss(_featset(_vectors_to_tap(xs)), _featset(_vectors_to_tap(ys)))
    perm = contextual_loss(_featset(_vectors_to_tap(xs[::-1].copy())),
                           _featset(_vectors_to_tap(ys)))
    assert base.item() == pytest.approx(perm.item(), rel=1e-9)


def test_contextual_matches_oracle_on_random_sets():
    rng = np.random.default_rng(3)
    for _ in range(50):
        na, nb = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        xs = rng.normal(size=(na, 2))
        ys = rng.normal(size=(nb, 2))
        got = contextual_loss(_featset(_vectors_to_tap(xs)),
                              _featset(_vectors_to_tap(ys))).item()
        assert got == pytest.approx(contextual_oracle(xs, ys), rel=1e-6, abs=1e-9)


def test_contextual_handles_zero_norm_vector():
    xs = np.array([[0.0, 0.0], [1.0, 2.0]])
    ys = np.array([[1.0, -1.0], [-1.0, 1.0]])
    value = contextual_loss(_featset(_vectors_to_tap(xs)),
                            _featset(_vectors_to_tap(ys))).item()
    assert np.isfinite(value) and value >= 0.0


def test_contextual_channel_mismatch():
    with pytest.raises(LossError, match="channel mismatch"):
        contextual_loss(_featset(np.zeros((2, 2, 2))), _featset(np.zeros((4, 2, 2))))


def test_contextual_gradient():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 2, 2))
    b = rng.normal(size=(3, 2, 2))
    check_gradients(lambda ts: contextual_loss([ts[0]], [Tensor(b)]), [a], rng,
                    n_points=20, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("derived", [False, True])
def test_contextual_refuses_a_tape_that_tracks_the_target_set(derived):
    # the target features are a constant; the loss has no gradient for them
    rng = np.random.default_rng(26)
    fa = _featset(rng.normal(size=(4, 3, 3)), rng.normal(size=(8, 2, 2)))
    fb = _featset(rng.normal(size=(4, 3, 3)), rng.normal(size=(8, 2, 2)))
    with ComputationTape(fa + fb[1:]):
        if derived:  # an output the tape recorded, not the parameter itself
            fb[1] = ops.mul(fb[1], 2.0)
        with pytest.raises(LossError, match="tap 1 target set is tracked"):
            contextual_loss(fa, fb)


def test_contextual_bad_params():
    feats = _featset(np.ones((2, 2, 2)))
    with pytest.raises(LossError):
        contextual_loss(feats, feats, bandwidth=0.0)


def contextual_chain(fa, fb, h=0.5, eps=1e-5):
    """The contextual loss composed from generic tape ops, one op per step of
    the affinity chain: the reference for the hand-written backward."""
    total = None
    for a, b in zip(fa, fb):
        av = ops.transpose(ops.reshape(a, (a.shape[0], -1)))
        bv = ops.transpose(ops.reshape(b, (b.shape[0], -1)))
        mu = ops.tmean(bv, axis=0, keepdims=True)
        ac, bc = ops.sub(av, mu), ops.sub(bv, mu)
        an = ops.div(ac, ops.sqrt(ops.add(ops.tsum(ops.mul(ac, ac), axis=1, keepdims=True),
                                          eps * eps)))
        bn = ops.div(bc, ops.sqrt(ops.add(ops.tsum(ops.mul(bc, bc), axis=1, keepdims=True),
                                          eps * eps)))
        one = ops.constant(1.0, a.dtype)
        d = ops.sub(one, ops.matmul(an, ops.transpose(bn)))
        d_tilde = ops.div(d, ops.add(ops.reduce_min(d, axis=1, keepdims=True), eps))
        w = ops.exp(ops.mul(ops.sub(one, d_tilde), 1.0 / h))
        cx = ops.div(w, ops.tsum(w, axis=1, keepdims=True))
        tap = ops.neg(ops.log(ops.tmean(ops.reduce_max(cx, axis=0))))
        total = tap if total is None else ops.add(total, tap)
    return ops.mul(total, 1.0 / len(fa))


def _value_and_grads(fn, arrays_a, arrays_b):
    """The loss and the first set's gradient; the second set is a constant."""
    fa, fb = _featset(*arrays_a), _featset(*arrays_b)
    with ComputationTape(fa) as tape:
        loss = fn(fa, fb)
        T.backward(loss, tape)
    return loss.item(), [t.grad for t in fa]


# the extractor's tap shapes at 32x32
TAP_SHAPES = [(16, 32, 32), (32, 16, 16), (64, 8, 8)]


def test_contextual_matches_taped_chain_at_tap_shapes():
    rng = np.random.default_rng(17)
    a = [rng.normal(size=s) for s in TAP_SHAPES]
    b = [x + rng.normal(scale=2.0, size=x.shape) for x in a]
    want, want_grads = _value_and_grads(contextual_chain, a, b)
    got, got_grads = _value_and_grads(contextual_loss, a, b)
    assert got == pytest.approx(want, rel=1e-14)
    for g, w in zip(got_grads, want_grads):
        assert np.allclose(g, w, rtol=1e-9, atol=1e-12 * np.abs(w).max())


def test_contextual_value_matches_taped_chain_in_float32():
    rng = np.random.default_rng(18)
    a64 = [rng.normal(size=s).astype(np.float32).astype(np.float64) for s in TAP_SHAPES]
    b64 = [rng.normal(size=s).astype(np.float32).astype(np.float64) for s in TAP_SHAPES]
    a = _featset(*(x.astype(np.float32) for x in a64))
    b = _featset(*(x.astype(np.float32) for x in b64))
    got = contextual_loss(a, b)
    assert got.dtype == np.float32
    assert got.item() == pytest.approx(contextual_chain(a, b).item(), rel=1e-6)
    assert got.item() == pytest.approx(contextual_chain(_featset(*a64), _featset(*b64)).item(),
                                       rel=1e-6)


def test_contextual_gradient_with_duplicate_vectors():
    # rows 0 and 3 of each set are equal, and x0 lies near y0: rows 0 and 3
    # take their min distance at the tied columns 0 and 3, and columns 0 and
    # 3 their max affinity at the tied rows 0 and 3. At a tied copy the
    # derivative exists only for both copies moved together.
    rng = np.random.default_rng(19)
    ys = rng.normal(size=(5, 3))
    xs = rng.normal(size=(6, 3))
    ys[3] = ys[0]
    xs[0] = xs[3] = ys[0] + rng.normal(scale=0.3, size=3)
    arrays = [_vectors_to_tap(xs), _vectors_to_tap(ys)]
    mu = ys.mean(axis=0)
    an = (xs - mu) / np.linalg.norm(xs - mu, axis=1, keepdims=True)
    bn = (ys - mu) / np.linalg.norm(ys - mu, axis=1, keepdims=True)
    d = 1.0 - an @ bn.T
    w = np.exp((1.0 - d / d.min(axis=1, keepdims=True)) / 0.5)
    cx = w / w.sum(axis=1, keepdims=True)
    assert list(d.argmin(axis=1)[[0, 3]]) == [0, 0]
    assert list(cx.argmax(axis=0)[[0, 3]]) == [0, 0]

    def build(ts):
        return contextual_loss([ts[0]], [ts[1]])

    value, grads = _value_and_grads(contextual_loss, arrays[:1], arrays[1:])
    _, chain_grads = _value_and_grads(contextual_chain, arrays[:1], arrays[1:])
    assert np.isfinite(value)
    for g, w in zip(grads, chain_grads):
        assert np.all(np.isfinite(g))
        assert np.allclose(g, w, rtol=1e-9, atol=1e-13)

    def moved_together(which, indices, step=1e-5):
        """Central difference when every element in ``indices`` moves by ``step``."""
        plain = [x.copy() for x in arrays]
        values = []
        for delta in (step, -step):
            for index in indices:
                plain[which][index] = arrays[which][index] + delta
            values.append(build([Tensor(x) for x in plain]).item())
        return (values[0] - values[1]) / (2 * step)

    (grad,) = grads
    for c in range(grad.shape[0]):
        for pos in range(grad.shape[2]):
            if pos == 3:
                continue  # moves with its copy at position 0
            group = [(c, 0, 0), (c, 0, 3)] if pos == 0 else [(c, 0, pos)]
            got = sum(grad[index] for index in group)
            assert got == pytest.approx(moved_together(0, group), rel=1e-5, abs=1e-7), (
                f"channel {c}, position {pos}")


def _exponents(a, b, h=0.5, eps=1e-5):
    """The affinity exponents (1 - d / q) / h of two [C,H,W] sets, in numpy."""
    av, bv = a.reshape(a.shape[0], -1).T, b.reshape(b.shape[0], -1).T
    mu = bv.mean(axis=0)
    an = (av - mu) / np.sqrt(((av - mu) ** 2).sum(axis=1, keepdims=True) + eps * eps)
    bn = (bv - mu) / np.sqrt(((bv - mu) ** 2).sum(axis=1, keepdims=True) + eps * eps)
    d = 1.0 - an @ bn.T
    return (1.0 - d / (d.min(axis=1, keepdims=True) + eps)) / h


def test_contextual_exponent_floor_binds_and_changes_nothing_visible():
    # a quarter of the first set's positions copy the second set's exactly,
    # so q = eps on their rows and most of their exponents are far below
    # the floor, where exp would otherwise be subnormal or zero
    rng = np.random.default_rng(21)
    c, hgt, wid = TAP_SHAPES[0]
    a = rng.normal(size=(c, hgt * wid))
    b = rng.normal(size=(c, hgt * wid))
    a[:, ::4] = b[:, ::4]
    a, b = a.reshape(c, hgt, wid), b.reshape(c, hgt, wid)
    assert (_exponents(a, b) < -60.0).any()

    fa, fb = _featset(a.astype(np.float32)), _featset(b.astype(np.float32))
    got = contextual_loss(fa, fb)
    assert got.dtype == np.float32
    assert got.item() == pytest.approx(contextual_chain(fa, fb).item(), rel=1e-6)
    want, want_grads = _value_and_grads(contextual_chain, [a], [b])
    got, got_grads = _value_and_grads(contextual_loss, [a], [b])
    assert got == pytest.approx(want, rel=1e-12)
    for g, w in zip(got_grads, want_grads):
        assert np.allclose(g, w, rtol=1e-9, atol=1e-13)


def _tied_rows_sets(rng):
    """Tap-0 sets whose first set repeats row 3 as row 700, in another row
    block."""
    c, hgt, wid = TAP_SHAPES[0]
    a = rng.normal(size=(c, hgt * wid))
    a[:, 700] = a[:, 3]
    return a.reshape(c, hgt, wid), rng.normal(size=(c, hgt, wid))


def _constant_first_set(rng):
    c, hgt, wid = TAP_SHAPES[0]
    a = np.broadcast_to(rng.normal(size=(c, 1, 1)), (c, hgt, wid)).copy()
    return a, rng.normal(size=(c, hgt, wid))


@pytest.mark.parametrize("build", [_tied_rows_sets, _constant_first_set])
def test_contextual_ties_across_row_blocks_keep_the_earliest_row(build):
    # a column max attained by equal rows in two row blocks routes its
    # gradient to the earliest row, as reduce_max's first match does
    a, b = build(np.random.default_rng(22))
    t = _exponents(a, b)
    cx = np.exp(t) / np.exp(t).sum(axis=1, keepdims=True)
    top = cx.max(axis=0)
    assert ((cx[3] == top) & (cx[700] == top)).any()

    want, want_grads = _value_and_grads(contextual_chain, [a], [b])
    got, got_grads = _value_and_grads(contextual_loss, [a], [b])
    assert got == pytest.approx(want, rel=1e-14)
    for g, w in zip(got_grads, want_grads):
        assert np.allclose(g, w, rtol=1e-9, atol=1e-13)


def _column_max_rows(a, b):
    """The rows of the first set that hold a column max of the affinities."""
    w = np.exp(_exponents(a, b))
    return np.unique((w / w.sum(axis=1, keepdims=True)).argmax(axis=0))


def _assert_matches_chain(a, b):
    want, want_grads = _value_and_grads(contextual_chain, [a], [b])
    got, got_grads = _value_and_grads(contextual_loss, [a], [b])
    assert got == pytest.approx(want, rel=1e-14)
    for g, w in zip(got_grads, want_grads):
        assert np.allclose(g, w, rtol=1e-9, atol=1e-12 * np.abs(w).max())
    return got_grads, want_grads


def test_contextual_rows_without_a_column_max_get_exactly_zero_gradient():
    rng = np.random.default_rng(24)
    a = rng.normal(size=TAP_SHAPES[0])
    b = a + rng.normal(scale=2.0, size=a.shape)
    held = _column_max_rows(a, b)
    idle = np.setdiff1d(np.arange(a[0].size), held)
    assert 0 < len(held) < a[0].size
    [ga], [wa] = _assert_matches_chain(a, b)
    ga, wa = ga.reshape(len(a), -1), wa.reshape(len(a), -1)
    assert np.all(ga[:, idle] == 0) and np.all(wa[:, idle] == 0)
    assert np.all(np.any(ga[:, held] != 0, axis=0))


def test_contextual_partial_last_block_and_unequal_set_sizes():
    # 960 positions against 1024: seven and a half row blocks of 128 rows
    rng = np.random.default_rng(25)
    a = rng.normal(size=(16, 24, 40))
    b = rng.normal(size=TAP_SHAPES[0])
    _assert_matches_chain(a, b)


def test_contextual_every_row_holds_a_column_max():
    # each of 320 first-set positions lies near its own second-set position,
    # so the backward gathers all 320 rows in three chunks of 128
    rng = np.random.default_rng(23)
    b = rng.normal(size=(16, 1024))
    a = b[:, :320] + rng.normal(scale=0.3, size=(16, 320))
    a, b = a.reshape(16, 20, 16), b.reshape(TAP_SHAPES[0])
    assert len(_column_max_rows(a, b)) == 320
    _assert_matches_chain(a, b)


def test_contextual_untracked_second_set_gets_no_gradient():
    rng = np.random.default_rng(20)
    fa = _featset(rng.normal(size=(4, 3, 3)), rng.normal(size=(8, 2, 2)))
    fb = _featset(rng.normal(size=(4, 3, 3)), rng.normal(size=(8, 2, 2)))
    with ComputationTape(fa) as tape:
        T.backward(contextual_loss(fa, fb), tape)
    assert all(t.grad is not None and np.all(np.isfinite(t.grad)) for t in fa)
    assert all(t.grad is None for t in fb)


def _bytes_and_entries(fn, params, constants, weight):
    """The loss of ``fn(params, constants)`` (times ``weight`` unless it is None)
    and the parameters' gradients as bytes, and the tape entries ``fn`` records."""
    with ComputationTape(params) as tape:
        loss = fn(params, constants)
        entries = len(tape._entries)
        if weight is not None:
            loss = ops.mul(loss, weight)
        T.backward(loss, tape)
    return [np.asarray(loss.data).tobytes(), *(t.grad.tobytes() for t in params)], entries


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_contextual_one_op_rounds_as_its_per_tap_chain(dtype):
    # the taps' sum and its 1/taps scale in one op: the same bytes as the
    # per-tap ops joined by add and mul, in the loss and every tap's gradient
    rng = np.random.default_rng(32)
    for taps in (1, 2, 3):
        a = [np.maximum(rng.normal(size=s), 0.0) for s in TAP_SHAPES[:taps]]
        b = [np.maximum(x + rng.normal(size=x.shape), 0.0) for x in a]
        for weight in (None, 0.37):
            got, want = ((_bytes_and_entries(fn, [Tensor(x, dtype) for x in a],
                                             [Tensor(x, dtype) for x in b], weight))
                         for fn in (contextual_loss, ops.contextual_tap_chain))
            assert got[0] == want[0]
            assert (got[1], want[1]) == (1, 2 * taps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weighted_sum_rounds_as_its_mul_add_chain(dtype):
    # weights of the term's element type, summed in order with no 0 in front:
    # the same bytes as mul by each weight and add, in the sum and each gradient
    rng = np.random.default_rng(33)
    for count in (1, 2, 3, 5):
        values = rng.uniform(0.0, 4.0, size=count)
        weights = [float(w) for w in rng.choice([1.0, 0.5, 0.1, 1e-3, 2.7], size=count)]
        for weight in (None, 0.37):
            got, want = (_bytes_and_entries(lambda ts, _: fn(ts, weights),
                                            [Tensor(np.asarray(v), dtype) for v in values],
                                            None, weight)
                         for fn in (weighted_sum, ops.weighted_sum_chain))
            assert got[0] == want[0]
            assert (got[1], want[1]) == (1, 2 * count - 1)


def test_weighted_sum_refuses_mixed_element_types():
    with pytest.raises(T.AutodiffError, match="weighted_sum: element types differ"):
        weighted_sum([Tensor(np.ones(()), np.float32), Tensor(np.ones(()))], [1.0, 1.0])


# -- triplet ----------------------------------------------------------------------


def _scalar_set(value):
    return _featset(np.array([[[value]]]))


def _joined(anchor, positive, negative):
    """One feature set of the three sets' taps side by side, as the selector feeds it."""
    return [T.concat_width(parts) for parts in zip(anchor, positive, negative)]


def triplet_chain(anchor, positive, negative, margin):
    """The triplet loss composed from generic tape ops over three feature sets:
    the reference for its one-op form."""
    d_ap = d_an = None
    for a, p, n in zip(anchor, positive, negative):
        tap_ap = ops.tmean(ops.power(ops.sub(a, p), 2))
        tap_an = ops.tmean(ops.power(ops.sub(a, n), 2))
        d_ap = tap_ap if d_ap is None else ops.add(d_ap, tap_ap)
        d_an = tap_an if d_an is None else ops.add(d_an, tap_an)
    return T.relu(ops.add(ops.sub(d_ap, d_an), margin))


def test_triplet_degenerate_equals_margin():
    f = _scalar_set(0.3)
    assert triplet_loss(_joined(f, f, f), margin=1.0).item() == pytest.approx(1.0)


def test_triplet_satisfied_margin_zero():
    a = _scalar_set(0.0)
    p = _scalar_set(np.sqrt(0.2))
    n = _scalar_set(np.sqrt(1.5))
    assert triplet_loss(_joined(a, p, n), margin=1.0).item() == pytest.approx(0.0, abs=1e-7)


def test_triplet_violated_margin():
    a = _scalar_set(0.0)
    p = _scalar_set(np.sqrt(0.5))
    n = _scalar_set(np.sqrt(0.3))
    assert triplet_loss(_joined(a, p, n), margin=1.0).item() == pytest.approx(1.2, rel=1e-5)


def test_triplet_zero_when_negative_far():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.normal(size=(2, 2, 2))
        p = a + rng.normal(scale=0.01, size=a.shape)
        n = a + 10.0 + rng.normal(size=a.shape)
        loss = triplet_loss(_joined(_featset(a), _featset(p), _featset(n)), margin=1.0)
        assert loss.item() == 0.0


def test_triplet_gradient_active_hinge():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 3, 3))
    p = a + rng.normal(scale=2.0, size=a.shape)
    n = a + rng.normal(scale=0.05, size=a.shape)

    def build(ts):
        return triplet_loss(_joined([ts[0]], [ts[1]], [ts[2]]), margin=1.0)

    check_gradients(build, [a, p, n], rng, n_points=20, rtol=1e-6)


@pytest.mark.parametrize("active", [True, False])
def test_triplet_matches_composed_chain_for_every_role(active):
    # float64 taps at the extractor's shapes; the hinge is active when the
    # negative is near the anchor and the positive far, inactive the other way
    rng = np.random.default_rng(29 + active)
    near, far = (0.1, 3.0) if active else (3.0, 0.1)
    anchor = [rng.normal(size=s) for s in TAP_SHAPES]
    positive = [a + rng.normal(scale=far, size=a.shape) for a in anchor]
    negative = [a + rng.normal(scale=near, size=a.shape) for a in anchor]
    sets = [_featset(*arrays) for arrays in (anchor, positive, negative)]
    with ComputationTape([t for fs in sets for t in fs]) as tape:
        loss = ops.mul(triplet_loss(_joined(*sets), margin=1.0), 0.7)
        T.backward(loss, tape)
    chain_sets = [_featset(*arrays) for arrays in (anchor, positive, negative)]
    with ComputationTape([t for fs in chain_sets for t in fs]) as tape:
        want = ops.mul(triplet_chain(*chain_sets, 1.0), 0.7)
        T.backward(want, tape)
    assert (want.item() > 0) == active
    assert loss.item() == pytest.approx(want.item(), rel=1e-12, abs=1e-300)
    for fs, chain in zip(sets, chain_sets):
        for t, c in zip(fs, chain):
            np.testing.assert_allclose(t.grad, c.grad, rtol=1e-12, atol=0)
            assert np.any(t.grad) == active


def test_triplet_refuses_a_tap_that_is_not_three_crops_wide():
    with pytest.raises(LossError, match="tap 0 width 4 is not three crops wide"):
        triplet_loss(_featset(np.zeros((2, 2, 4))), margin=1.0)


# -- color / texture / pixel ---------------------------------------------------------


def _img_tensor(seed, size=16):
    return Tensor(np.random.default_rng(seed).uniform(size=(3, size, size)))


def test_color_identity_zero():
    a = _img_tensor(7)
    assert color_loss(a, a).item() == pytest.approx(0.0, abs=1e-12)


def test_color_constant_offset():
    a = Tensor(np.full((3, 16, 16), 0.2))
    b = Tensor(np.full((3, 16, 16), 0.4))
    assert color_loss(a, b).item() == pytest.approx(0.04, rel=1e-6)


def test_color_ignores_shared_high_frequency():
    rng = np.random.default_rng(8)
    a = rng.uniform(0.2, 0.8, size=(3, 32, 32))
    b = rng.uniform(0.2, 0.8, size=(3, 32, 32))
    checker = 0.05 * ((np.indices((32, 32)).sum(axis=0) % 2) * 2 - 1)
    base = color_loss(Tensor(a), Tensor(b), sigma=3.0).item()
    shifted = color_loss(Tensor(a + checker), Tensor(b + checker), sigma=3.0).item()
    assert shifted == pytest.approx(base, abs=1e-4)


# each loss as one op and as the chain of generic ops it fuses
_FUSED = {
    "color": (color_loss, ops.color_chain),
    "color_narrow": (lambda a, b: color_loss(a, b, 0.8), lambda a, b: ops.color_chain(a, b, 0.8)),
    "texture": (texture_loss, ops.texture_chain),
    "pixel": (pixel_loss, ops.pixel_chain),
}


def _bytes_of_loss_and_grads(fn, a, b, dtype, track_b, weight):
    """The loss and the gradients of both images as bytes (``b``'s is None when
    only ``a`` is tracked), and the tape entries the loss records."""
    ta, tb = Tensor(a, dtype), Tensor(b, dtype)
    with ComputationTape([ta, tb] if track_b else [ta]) as tape:
        loss = fn(ta, tb)
        entries = len(tape._entries)
        if weight is not None:
            loss = ops.mul(loss, weight)
        T.backward(loss, tape)
    grads = [t.grad.tobytes() if t.grad is not None else None for t in (ta, tb)]
    return [np.asarray(loss.data).tobytes(), *grads], entries


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", _FUSED)
def test_image_losses_match_their_chains_bytewise(name, dtype):
    # one tape entry, rounding as the chain does in the loss and both gradients,
    # with and without a loss weight; every fifth pair agrees on alternate rows,
    # so some differences are 0
    fused, chain = _FUSED[name]
    rng = np.random.default_rng(30)
    for trial in range(50):
        shape = (3, int(rng.integers(2, 20)), int(rng.integers(2, 20)))
        a, b = rng.uniform(size=shape), rng.uniform(size=shape)
        if trial % 5 == 0:
            b[:, ::2] = a[:, ::2]
        for track_b in (False, True):
            for weight in (None, 0.37):
                got, entries = _bytes_of_loss_and_grads(fused, a, b, dtype, track_b, weight)
                want, _ = _bytes_of_loss_and_grads(chain, a, b, dtype, track_b, weight)
                assert entries == 1 and got == want and (got[2] is None) != track_b


@pytest.mark.parametrize("fn", [color_loss, texture_loss, pixel_loss])
def test_image_losses_refuse_a_shape_mismatch(fn):
    with pytest.raises(LossError, match=f"{fn.__name__} shape mismatch"):
        fn(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((3, 4, 5))))


def test_texture_loss_refuses_images_without_three_channels():
    # its gradient is one per channel of GRAY_WEIGHTS
    with pytest.raises(LossError, match=r"texture_loss expects \[3,H,W\] images"):
        texture_loss(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 4, 4))))


def test_blur_tensor_matches_image_blur():
    from dpl.image import Image, gaussian_blur

    rng = np.random.default_rng(9)
    arr = rng.uniform(size=(12, 12, 3))
    want = gaussian_blur(Image.from_array(arr), 1.7).pixels.transpose(2, 0, 1)
    got = ops.blur_tensor(Tensor(arr.transpose(2, 0, 1)), 1.7).data
    assert np.allclose(got, want, atol=1e-9)


def test_blur_tensor_gradient():
    rng = np.random.default_rng(12)
    for shape, sigma in (((3, 6, 9), 1.2), ((2, 5, 4), 2.5)):  # radius above the extent
        check_gradients(lambda ts: ops.tsum(ops.power(ops.blur_tensor(ts[0], sigma), 2)),
                        [rng.normal(size=shape)], rng, n_points=20)


def test_blur_tensor_keeps_float32():
    x = Tensor(np.random.default_rng(13).uniform(size=(3, 8, 8)), dtype=np.float32)
    with ComputationTape([x]) as tape:
        out = ops.blur_tensor(x, 2.0)
        T.backward(ops.tsum(ops.mul(out, out)), tape)
    assert out.dtype == np.float32 and x.grad.dtype == np.float32


def test_texture_identity_zero():
    a = _img_tensor(10)
    assert texture_loss(a, a).item() == pytest.approx(0.0, abs=1e-12)


def test_texture_blind_to_color():
    # pure red vs a color with identical BT.601 luma
    a = np.zeros((3, 8, 8))
    a[0] = 1.0
    b = np.zeros((3, 8, 8))
    b[1] = 0.299 / 0.587  # green level matching red luma
    assert texture_loss(Tensor(a), Tensor(b)).item() == pytest.approx(0.0, abs=1e-10)


def test_texture_symmetric():
    a, b = _img_tensor(11), _img_tensor(12)
    assert texture_loss(a, b).item() == pytest.approx(texture_loss(b, a).item(), rel=1e-9)


def test_pixel_identity_zero():
    a = _img_tensor(13)
    assert pixel_loss(a, a).item() == pytest.approx(0.0, abs=1e-12)


def test_pixel_arithmetic():
    a = Tensor(np.array([0.0, 1.0]))
    b = Tensor(np.array([1.0, 1.0]))
    assert pixel_loss(a, b).item() == pytest.approx(0.5)


def test_pixel_l1_gradient():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(3, 5, 5))
    b = a + rng.choice([-1.0, 1.0], size=a.shape) * rng.uniform(0.1, 1.0, size=a.shape)
    check_gradients(lambda ts: pixel_loss(ts[0], ts[1]), [a, b], rng,
                    n_points=20, rtol=1e-6)


# -- shared properties -----------------------------------------------------------------


def test_all_losses_non_negative_1000_trials():
    rng = np.random.default_rng(15)
    for trial in range(1000):
        shape = (3, 4, 4)
        a = Tensor(rng.normal(size=shape))
        b = Tensor(rng.normal(size=shape))
        c = Tensor(rng.normal(size=shape))
        assert perceptual_loss([a], [b]).item() >= 0.0
        assert triplet_loss(_joined([a], [b], [c]), margin=1.0).item() >= 0.0
        assert pixel_loss(a, b).item() >= 0.0
        if trial % 20 == 0:  # blur/contextual are heavier; sample them
            assert color_loss(a, b).item() >= 0.0
            assert texture_loss(a, b).item() >= 0.0
            assert contextual_loss([a], [b]).item() >= -1e-9


def test_symmetric_losses_are_symmetric():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = Tensor(rng.uniform(size=(3, 8, 8)))
        b = Tensor(rng.uniform(size=(3, 8, 8)))
        for fn in (pixel_loss, color_loss, texture_loss):
            assert fn(a, b).item() == pytest.approx(fn(b, a).item(), rel=1e-9)
