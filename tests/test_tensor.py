import numpy as np
import pytest

import tape_ops as ops
from conftest import check_gradients
from dpl import tensor as T
from dpl.losses import color_loss, pixel_loss, texture_loss
from dpl.optim import Adam
from dpl.tensor import AutodiffError, ComputationTape, Tensor


def test_elementwise_add():
    out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.allclose(out.data, [4.0, 6.0])


def test_elementwise_scalar_broadcast():
    out = ops.mul(Tensor([2.0, 3.0]), 0.0)
    assert np.allclose(out.data, [0.0, 0.0])


def test_elementwise_shape_mismatch_names_shapes():
    with pytest.raises(AutodiffError, match=r"\(2,\).*\(3,\)"):
        T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("shapes", [((2, 2), (2, 1)), ((2, 2), ()), ((3,), (2, 3))])
def test_add_refuses_shapes_numpy_would_broadcast(shapes):
    # the library's add serves F's skip, whose operands have one shape
    a, b = (Tensor(np.ones(s)) for s in shapes)
    with pytest.raises(AutodiffError, match="add: shape mismatch"):
        T.add(a, b)


def test_tensor_keeps_the_element_type_of_float_data():
    assert Tensor(np.zeros(2)).dtype == np.float64
    assert Tensor(np.zeros(2, np.float32)).dtype == np.float32
    assert Tensor([1, 2]).dtype == np.float32
    assert Tensor(np.zeros(2), np.float32).dtype == np.float32


# each op that takes two or more tensors, and the shapes of its operands
_OPERANDS = {
    "add": (T.add, [(2, 2), (2, 2)]),
    "sub": (ops.sub, [(2, 2), (2, 2)]),
    "mul": (ops.mul, [(2, 2), (2, 2)]),
    "div": (ops.div, [(2, 2), (2, 2)]),
    "matmul": (ops.matmul, [(2, 2), (2, 2)]),
    "conv2d": (T.conv2d, [(1, 3, 3), (1, 1, 1, 1), (1,)]),
    "upsample_conv3x3": (T.upsample_conv3x3, [(1, 2, 2), (1, 1, 3, 3), (1,)]),
    "color_loss": (color_loss, [(3, 4, 4), (3, 4, 4)]),
    "texture_loss": (texture_loss, [(3, 4, 4), (3, 4, 4)]),
    "pixel_loss": (pixel_loss, [(3, 4, 4), (3, 4, 4)]),
}


@pytest.mark.parametrize("name", _OPERANDS)
def test_two_operand_ops_refuse_mixed_element_types(name):
    # numpy would promote the float32 operands to float64 without a word;
    # the tests' sub, div and matmul check their operands with the library's checks
    op, shapes = _OPERANDS[name]
    for wide in range(len(shapes)):
        operands = [Tensor(np.ones(s), np.float64 if i == wide else np.float32)
                    for i, s in enumerate(shapes)]
        pair = "float64 vs float32" if wide == 0 else "float32 vs float64"
        with pytest.raises(AutodiffError, match=f"{name}: element types differ: {pair}"):
            op(*operands)


def test_sub_self_zero_gradient():
    x = Tensor([1.0, -2.0, 3.0])
    with ComputationTape([x]) as tape:
        loss = ops.tsum(ops.sub(x, x))
        assert np.allclose(loss.data, 0.0)
        T.backward(loss, tape)
    assert np.allclose(x.grad, 0.0)


def test_backward_sum_gives_ones():
    x = Tensor([5.0, 6.0, 7.0])
    with ComputationTape([x]) as tape:
        T.backward(ops.tsum(x), tape)
    assert np.allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_accumulates_on_repeat():
    x = Tensor([1.0, 2.0])
    with ComputationTape([x]) as tape:
        loss = ops.tsum(ops.mul(x, x))
        T.backward(loss, tape)
        first = x.grad.copy()
        T.backward(loss, tape)
    assert np.allclose(x.grad, 2 * first)


def test_backward_k_times_scales_linearly():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 4)))
    with ComputationTape([x]) as tape:
        loss = ops.tmean(T.relu(ops.add(ops.mul(x, 2.0), -0.5)))
        T.backward(loss, tape)
        once = x.grad.copy()
        for _ in range(4):
            T.backward(loss, tape)
    assert np.array_equal(x.grad, 5 * once)


def test_backward_requires_rank0():
    x = Tensor([1.0, 2.0])
    with ComputationTape([x]) as tape:
        y = ops.mul(x, 2.0)
        with pytest.raises(AutodiffError, match="rank-0"):
            T.backward(y, tape)


def test_backward_loss_not_on_tape():
    x = Tensor([1.0])
    with ComputationTape([x]):
        loss = ops.tsum(x)
    with ComputationTape([x]) as tape2:
        with pytest.raises(AutodiffError, match="not produced under this tape"):
            T.backward(loss, tape2)


def test_leaf_outside_the_parameter_list_is_a_constant():
    p, c = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    with ComputationTape([p]) as tape:
        frozen = ops.mul(c, c)  # depends on no parameter: not recorded
        loss = ops.tsum(ops.mul(p, frozen))
        T.backward(loss, tape)
    assert tape.tracks(p) and tape.tracks(loss)
    assert not tape.tracks(c) and not tape.tracks(frozen)
    assert c.grad is None
    assert np.allclose(p.grad, [9.0, 16.0])


def test_zero_grads_and_rerun_matches_fresh():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(3, 3))
    x = Tensor(data)
    with ComputationTape([x]) as tape:
        loss = ops.tsum(ops.mul(ops.mul(x, x), x))
        T.backward(loss, tape)
        fresh = x.grad.copy()
        x.zero_grad()
        assert np.all(x.grad == 0.0)
        x.zero_grad()  # idempotent
        assert np.all(x.grad == 0.0)
        T.backward(loss, tape)
    assert np.array_equal(x.grad, fresh)


# -- relu ----------------------------------------------------------------------


def test_relu_values():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.allclose(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative_zero_grad():
    x = Tensor([-1.0, -5.0])
    with ComputationTape([x]) as tape:
        T.backward(ops.tsum(T.relu(x)), tape)
    assert np.allclose(x.grad, 0.0)


def test_relu_gradient_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 5))
    x[np.abs(x) < 0.1] += 0.5  # stay away from the kink
    check_gradients(lambda ts: ops.tmean(T.relu(ts[0])), [x], rng, rtol=1e-6)


# -- conv2d ---------------------------------------------------------------------


def naive_conv2d(x, w, b, stride=1, padding=0):
    c, h, wd = x.shape
    o, i, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((o, ho, wo))
    for oc in range(o):
        for y in range(ho):
            for xx in range(wo):
                acc = 0.0
                for ic in range(i):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += xp[ic, y * stride + a, xx * stride + bb] * w[oc, ic, a, bb]
                out[oc, y, xx] = acc + b[oc]
    return out


def test_conv2d_all_ones_sums():
    out = T.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))),
                   Tensor(np.zeros(1)))
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(9.0)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(1, 4, 4))
    out = T.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)))
    assert np.allclose(out.data, x, atol=1e-6)


def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    want = naive_conv2d(x, w, b)
    assert np.allclose(got, want, rtol=1e-6)


@pytest.mark.parametrize("trial", range(10))
def test_conv2d_random_shapes_vs_oracle(trial):
    rng = np.random.default_rng(1000 + trial)
    c = int(rng.integers(1, 4))
    o = int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    h = int(rng.integers(k, k + 5))
    w = int(rng.integers(k, k + 5))
    x = rng.normal(size=(c, h, w))
    wt = rng.normal(size=(o, c, k, k))
    b = rng.normal(size=o)
    got = T.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride, padding).data
    assert np.allclose(got, naive_conv2d(x, wt, b, stride, padding), rtol=1e-6, atol=1e-9)


def test_conv2d_channel_mismatch():
    with pytest.raises(AutodiffError, match="channel mismatch"):
        T.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))),
                 Tensor(np.zeros(1)))


def test_conv2d_empty_output():
    with pytest.raises(AutodiffError, match="empty output"):
        T.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))),
                 Tensor(np.zeros(1)))


def test_conv2d_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)

    def build(ts):
        return ops.tmean(ops.power(T.conv2d(ts[0], ts[1], ts[2], stride=2, padding=1), 2))

    check_gradients(build, [x, w, b], rng, n_points=30, rtol=1e-5)


def naive_conv2d_grads(x, w, g, stride, padding):
    """Gradients of sum(conv2d(x, w, b) * g) by a loop over output positions."""
    _, kh, kw = w.shape[1:]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for y in range(g.shape[1]):
        for xx in range(g.shape[2]):
            rows = slice(y * stride, y * stride + kh)
            cols = slice(xx * stride, xx * stride + kw)
            dw += g[:, y, xx, None, None, None] * xp[None, :, rows, cols]
            dxp[:, rows, cols] += np.tensordot(g[:, y, xx], w, axes=1)
    h, wd = x.shape[1:]
    return dxp[:, padding : padding + h, padding : padding + wd], dw, g.sum(axis=(1, 2))


# stride 3, and extents such as (8, 5) at kernel 3, stride 2, padding 0, leave
# trailing input rows or columns that no output window reads; at kernel 3,
# stride 2, padding 1, the even extents (6, 6) and (6, 10) take the phase form
# of the input gradient
@pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (5, 1), (1, 5)])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("extent", [(6, 6), (7, 9), (8, 5), (6, 10)])
def test_conv2d_gradients_match_loop_oracle(kernel, stride, padding, extent):
    rng = np.random.default_rng([*kernel, stride, padding, *extent])
    x = rng.normal(size=(2, *extent))
    w = rng.normal(size=(3, 2, *kernel))
    b = rng.normal(size=3)
    xt, wt, bt = (Tensor(a) for a in (x, w, b))
    with ComputationTape([xt, wt, bt]) as tape:
        out = T.conv2d(xt, wt, bt, stride, padding)
        g = rng.normal(size=out.shape)
        T.backward(ops.tsum(ops.mul(out, g)), tape)
    assert np.allclose(out.data, naive_conv2d(x, w, b, stride, padding), rtol=1e-12, atol=1e-12)
    dx, dw, db = naive_conv2d_grads(x, w, g, stride, padding)
    assert np.allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
    assert np.allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)
    assert np.allclose(bt.grad, db, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_non_contiguous_input_matches_loop_oracle(stride, padding):
    # the input is a transposed view, as the [3,H,W] tensor of an image is
    rng = np.random.default_rng([stride, padding, 71])
    for k in (3, 1):
        x = rng.normal(size=(2, 7, 6))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        xt, wt, bt = (Tensor(a) for a in (x, w, b))
        with ComputationTape([xt, wt, bt]) as tape:
            xv = ops.transpose(xt, (0, 2, 1))
            assert not xv.data.flags.c_contiguous
            out = T.conv2d(xv, wt, bt, stride, padding)
            g = rng.normal(size=out.shape)
            T.backward(ops.tsum(ops.mul(out, g)), tape)
        xs = x.transpose(0, 2, 1)
        assert np.allclose(out.data, naive_conv2d(xs, w, b, stride, padding),
                           rtol=1e-12, atol=1e-12)
        dx, dw, db = naive_conv2d_grads(xs, w, g, stride, padding)
        assert np.allclose(xt.grad, dx.transpose(0, 2, 1), rtol=1e-12, atol=1e-12)
        assert np.allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)
        assert np.allclose(bt.grad, db, rtol=1e-12, atol=1e-12)


def test_conv2d_untracked_weight_and_bias_get_no_gradient():
    rng = np.random.default_rng(70)
    x, w, b = rng.normal(size=(2, 5, 5)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    with ComputationTape([xt]) as tape:
        out = T.conv2d(xt, wt, bt, 1, 1)
        g = rng.normal(size=out.shape)
        T.backward(ops.tsum(ops.mul(out, g)), tape)
    assert wt.grad is None and bt.grad is None
    assert np.allclose(xt.grad, naive_conv2d_grads(x, w, g, 1, 1)[0], rtol=1e-12, atol=1e-12)


# -- pooling / upsampling -------------------------------------------------------


def test_max_pool2_basic():
    out = T.max_pool2(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
    assert out.data[0, 0, 0] == pytest.approx(4.0)


def test_max_pool2_constant():
    out = T.max_pool2(Tensor(np.full((2, 4, 4), 0.7)))
    assert out.shape == (2, 2, 2)
    assert np.allclose(out.data, 0.7)


def test_max_pool2_odd_extent_errors():
    with pytest.raises(AutodiffError, match="even"):
        T.max_pool2(Tensor(np.zeros((1, 3, 4))))


def test_max_pool2_tie_routes_to_first_index():
    x = Tensor([[[2.0, 2.0], [2.0, 2.0]]])
    with ComputationTape([x]) as tape:
        T.backward(ops.tsum(T.max_pool2(x)), tape)
    assert np.allclose(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])


def test_max_pool2_tie_routes_weighted_gradient_to_first_index():
    # windows: all tied; tie on the bottom row; tie on the right column; unique
    x = Tensor([[[2.0, 2.0, 1.0, 3.0],
                 [2.0, 2.0, 0.0, 3.0],
                 [0.0, 1.0, 5.0, 4.0],
                 [4.0, 4.0, 1.0, 2.0]]])
    w = np.array([[[1.5, -2.0], [0.25, 3.0]]])
    with ComputationTape([x]) as tape:
        T.backward(ops.tsum(ops.mul(T.max_pool2(x), w)), tape)
    assert np.array_equal(x.grad, [[[1.5, 0.0, 0.0, -2.0],
                                    [0.0, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 3.0, 0.0],
                                    [0.25, 0.0, 0.0, 0.0]]])


def _pool_rule_output(pool, x: np.ndarray, g: np.ndarray):
    """The pooled data and what the op's recorded rule returns for ``g``,
    called directly: a gradient buffer would add it into zeros, which turns
    every -0.0 into +0.0 and so hides one."""
    xt = Tensor(x, g.dtype)
    with ComputationTape([xt]) as tape:
        out = pool(xt)
    (_, rule), = tape._entries
    (parent, dx), = rule(g)
    assert parent is xt
    return out.data, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool2_backward_is_bytewise_the_copyto_rule(dtype):
    # ReLU zeros tie whole windows, pairs tie along rows and along columns,
    # and g has negative entries and zeros
    rng = np.random.default_rng(9)
    x = np.maximum(rng.normal(size=(8, 12, 16)), 0.0)
    x[:, ::2, 1::2][:, ::3] = x[:, ::2, ::2][:, ::3]
    x[:, 1::2][:, ::4] = x[:, ::2][:, ::4]
    g = rng.normal(size=(8, 6, 8)).astype(dtype)
    g[:, ::5] = 0.0
    out, dx = _pool_rule_output(T.max_pool2, x, g)
    want_out, want_dx = _pool_rule_output(ops.max_pool2_copyto, x, g)
    assert out.tobytes() == want_out.tobytes()
    assert dx.dtype == dtype and dx.shape == x.shape
    assert dx.tobytes() == want_dx.tobytes()
    # the one difference: a -0.0 in g reaches its window's winner as +0.0
    g[:, 1::5] = -0.0
    dx = _pool_rule_output(T.max_pool2, x, g)[1]
    want_dx = _pool_rule_output(ops.max_pool2_copyto, x, g)[1]
    assert np.array_equal(dx, want_dx) and not np.signbit(dx[dx == 0]).any()
    assert np.signbit(want_dx[want_dx == 0]).any()


def test_max_pool2_gradient():
    rng = np.random.default_rng(6)
    # unique window maxima with clear margins
    x = rng.permutation(64).astype(float).reshape(1, 8, 8)
    check_gradients(lambda ts: ops.tmean(ops.power(T.max_pool2(ts[0]), 2)), [x], rng,
                    n_points=20, rtol=1e-6)


def test_upsample_replicates():
    out = ops.upsample_nearest2(Tensor(np.full((1, 1, 1), 5.0)))
    assert out.shape == (1, 2, 2)
    assert np.allclose(out.data, 5.0)


def test_upsample_then_mean_downsample_is_identity():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(3, 4, 4))
    up = ops.upsample_nearest2(Tensor(x)).data
    down = up.reshape(3, 4, 2, 4, 2).mean(axis=(2, 4))
    assert np.allclose(down, x, atol=1e-6)


def test_upsample_gradient():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 3))
    check_gradients(lambda ts: ops.tmean(ops.power(ops.upsample_nearest2(ts[0]), 2)), [x], rng,
                    n_points=15, rtol=1e-6)


# square, non-square, odd and 1x1 extents of the low-resolution input
@pytest.mark.parametrize("extent", [(4, 4), (2, 6), (3, 5), (1, 1)])
def test_upsample_conv3x3_matches_loop_oracle(extent):
    # conv2d(upsample_nearest2(x), padding=1) by loops over output positions;
    # x's gradient is the upsampled input's, summed over each 2x2 block
    rng = np.random.default_rng([*extent, 72])
    x = rng.normal(size=(2, *extent))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    xt, wt, bt = (Tensor(a) for a in (x, w, b))
    with ComputationTape([xt, wt, bt]) as tape:
        out = T.upsample_conv3x3(xt, wt, bt)
        g = rng.normal(size=out.shape)
        T.backward(ops.tsum(ops.mul(out, g)), tape)
    up = x.repeat(2, axis=1).repeat(2, axis=2)
    assert np.allclose(out.data, naive_conv2d(up, w, b, 1, 1), rtol=1e-12, atol=1e-12)
    dup, dw, db = naive_conv2d_grads(up, w, g, 1, 1)
    dx = dup.reshape(2, extent[0], 2, extent[1], 2).sum(axis=(2, 4))
    assert np.allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
    assert np.allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)
    assert np.allclose(bt.grad, db, rtol=1e-12, atol=1e-12)


def test_upsample_conv3x3_refuses_other_kernels():
    with pytest.raises(AutodiffError, match="upsample_conv3x3 expects"):
        T.upsample_conv3x3(Tensor(np.ones((2, 3, 3))), Tensor(np.ones((1, 2, 1, 1))),
                           Tensor(np.zeros(1)))


def test_reduce_extremes_gradient():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 5))

    def build(ts):
        return ops.sub(ops.tsum(ops.reduce_max(ts[0], axis=1)),
                       ops.tsum(ops.reduce_min(ts[0], axis=0)))

    check_gradients(build, [x], rng, n_points=15, rtol=1e-6)


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("is_max", [True, False])
def test_reduce_extreme_ties_route_weighted_gradient_to_first_index(is_max, axis, keepdims):
    x = np.array([[1.0, 3.0, 3.0, 0.0],
                  [2.0, 2.0, 2.0, 2.0],
                  [3.0, 0.0, 3.0, 0.0]])
    if axis == 0:
        x = np.ascontiguousarray(x.T)
    if not is_max:
        x = -x
    # row r's extremes sit at the same indices in every case: its first one is
    # at column first[r] along the reduced axis
    first = [1, 0, 0]
    w = np.array([1.5, -2.0, 0.25])
    xt = Tensor(x)
    reduce = ops.reduce_max if is_max else ops.reduce_min
    with ComputationTape([xt]) as tape:
        out = reduce(xt, axis=axis, keepdims=keepdims)
        T.backward(ops.tsum(ops.mul(out, w.reshape(out.shape))), tape)
    want = np.zeros((3, 4))
    want[np.arange(3), first] = w
    assert np.array_equal(xt.grad, want if axis == 1 else want.T)


def test_one_tensor_feeding_two_reductions_accumulates():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 4))
    w0, w1 = rng.normal(size=4), rng.normal(size=(3, 1))
    xt = Tensor(x)
    with ComputationTape([xt]) as tape:
        y = ops.mul(xt, 2.0)  # recorded, so its gradient is a flow of two broadcast views
        loss = ops.tsum(ops.mul(ops.tsum(y, axis=0), w0))
        for term in (ops.tsum(ops.mul(ops.tmean(y, axis=1, keepdims=True), w1)),
                     ops.tsum(y), ops.tmean(xt), ops.tsum(ops.tsum(xt, axis=1))):
            loss = ops.add(loss, term)
        T.backward(loss, tape)
    want = 2.0 * (w0[None, :] + w1 / 4.0 + 1.0) + 1.0 / 12.0 + 1.0
    assert np.allclose(xt.grad, want, rtol=1e-12, atol=1e-12)
    # a second backward accumulates the same amount again
    T.backward(loss, tape)
    assert np.allclose(xt.grad, 2.0 * want, rtol=1e-12, atol=1e-12)


def test_matmul_and_transpose_gradient():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(5, 4))

    def build(ts):
        return ops.tmean(ops.power(ops.matmul(ts[0], ops.transpose(ts[1])), 2))

    check_gradients(build, [a, b], rng, n_points=20, rtol=1e-6)


def test_determinism_bit_identical():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 8, 8)).astype(np.float32)
    w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    runs = []
    for _ in range(2):
        xt, wt = Tensor(x), Tensor(w)
        with ComputationTape([xt, wt]) as tape:
            out = T.relu(T.conv2d(xt, wt, Tensor(b), padding=1))
            T.backward(ops.tmean(out), tape)
        runs.append((out.data.copy(), xt.grad.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_network_stack_gradients_bit_identical():
    from dpl.networks import FeatureNetPsi, GeneratorF, SelectionPhi
    from dpl.rng import Rng

    x = np.random.default_rng(13).uniform(size=(3, 32, 32))
    runs = []
    for _ in range(2):
        rng = Rng(14)
        f, psi, phi = GeneratorF(rng.child(1)), FeatureNetPsi(rng.child(2)), SelectionPhi(rng.child(3))
        # a non-zero head so that the gradient reaches every layer of F
        f.dec2.weight.data = np.full_like(f.dec2.weight.data, 0.01)
        with ComputationTape(f.params() + psi.params() + phi.params()) as tape:
            taps = phi(psi(f(Tensor(x, np.float32))))
            loss = ops.tmean(taps[0])
            for tap in taps[1:]:
                loss = ops.add(loss, ops.tmean(ops.mul(tap, tap)))
            T.backward(loss, tape)
        # every parameter but psi's classification head, which no tap uses
        params = f.params() + psi.params()[:-2] + phi.params()
        assert all(p.dtype == np.float32 and p.grad is not None for p in params)
        runs.append([p.grad.copy() for p in params])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))
    assert all(np.any(g != 0) for g in runs[0])


# -- Adam -----------------------------------------------------------------------


def test_adam_first_step_bias_corrected():
    p = Tensor([0.0])
    p.grad = np.ones(1, dtype=p.dtype)
    opt = Adam([p], lr=1e-4)
    opt.step()
    assert p.data[0] == pytest.approx(-1e-4, rel=1e-6)
    assert opt.t == 1
    assert np.allclose(p.grad, 1.0)  # grad untouched


def test_adam_zero_grad_is_noop():
    # a zero gradient and a missing one (filled with zeros) leave the value as is
    p, q = Tensor([1.5, -2.0]), Tensor([0.5])
    p.grad = np.zeros(2, dtype=p.dtype)
    before = [p.data.copy(), q.data.copy()]
    opt = Adam([p, q], lr=0.1)
    for _ in range(5):
        opt.step()
    assert np.array_equal(p.data, before[0]) and np.array_equal(q.data, before[1])
    assert np.array_equal(q.grad, [0.0])


def test_adam_descends_quadratic():
    w = Tensor([1.0])
    opt = Adam([w], lr=0.05)
    values = []
    for _ in range(10):
        with ComputationTape(opt.params) as tape:
            loss = ops.tsum(ops.mul(w, w))
            values.append(loss.item())
            T.backward(loss, tape)
        opt.step()
        opt.zero_grad()
    values.append(ops.tsum(ops.mul(w, w)).item())
    assert all(b < a for a, b in zip(values, values[1:]))
