"""Tape ops that only the tests use, each recording its backward rule on the
active tape through ``tensor._make``, as the library's ops do:

- the generic arithmetic and reductions (``add``, ``sub``, ``mul``,
  ``div``, ``neg``, ``power``, ``sqrt``, ``exp``, ``log``, ``absolute``,
  ``tsum``, ``tmean``, ``reduce_max``, ``reduce_min``) and ``constant``,
  which the gradient checks compose; the binary ones broadcast as numpy
  does, where the library's ``add`` takes equal shapes only;
- the transposed view that feeds conv2d a non-contiguous input, and the
  nearest 2x upsampling that ``tensor.upsample_conv3x3`` fuses with its
  convolution;
- the chains that the library's fused ops replace, as their oracles: the
  contextual loss's affinity steps (``test_losses.contextual_chain``), its
  taps joined by ``add`` and ``mul`` (``contextual_tap_chain``), the
  generator's weighted sum of loss terms (``weighted_sum_chain``), ψ's
  pooled head and cross-entropy (``cross_entropy_chain``, fused by
  ``networks.cross_entropy``), the color, texture and pixel losses
  (``color_chain``, ``texture_chain``, ``pixel_chain``), and
  ``max_pool2_copyto``, the pooling rule ``tensor.max_pool2``'s winner masks
  replace.
"""

import numpy as np

from dpl import tensor as T
from dpl.image import GRAY_WEIGHTS, gaussian_kernel1d, separable_filter, separable_filter_adjoint
from dpl.losses import _contextual_tap


def constant(value, dtype=None) -> T.Tensor:
    """A tensor no tape tracks, wrapping ``value``."""
    return T._as_tensor(value, dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(grad.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _operands(a, b, op: str) -> tuple[T.Tensor, T.Tensor]:
    """``a`` and ``b`` as tensors, ``b`` in ``a``'s element type when it is
    not one; refused unless their element types agree and shapes broadcast."""
    a, b = T._as_tensor(a), T._as_tensor(b, a.dtype)
    T._check_dtypes(op, a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise T.AutodiffError(
            f"{op}: shape mismatch beyond broadcast: {a.shape} vs {b.shape}"
        ) from None
    return a, b


def add(a, b) -> T.Tensor:
    a, b = _operands(a, b, "add")
    return T._make(a.data + b.data, (a, b),
                   lambda g: [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))])


def sub(a, b) -> T.Tensor:
    a, b = _operands(a, b, "sub")
    return T._make(a.data - b.data, (a, b),
                   lambda g: [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))])


def mul(a, b) -> T.Tensor:
    a, b = _operands(a, b, "mul")
    return T._make(a.data * b.data, (a, b),
                   lambda g: [(a, _unbroadcast(g * b.data, a.shape)),
                              (b, _unbroadcast(g * a.data, b.shape))])


def power(a: T.Tensor, exponent: float) -> T.Tensor:
    e = float(exponent)
    return T._make(a.data**e, (a,), lambda g: [(a, g * e * a.data ** (e - 1.0))])


def absolute(a: T.Tensor) -> T.Tensor:
    # subgradient 0 at the kink (sign(0) == 0)
    return T._make(np.abs(a.data), (a,), lambda g: [(a, g * np.sign(a.data))])


def tsum(a: T.Tensor, axis=None, keepdims: bool = False) -> T.Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(gg, a.shape))]

    return T._make(data, (a,), rule)


def tmean(a: T.Tensor, axis=None, keepdims: bool = False) -> T.Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def rule(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(gg / count, a.shape))]

    return T._make(data, (a,), rule)


def div(a, b) -> T.Tensor:
    a, b = _operands(a, b, "div")
    return T._make(a.data / b.data, (a, b),
                   lambda g: [(a, _unbroadcast(g / b.data, a.shape)),
                              (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))])


def sqrt(a: T.Tensor) -> T.Tensor:
    data = np.sqrt(a.data)
    return T._make(data, (a,), lambda g: [(a, g / (2.0 * data))])


def _extreme(a: T.Tensor, axis: int, keepdims: bool, is_max: bool) -> T.Tensor:
    npfn = np.max if is_max else np.min
    argfn = np.argmax if is_max else np.argmin
    data = npfn(a.data, axis=axis, keepdims=keepdims)

    def rule(g):
        # route gradient to the first extremal element (ties break low index)
        am = np.expand_dims(argfn(a.data, axis=axis), axis)
        da = np.zeros_like(a.data)
        np.put_along_axis(da, am, g if keepdims else np.expand_dims(g, axis), axis=axis)
        return [(a, da)]

    return T._make(data, (a,), rule)


def reduce_max(a: T.Tensor, axis: int, keepdims: bool = False) -> T.Tensor:
    return _extreme(a, axis, keepdims, True)


def reduce_min(a: T.Tensor, axis: int, keepdims: bool = False) -> T.Tensor:
    return _extreme(a, axis, keepdims, False)


def transpose(a: T.Tensor, axes=None) -> T.Tensor:
    inv = None if axes is None else np.argsort(axes)
    return T._make(np.transpose(a.data, axes), (a,), lambda g: [(a, np.transpose(g, inv))])


def upsample_nearest2(x: T.Tensor) -> T.Tensor:
    c, h, w = x.shape
    data = x.data.repeat(2, axis=1).repeat(2, axis=2)
    return T._make(data, (x,), lambda g: [(x, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))])


def neg(a: T.Tensor) -> T.Tensor:
    return T._make(-a.data, (a,), lambda g: [(a, -g)])


def exp(a: T.Tensor) -> T.Tensor:
    data = np.exp(a.data)
    return T._make(data, (a,), lambda g: [(a, g * data)])


def log(a: T.Tensor) -> T.Tensor:
    return T._make(np.log(a.data), (a,), lambda g: [(a, g / a.data)])


def matmul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise T.AutodiffError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    T._check_dtypes("matmul", a, b)
    return T._make(a.data @ b.data, (a, b),
                   lambda g: [(a, g @ b.data.T), (b, a.data.T @ g)])


def reshape(a: T.Tensor, shape) -> T.Tensor:
    return T._make(a.data.reshape(shape), (a,), lambda g: [(a, g.reshape(a.shape))])


def max_pool2_copyto(x: T.Tensor) -> T.Tensor:
    """``tensor.max_pool2`` with the rule it had before winner masks: ``g``
    copied into zeros, offset by offset in row-major order, where the offset
    holds the max and no earlier offset did."""
    xd = x.data
    data = np.maximum(np.maximum(xd[:, ::2, ::2], xd[:, ::2, 1::2]),
                      np.maximum(xd[:, 1::2, ::2], xd[:, 1::2, 1::2]))

    def rule(g):
        dx = np.zeros_like(xd)
        free = np.ones(data.shape, dtype=bool)  # windows whose max is not yet routed
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            hit = xd[:, a::2, b::2] == data
            np.copyto(dx[:, a::2, b::2], g, where=hit & free)
            free &= ~hit
        return [(x, dx)]

    return T._make(np.ascontiguousarray(data), (x,), rule)


def psi_logits(psi, x: T.Tensor) -> T.Tensor:
    """ψ's pooled head as generic ops: the tap's channel means, then the head."""
    h3 = psi(x)[-1]
    c = h3.shape[0]
    pooled = reshape(tmean(reshape(h3, (c, -1)), axis=1), (1, c))
    return reshape(add(matmul(pooled, psi.head.weight), psi.head.bias), -1)


def log_softmax(logits: T.Tensor) -> T.Tensor:
    z = sub(logits, constant(np.max(logits.data), dtype=logits.dtype))
    return sub(z, log(tsum(exp(z))))


def cross_entropy_chain(psi, x: T.Tensor, label: int) -> T.Tensor:
    """``networks.cross_entropy`` as the chain of generic ops it fuses."""
    logits = psi_logits(psi, x)
    onehot = np.zeros(logits.shape[0])
    onehot[label] = 1.0
    return neg(tsum(mul(log_softmax(logits), constant(onehot, dtype=logits.dtype))))


def blur_tensor(x: T.Tensor, sigma: float) -> T.Tensor:
    """Gaussian blur of the two trailing axes of ``x`` with reflect padding,
    one op over ``image.separable_filter`` in ``x``'s element type."""
    k = gaussian_kernel1d(sigma).astype(x.dtype)
    return T._make(separable_filter(x.data, k), (x,),
                   lambda g: [(x, separable_filter_adjoint(g, k))])


def luma_tensor(x: T.Tensor) -> T.Tensor:
    """The ``GRAY_WEIGHTS`` sum over the channels of a [3,H,W] tensor."""
    return tsum(mul(x, constant(GRAY_WEIGHTS.reshape(3, 1, 1), x.dtype)), axis=0)


def color_chain(a: T.Tensor, b: T.Tensor, sigma: float = 3.0) -> T.Tensor:
    """``losses.color_loss`` as the chain of generic ops it fuses."""
    return tmean(power(sub(blur_tensor(a, sigma), blur_tensor(b, sigma)), 2))


def texture_chain(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """``losses.texture_loss`` as the chain of generic ops it fuses."""
    return tmean(power(sub(luma_tensor(a), luma_tensor(b)), 2))


def pixel_chain(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """``losses.pixel_loss`` as the chain of generic ops it fuses."""
    return tmean(absolute(sub(a, b)))


def contextual_tap_chain(fa, fb, h: float = 0.5, eps: float = 1e-5) -> T.Tensor:
    """``losses.contextual_loss`` as one op per tap (``losses._contextual_tap``),
    the taps summed with ``add`` and then scaled by ``1 / taps`` with ``mul``."""
    total = None
    for a, b in zip(fa, fb):
        value, rule = _contextual_tap(a, b, h, eps)
        tap = T._make(value, (a,), rule)
        total = tap if total is None else add(total, tap)
    return mul(total, 1.0 / len(fa))


def weighted_sum_chain(terms, weights) -> T.Tensor:
    """``losses.weighted_sum`` as ``mul`` by each weight, then ``add`` in order."""
    total = None
    for term, weight in zip(terms, weights):
        weighted = mul(term, weight)
        total = weighted if total is None else add(total, weighted)
    return total
