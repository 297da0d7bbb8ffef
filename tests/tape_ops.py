"""Tape ops that only the tests use: the steps of the contextual loss's
affinity chain (``test_losses.contextual_chain``), the transposed view that
feeds conv2d a non-contiguous input, and the nearest 2x upsampling that
``tensor.upsample_conv3x3`` fuses with its convolution. Each records its
backward rule on the active tape through ``tensor._make``, as the library's
ops do."""

import numpy as np

from dpl import tensor as T


def div(a, b) -> T.Tensor:
    a, b = T._as_tensor(a), T._as_tensor(b, a.dtype)
    T._check_operands(a, b, "div")
    data = a.data / b.data

    def rule(g):
        return [
            (a, T._unbroadcast(g / b.data, a.shape)),
            (b, T._unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        ]

    return T._make(data, (a, b), rule)


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
