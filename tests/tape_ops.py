"""Tape ops that only the tests use: the steps of the contextual loss's
affinity chain (``test_losses.contextual_chain``), the transposed view that
feeds conv2d a non-contiguous input, the nearest 2x upsampling that
``tensor.upsample_conv3x3`` fuses with its convolution, and the generic ops
of ψ's pooled head and cross-entropy (``cross_entropy_chain``), which
``networks.cross_entropy`` fuses. ``max_pool2_copyto`` is the pooling rule
``tensor.max_pool2``'s winner masks replace. Each records its backward rule
on the active tape through ``tensor._make``, as the library's ops do."""

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
    pooled = reshape(reshape(h3, (c, -1)).mean(axis=1), (1, c))
    return reshape(matmul(pooled, psi.head.weight) + psi.head.bias, -1)


def log_softmax(logits: T.Tensor) -> T.Tensor:
    shift = T.constant(np.max(logits.data), dtype=logits.dtype)
    z = logits - shift
    return z - log(exp(z).sum())


def cross_entropy_chain(psi, x: T.Tensor, label: int) -> T.Tensor:
    """``networks.cross_entropy`` as the chain of generic ops it fuses."""
    logits = psi_logits(psi, x)
    onehot = np.zeros(logits.shape[0])
    onehot[label] = 1.0
    return neg((log_softmax(logits) * T.constant(onehot, dtype=logits.dtype)).sum())
