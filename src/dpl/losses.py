"""Training losses: feature-space perceptual and contextual distances, the
triplet hinge, blurred color and grayscale texture distances, and an L1
pixel baseline. A feature set is the ordered list of per-tap tensors.

Every loss term is one tape op with a written backward, the contextual loss
one over all its taps, and so is ``weighted_sum``, the generator's sum of the
weighted terms. The perceptual and contextual gradients reach the first set
only (the second is a constant target); the color, texture and pixel losses
give both images a gradient. Pretraining's cross-entropy is one op as well,
``networks.cross_entropy``."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .image import GRAY_WEIGHTS, gaussian_kernel1d, separable_filter, separable_filter_adjoint
from .tensor import Tensor

FeatureSet = list


class LossError(Exception):
    pass


def _refuse_tracked_targets(fb: FeatureSet, op: str) -> None:
    """Refuse a target set the active tape tracks: the loss has no gradient for it."""
    tape = T.active_tape()
    for i, b in enumerate(fb):
        if tape is not None and tape.tracks(b):
            raise LossError(f"{op}: tap {i} target set is tracked by the active tape, "
                            "but the loss has no gradient for it")


def perceptual_loss(fa: FeatureSet, fb: FeatureSet) -> Tensor:
    """Mean over taps of the mean squared feature difference, as one tape op
    that rounds as the chain ``sum_i ((a_i - b_i) ** 2).mean() * (1 / taps)``
    does. A tape that tracks the second (target) set is refused."""
    if len(fa) != len(fb):
        raise LossError(f"perceptual_loss: tap count mismatch {len(fa)} vs {len(fb)}")
    for i, (a, b) in enumerate(zip(fa, fb)):
        if a.shape != b.shape:
            raise LossError(f"perceptual_loss: tap {i} shape mismatch {a.shape} vs {b.shape}")
        T._check_dtypes("perceptual_loss", a, b)
    _refuse_tracked_targets(fb, "perceptual_loss")
    diffs = [a.data - b.data for a, b in zip(fa, fb)]
    scale = np.asarray(1.0 / len(fa), fa[0].dtype)
    total = sum((d * d).mean() for d in diffs) * scale

    def rule(g):
        return [(a, (g * scale) / d.size * 2.0 * d) for a, d in zip(fa, diffs)]

    return T._make(total, fa, rule)


def _positions(data: np.ndarray) -> np.ndarray:
    """[C,H,W] -> (H*W, C): one feature vector per spatial position (a view)."""
    return data.reshape(data.shape[0], -1).T


# Exponents of the affinities are floored here before exp. A row's largest
# exponent is 0 up to rounding, at its nearest column, so a floored
# affinity, e^-60 ~ 8.8e-27 of the largest, is far below float32 and float64
# resolution of the row sum; the floor keeps exp and every later product
# out of the subnormal range, where they run ~10x slower.
_EXP_FLOOR = -60.0
# Elements in one row block of the (Na, Nb) affinities: 512 KB in float32,
# so a block stays in cache from its first GEMM to its column maxima.
_BLOCK = 2 ** 17


def _contextual_tap(a: Tensor, b: Tensor, h: float, eps: float):
    """One tap of the contextual loss: its value, and its tape rule, which
    maps the value's gradient to ``[(a, gradient)]``.

    The forward works in similarity form. With ``s = an @ bn.T`` the cosine
    similarities, ``smax_i`` a row's largest (at its nearest column
    ``n_i``), ``q_i = (1 - smax_i) + eps`` (bitwise the chain's ``min_j d +
    eps`` of the distances ``d = 1 - s``) and ``alpha_i = 1 / (h q_i)``,
    the chain's exponent ``(1 - d / q) / h`` is ``alpha_i (s_ij - smax_i) +
    eps alpha_i``, and the row normalisation cancels ``eps alpha_i``. A
    block of rows of ``cx`` (Na, Nb), the only (Na, Nb) array, takes one
    GEMM for ``s`` and its row argmax, a second GEMM ``[alpha an, alpha
    smax] @ [bn, -1].T`` over it for the exponents, the floor, ``exp``, the
    row sums as one GEMV and a reciprocal multiply, and keeps its column
    maxima. After the blocks, each column's max is found once: its first
    block, then its first row ``f`` there, so a tie keeps the earliest row.
    With the loss ``-log mean_j max_i cx``:

    - every column max has the same gradient ``c = -g / (m * Nb)``, where
      ``m`` is the mean of the column maxima;
    - through ``cx = w / rowsum(w)`` and ``w = exp((1 - d / q) / h)`` the
      gradient on ``d`` is ``dd = v[:, None] * cx + S + dq at (i, n_i)``,
      where ``v_i = c r_i / (h q_i)`` with ``r_i`` the sum of the column
      maxima first attained in row i, ``S`` holds ``s1_j = -c max_j /
      (h q_{f_j}) = -v_{f_j} max_j / r_{f_j}`` at each ``(f_j, j)``, and
      the row min adds ``dq_i = -(v_i rowdot_i + sum_{f_j = i} s1_j
      d_{f_j j}) / q_i`` with ``rowdot_i = sum_j cx_ij d_ij``;
    - so, with ``cx'`` the affinities holding ``e_j = max_j (1 - 1 /
      r_{f_j})`` in place of each column max, ``dd = v[:, None] * cx' + dq
      at (i, n_i)`` and ``dq_i = -v_i (sum_j cx_ij - 1 - an_i . (cx' @
      bn)_i) / q_i``;
    - ``d an = -dd @ bn = -(v * (cx' @ bn) + dq * bn[n])``, then the
      normalisation backward. The target set ``b`` is a constant
      (``contextual_loss`` refuses a tape that tracks it), so its mean and
      ``bn`` are too.

    All of it is zero on a row that holds no column max, so the backward
    gathers only the rows that do, a block at a time through one buffer,
    and writes ``e`` into the gathered copy. ``v_{f_j} max_j`` and ``s1_j``
    nearly cancel where a row's affinity is all on its column maxima
    (``r ~ 1``), so ``e`` is their sum over ``v``, taken before the GEMM:
    summed inside it, the rounding error of the two large terms would
    swamp the small result.

    Floored exponents have a zero derivative. The affinities they stand
    for are below 1e-26 of their row's largest, under what float32 or
    float64 resolves in a row sum, so the floor changes neither the loss
    nor its gradient by a visible amount.
    """
    av, bv = _positions(a.data), _positions(b.data)  # (Na, C), (Nb, C)
    mu = bv.mean(axis=0, keepdims=True)
    ac, bc = av - mu, bv - mu
    na = np.sqrt((ac * ac).sum(axis=1, keepdims=True) + eps * eps)
    nb = np.sqrt((bc * bc).sum(axis=1, keepdims=True) + eps * eps)
    an, bn = ac / na, bc / nb
    n_rows, n_cols = len(an), len(bn)
    step = max(1, _BLOCK // n_cols)
    starts = range(0, n_rows, step)
    dtype = an.dtype
    ones = np.ones(n_cols, dtype)
    cx = np.empty((n_rows, n_cols), dtype)
    q = np.empty(n_rows, dtype)
    nearest = np.empty(n_rows, np.intp)
    tops = np.empty((len(starts), n_cols), dtype)
    bn_ext = np.hstack([bn, np.full((n_cols, 1), -1.0, dtype)])
    for k, start in enumerate(starts):
        rows = slice(start, min(start + step, n_rows))
        w = cx[rows]
        np.matmul(an[rows], bn.T, out=w)  # cosine similarities, then the exponents
        n = nearest[rows] = w.argmax(axis=1)
        smax = w[np.arange(len(w)), n]
        q[rows] = (1.0 - smax) + eps
        alpha = 1.0 / (h * q[rows, None])
        np.matmul(np.hstack([an[rows], smax[:, None]]) * alpha, bn_ext.T, out=w)
        np.maximum(w, _EXP_FLOOR, out=w)
        np.exp(w, out=w)
        w *= (1.0 / (w @ ones))[:, None]
        w.max(axis=0, out=tops[k])
    colmax = tops.max(axis=0)
    block = (tops == colmax).argmax(axis=0)  # the first block holding each column max
    first = np.empty(n_cols, np.intp)
    for k, start in enumerate(starts):
        col = np.flatnonzero(block == k)
        top = cx[start: start + step]
        if len(col) < n_cols:  # "clip": the indices are in range, and "raise" is slower
            top = np.take(top, col, axis=1, mode="clip")
        first[col] = start + top.argmax(axis=0)
    m = colmax.mean()

    def rule(g):
        c = -g / (m * n_cols)
        rows, slot = np.unique(first, return_inverse=True)  # F, and f_j's place in it
        an_f, q_f = an[rows], q[rows]
        r = np.bincount(slot, weights=colmax).astype(dtype)
        v = r * c / (h * q_f)
        e = colmax - colmax / r[slot]  # cx' at the column maxima
        rowsum, cb = np.empty(len(rows), dtype), np.empty((len(rows), bn.shape[1]), dtype)
        chunk = np.empty((min(step, len(rows)), n_cols), dtype)
        for start in range(0, len(rows), step):
            part = slice(start, min(start + step, len(rows)))
            cx_f = np.take(cx, rows[part], axis=0, out=chunk[: part.stop - start], mode="clip")
            rowsum[part] = cx_f @ ones
            own = np.flatnonzero((slot >= start) & (slot < part.stop))
            cx_f[slot[own] - start, own] = e[own]
            np.matmul(cx_f, bn, out=cb[part])
        dq = -v * (rowsum - 1.0 - np.einsum("ij,ij->i", an_f, cb)) / q_f
        dan = cb * v[:, None] + dq[:, None] * bn[nearest[rows]]
        dac = np.zeros_like(an)
        dac[rows] = (an_f * (dan * an_f).sum(axis=1, keepdims=True) - dan) / na[rows]
        return [(a, dac.T.reshape(a.shape))]

    return -np.log(m), rule


def contextual_loss(fa: FeatureSet, fb: FeatureSet, bandwidth: float = 0.5,
                    epsilon: float = 1e-5) -> Tensor:
    """Set-matching loss over per-position feature vectors (Mechrez et al.,
    arXiv:1803.02077), as one tape op: the mean of the taps' losses, rounding
    as ``((t0 + t1) + t2) * (1 / taps)`` does in the element type.

    Per tap: mean-center both sets by the second set's mean, convert
    cosine distances to row-normalized affinities, and score how well
    every target vector is matched by its best candidate. Spatial extents
    may differ between the two sets; channel widths must agree.
    Zero-norm vectors are handled by the epsilon inside the norm, not by
    raising. Each tap's gradient is written by hand (``_contextual_tap``)
    and reaches the first set only: the second is the target's features,
    a constant, and a tape that tracks it is refused.
    """
    if bandwidth <= 0 or epsilon <= 0:
        raise LossError("contextual bandwidth and epsilon must be positive")
    if len(fa) != len(fb):
        raise LossError(f"contextual_loss: tap count mismatch {len(fa)} vs {len(fb)}")
    _refuse_tracked_targets(fb, "contextual_loss")
    for i, (a, b) in enumerate(zip(fa, fb)):
        if a.shape[0] != b.shape[0]:
            raise LossError(
                f"contextual_loss: tap {i} channel mismatch {a.shape[0]} vs {b.shape[0]}"
            )
    values, rules = zip(*(_contextual_tap(a, b, bandwidth, epsilon) for a, b in zip(fa, fb)))
    scale = np.asarray(1.0 / len(fa), fa[0].dtype)
    total = values[0]
    for value in values[1:]:
        total = total + value
    return T._make(total * scale, fa,
                   lambda g: [pair for rule in rules for pair in rule(g * scale)])


def weighted_sum(terms: list, weights: list) -> Tensor:
    """``t0 w0 + t1 w1 + ...`` of rank-0 loss terms as one tape op, each weight
    a 0-d array of its term's element type, summed in order with the first
    product standing alone; term i gets ``g w_i``."""
    T._check_dtypes("weighted_sum", *terms)
    ws = [np.asarray(w, t.dtype) for t, w in zip(terms, weights)]
    total = terms[0].data * ws[0]
    for t, w in zip(terms[1:], ws[1:]):
        total = total + t.data * w
    return T._make(total, terms, lambda g: [(t, g * w) for t, w in zip(terms, ws)])


def triplet_loss(features: FeatureSet, margin: float) -> Tensor:
    """Hinge on size-normalized squared feature distances, summed over taps,
    as one tape op; each tap holds the anchor's, positive's and negative's
    features side by side along the width. With ``n`` one crop's tap size, an
    active hinge gives the anchor ``2(a - p)/n - 2(a - n)/n``, the positive
    ``-2(a - p)/n`` and the negative ``2(a - n)/n``; an inactive one zeros."""
    diffs = []
    for i, t in enumerate(features):
        w = t.shape[-1] // 3
        if t.shape[-1] != 3 * w:
            raise LossError(f"triplet_loss: tap {i} width {t.shape[-1]} is not three crops wide")
        a = t.data[..., :w]
        diffs.append((a - t.data[..., w : 2 * w], a - t.data[..., 2 * w :]))
    d_ap = sum((dp * dp).mean() for dp, _ in diffs)
    d_an = sum((dn * dn).mean() for _, dn in diffs)
    hinge = d_ap - d_an + np.asarray(margin, features[0].dtype)

    def rule(g):
        grads = []
        for t, (dp, dn) in zip(features, diffs):
            k = g * (hinge > 0) / dp.size * 2.0
            gp, gn = k * dp, k * dn
            grads.append((t, np.concatenate([gp - gn, -gp, gn], axis=-1)))
        return grads

    return T._make(np.maximum(hinge, 0.0), features, rule)


def _mapped_squared_error(a: Tensor, b: Tensor, op: str, linear, adjoint) -> Tensor:
    """``mean((L a - L b) ** 2)`` for a fixed linear map ``L`` (``linear``)
    as one tape op, ``a`` getting ``L^T G`` (``adjoint``) with ``G = 2 g (L a
    - L b) / n``, and ``b`` its negation. It rounds as the chain
    ``((L(a) - L(b)) ** 2).mean()`` of tape ops does; the chain's ``L^T (-G)``
    for ``b`` differs only in the sign of an exact zero, which a gradient
    buffer, adding into +0.0, does not keep."""
    if a.shape != b.shape:
        raise LossError(f"{op} shape mismatch {a.shape} vs {b.shape}")
    T._check_dtypes(op, a, b)
    d = linear(a.data) - linear(b.data)

    def rule(g):
        ga = adjoint((g / d.size * 2.0) * d)
        return [(a, ga), (b, -ga)]

    return T._make((d * d).mean(), (a, b), rule)


def color_loss(a: Tensor, b: Tensor, sigma: float = 3.0) -> Tensor:
    """MSE between Gaussian-blurred images: sensitive to color/brightness only.
    The blur is ``image.separable_filter`` (reflect padding) with the kernel
    in the images' element type."""
    k = gaussian_kernel1d(sigma).astype(a.dtype)
    return _mapped_squared_error(a, b, "color_loss", lambda x: separable_filter(x, k),
                                 lambda g: separable_filter_adjoint(g, k))


def texture_loss(a: Tensor, b: Tensor) -> Tensor:
    """MSE between grayscale versions: blind to color, sensitive to structure.
    The grayscale map is the ``GRAY_WEIGHTS`` sum over the channels."""
    if a.data.ndim != 3 or a.shape[0] != 3:
        raise LossError(f"texture_loss expects [3,H,W] images, got {a.shape}")
    w = GRAY_WEIGHTS.reshape(3, 1, 1).astype(a.dtype)
    return _mapped_squared_error(a, b, "texture_loss", lambda x: (x * w).sum(axis=0),
                                 lambda g: g[None] * w)


def pixel_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute pixel difference (L1) as one tape op: ``a`` gets
    ``(g / n) sign(a - b)``, a subgradient of 0 where they are equal, and
    ``b`` its negation."""
    if a.shape != b.shape:
        raise LossError(f"pixel_loss shape mismatch {a.shape} vs {b.shape}")
    T._check_dtypes("pixel_loss", a, b)
    d = a.data - b.data

    def rule(g):
        ga = (g / d.size) * np.sign(d)
        return [(a, ga), (b, -ga)]

    return T._make(np.abs(d).mean(), (a, b), rule)
