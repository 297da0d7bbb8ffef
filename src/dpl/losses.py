"""Training losses: feature-space perceptual and contextual distances, the
triplet hinge, blurred color and grayscale texture distances, and an L1
pixel baseline. A feature set is the ordered list of per-tap tensors.

Every loss is a composition of tensor ops except the contextual loss,
which records one op per tap: its (Na, Nb) affinity chain has a
backward written by hand that never forms the chain's intermediate
gradients."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .image import GRAY_WEIGHTS, gaussian_kernel1d
from .tensor import Tensor

FeatureSet = list


class LossError(Exception):
    pass


def _check_same_shapes(fa: FeatureSet, fb: FeatureSet, op: str) -> None:
    if len(fa) != len(fb):
        raise LossError(f"{op}: tap count mismatch {len(fa)} vs {len(fb)}")
    for i, (a, b) in enumerate(zip(fa, fb)):
        if a.shape != b.shape:
            raise LossError(f"{op}: tap {i} shape mismatch {a.shape} vs {b.shape}")


def perceptual_loss(fa: FeatureSet, fb: FeatureSet) -> Tensor:
    """Mean over taps of the mean squared feature difference."""
    _check_same_shapes(fa, fb, "perceptual_loss")
    total = None
    for a, b in zip(fa, fb):
        tap = ((a - b) ** 2).mean()
        total = tap if total is None else total + tap
    return total * (1.0 / len(fa))


def _positions(data: np.ndarray) -> np.ndarray:
    """[C,H,W] -> (H*W, C): one feature vector per spatial position (a view)."""
    return data.reshape(data.shape[0], -1).T


def _contextual_tap(a: Tensor, b: Tensor, h: float, eps: float) -> Tensor:
    """One tap of the contextual loss as a single tape op.

    The forward evaluates the affinity chain on the position vectors and
    keeps two (Na, Nb) arrays for the backward: the cosine distances ``d``
    and the row-normalised affinities ``cx``. With ``q = min_j d + eps``
    and the loss ``-log mean_j max_i cx``:

    - every column max has the same gradient ``c = -g / (m * Nb)``, where
      ``m`` is the mean of the column maxima;
    - through ``cx = w / rowsum(w)`` and ``w = exp((1 - d / q) / h)`` this
      gives ``dd = cx * (r / (h q))[:, None]``, where ``r_i`` is ``c`` times
      the sum of the column maxima first attained in row i, less
      ``c * cx / (h q)`` at each column's first argmax;
    - the row min adds ``-rowsum(dd * d) / q`` at each row's first argmin;
    - ``d an = -dd @ bn`` (and ``d bn = -dd.T @ an`` when ``b`` is
      tracked), followed by the normalisation and centering backward.
    """
    av, bv = _positions(a.data), _positions(b.data)  # (Na, C), (Nb, C)
    mu = bv.mean(axis=0, keepdims=True)
    ac, bc = av - mu, bv - mu
    na = np.sqrt((ac * ac).sum(axis=1, keepdims=True) + eps * eps)
    nb = np.sqrt((bc * bc).sum(axis=1, keepdims=True) + eps * eps)
    an, bn = ac / na, bc / nb
    d = an @ bn.T
    np.subtract(1.0, d, out=d)  # (Na, Nb) cosine distances
    q = d.min(axis=1, keepdims=True) + eps
    cx = d / q
    np.subtract(1.0, cx, out=cx)
    np.multiply(cx, 1.0 / h, out=cx)
    np.exp(cx, out=cx)
    cx /= cx.sum(axis=1, keepdims=True)
    colmax = cx.max(axis=0)
    m = colmax.mean()
    tape = T.active_tape()
    need_a, need_b = (tape is not None and tape.tracks(t) for t in (a, b))

    def rule(g):
        n_rows, n_cols = cx.shape
        c = -g / (m * n_cols)
        first = (cx == colmax).argmax(axis=0)  # the row of each column's max
        r = np.bincount(first, weights=colmax, minlength=n_rows).astype(cx.dtype) * c
        dd = cx * (r / (h * q[:, 0]))[:, None]
        dd[first, np.arange(n_cols)] -= colmax * c / (h * q[first, 0])
        dq = -np.einsum("ij,ij->i", dd, d) / q[:, 0]  # via d / q: before the argmin entries
        dd[np.arange(n_rows), d.argmin(axis=1)] += dq
        dan = -(dd @ bn)
        dac = (dan - an * (dan * an).sum(axis=1, keepdims=True)) / na
        grads = []
        if need_a:
            grads.append((a, dac.T.reshape(a.shape)))
        if need_b:
            dbn = -(dd.T @ an)
            dbc = (dbn - bn * (dbn * bn).sum(axis=1, keepdims=True)) / nb
            dmu = -(dac.sum(axis=0) + dbc.sum(axis=0))
            grads.append((b, (dbc + dmu / len(bc)).T.reshape(b.shape)))
        return grads

    return T._make(-np.log(m), (a, b), rule)


def contextual_loss(fa: FeatureSet, fb: FeatureSet, bandwidth: float = 0.5,
                    epsilon: float = 1e-5) -> Tensor:
    """Set-matching loss over per-position feature vectors (Mechrez et al.,
    arXiv:1803.02077), one tape op per tap.

    Per tap: mean-center both sets by the second set's mean, convert
    cosine distances to row-normalized affinities, and score how well
    every target vector is matched by its best candidate. Spatial extents
    may differ between the two sets; channel widths must agree.
    Zero-norm vectors are handled by the epsilon inside the norm, not by
    raising. Each tap's gradient is written by hand (``_contextual_tap``);
    the second set gets one only when the active tape tracks it.
    """
    if bandwidth <= 0 or epsilon <= 0:
        raise LossError("contextual bandwidth and epsilon must be positive")
    if len(fa) != len(fb):
        raise LossError(f"contextual_loss: tap count mismatch {len(fa)} vs {len(fb)}")
    total = None
    for i, (a, b) in enumerate(zip(fa, fb)):
        if a.shape[0] != b.shape[0]:
            raise LossError(
                f"contextual_loss: tap {i} channel mismatch {a.shape[0]} vs {b.shape[0]}"
            )
        tap = _contextual_tap(a, b, bandwidth, epsilon)
        total = tap if total is None else total + tap
    return total * (1.0 / len(fa))


def triplet_loss(anchor: FeatureSet, positive: FeatureSet, negative: FeatureSet,
                 margin: float) -> Tensor:
    """Hinge on size-normalized squared feature distances, summed over taps."""
    _check_same_shapes(anchor, positive, "triplet_loss(anchor, positive)")
    _check_same_shapes(anchor, negative, "triplet_loss(anchor, negative)")
    d_ap = None
    d_an = None
    for a, p, n in zip(anchor, positive, negative):
        tap_ap = ((a - p) ** 2).mean()
        tap_an = ((a - n) ** 2).mean()
        d_ap = tap_ap if d_ap is None else d_ap + tap_ap
        d_an = tap_an if d_an is None else d_an + tap_an
    return T.relu(d_ap - d_an + margin)


def _blur_weights(sigma: float, dtype):
    k = gaussian_kernel1d(sigma)
    n = len(k)
    wv = np.zeros((3, 3, n, 1))
    wh = np.zeros((3, 3, 1, n))
    for c in range(3):
        wv[c, c, :, 0] = k
        wh[c, c, 0, :] = k
    zero = np.zeros(3)
    return (T.constant(wv, dtype), T.constant(wh, dtype),
            T.constant(zero, dtype), n // 2)


def blur_tensor(x: Tensor, sigma: float) -> Tensor:
    """Differentiable separable Gaussian blur of [3,H,W] with reflect padding."""
    wv, wh, zero, radius = _blur_weights(sigma, x.dtype)
    padded = T.reflect_pad2d(x, radius)
    return T.conv2d(T.conv2d(padded, wv, zero), wh, zero)


def color_loss(a: Tensor, b: Tensor, sigma: float = 3.0) -> Tensor:
    """MSE between Gaussian-blurred images: sensitive to color/brightness only."""
    if a.shape != b.shape:
        raise LossError(f"color_loss shape mismatch {a.shape} vs {b.shape}")
    return ((blur_tensor(a, sigma) - blur_tensor(b, sigma)) ** 2).mean()


def luma_tensor(x: Tensor) -> Tensor:
    weights = T.constant(GRAY_WEIGHTS.reshape(3, 1, 1), x.dtype)
    return (x * weights).sum(axis=0)


def texture_loss(a: Tensor, b: Tensor) -> Tensor:
    """MSE between grayscale versions: blind to color, sensitive to structure."""
    if a.shape != b.shape:
        raise LossError(f"texture_loss shape mismatch {a.shape} vs {b.shape}")
    return ((luma_tensor(a) - luma_tensor(b)) ** 2).mean()


def pixel_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute pixel difference (L1)."""
    if a.shape != b.shape:
        raise LossError(f"pixel_loss shape mismatch {a.shape} vs {b.shape}")
    return T.absolute(a - b).mean()
