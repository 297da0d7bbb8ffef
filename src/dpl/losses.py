"""Training losses: feature-space perceptual and contextual distances, the
triplet hinge, blurred color and grayscale texture distances, and an L1
pixel baseline. A feature set is the ordered list of per-tap tensors.

Every loss is a composition of tensor ops except the contextual loss, one
op per tap whose (Na, Nb) affinity chain has a hand-written backward, and
the color loss's blur, one op over ``image.separable_filter``."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .image import GRAY_WEIGHTS, gaussian_kernel1d, separable_filter, separable_filter_adjoint
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


# Exponents of the affinities are floored here before exp. A row's largest
# exponent is eps / (q h) >= 0, so its largest affinity is >= 1 and a
# floored one, e^-60 ~ 8.8e-27, is far below float32 and float64
# resolution of the row sum; the floor keeps exp and every later product
# out of the subnormal range, where they run ~10x slower.
_EXP_FLOOR = -60.0
# Elements in one row block of the (Na, Nb) distances: 512 KB in float32,
# so one block of ``d`` and one of ``cx`` stay in cache.
_BLOCK = 2 ** 17


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, C) sums of ``rows[j]`` onto row ``index[j]``, as one bincount over
    the flat indices, in ``rows``' element type."""
    c = rows.shape[1]
    flat = (index[:, None] * c + np.arange(c)).ravel()
    sums = np.bincount(flat, weights=rows.ravel(), minlength=n * c)
    return sums.reshape(n, c).astype(rows.dtype)


def _contextual_tap(a: Tensor, b: Tensor, h: float, eps: float) -> Tensor:
    """One tap of the contextual loss as a single tape op.

    The forward builds the row-normalised affinities ``cx`` (Na, Nb) in
    blocks of rows, each from one scratch block of cosine distances ``d``,
    with the chain's elementwise ops in the chain's order, so the loss is
    the chain's to the bit. From each block it keeps, per row, ``q = min_j d
    + eps``, the argmin ``n`` and ``rowdot = sum_j cx * d``; per column, the
    running max of ``cx``, its first row ``f`` (only a strictly greater
    value moves it, so a tie keeps the earliest row) and ``d`` there.
    ``cx`` is the only (Na, Nb) array the backward holds. With the loss
    ``-log mean_j max_i cx``:

    - every column max has the same gradient ``c = -g / (m * Nb)``, where
      ``m`` is the mean of the column maxima;
    - through ``cx = w / rowsum(w)`` and ``w = exp((1 - d / q) / h)`` the
      gradient on ``d`` is ``dd = v[:, None] * cx + S + dq at (i, n_i)``,
      where ``v_i = c r_i / (h q_i)`` with ``r_i`` the sum of the column
      maxima first attained in row i, ``S`` holds ``s1_j = -c max_j /
      (h q_{f_j})`` at each ``(f_j, j)``, and the row min adds
      ``dq_i = -(v_i rowdot_i + sum_{f_j = i} s1_j d_{f_j j}) / q_i``;
    - ``d an = -dd @ bn = -(v * (cx @ bn) + sum_{f_j = i} s1_j bn_j +
      dq * bn[n])``, one GEMM, and when ``b`` is tracked ``d bn =
      -(cx.T @ (v * an) + s1 * an[f] + dq * an added at the columns n)``;
      then the normalisation and centering backward. ``v_{f_j} max_j`` and
      ``s1_j`` nearly cancel where a row's affinity is all on its column
      maxima, so the backward's ``cx`` holds 0 at each ``(f_j, j)`` and
      ``s1_j`` takes ``v_{f_j} max_j`` in: summed inside the GEMM, the
      rounding error of the large term would swamp the small result.

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
    dtype = an.dtype
    cx = np.empty((n_rows, n_cols), dtype)
    scratch = np.empty((min(step, n_rows), n_cols), dtype)
    hits = np.empty(scratch.shape, bool)
    rank = np.arange(len(scratch), 0, -1, dtype=np.min_scalar_type(len(scratch)))[:, None]
    ranks = np.empty(scratch.shape, rank.dtype)
    q = np.empty(n_rows, dtype)
    nearest = np.empty(n_rows, np.intp)
    rowdot = np.empty(n_rows, dtype)
    colmax = np.full(n_cols, -np.inf, dtype)
    first = np.zeros(n_cols, np.intp)
    d_first = np.zeros(n_cols, dtype)
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        d, w = scratch[: rows.stop - start], cx[rows]
        np.matmul(an[rows], bn.T, out=d)
        np.subtract(1.0, d, out=d)  # cosine distances
        nearest[rows] = d.argmin(axis=1)
        q[rows] = d[np.arange(len(d)), nearest[rows]] + eps
        np.divide(d, q[rows, None], out=w)
        np.subtract(1.0, w, out=w)
        np.multiply(w, 1.0 / h, out=w)
        np.maximum(w, _EXP_FLOOR, out=w)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        rowdot[rows] = np.einsum("ij,ij->i", w, d)
        top = w.max(axis=0)
        gain = top > colmax
        np.maximum(colmax, top, out=colmax)
        # the first row of each gained column's max: the largest rank among
        # its hits, as a column max over the block, which is cheaper than a
        # column argmax
        hit, hit_rank = hits[: len(d)], ranks[: len(d)]
        np.equal(w, np.where(gain, top, np.inf), out=hit)
        np.multiply(hit, rank[: len(d)], out=hit_rank)
        col = np.flatnonzero(gain)
        row = len(scratch) - hit_rank.max(axis=0)[col].astype(np.intp)
        first[col], d_first[col] = start + row, d[row, col]
    m = colmax.mean()
    cx[first, np.arange(n_cols)] = 0  # the column maxima enter the backward through s1
    tape = T.active_tape()
    need_a, need_b = (tape is not None and tape.tracks(t) for t in (a, b))

    def rule(g):
        c = -g / (m * n_cols)
        v = np.bincount(first, weights=colmax, minlength=n_rows).astype(dtype) * c / (h * q)
        s1 = -c * colmax / (h * q[first])
        dq = -(v * rowdot + np.bincount(first, weights=s1 * d_first,
                                        minlength=n_rows).astype(dtype)) / q
        s1 += v[first] * colmax  # all of dd at (f_j, j), where cx holds 0
        dan = cx @ bn
        dan *= v[:, None]
        dan += _scatter_rows(first, s1[:, None] * bn, n_rows)
        dan += dq[:, None] * bn[nearest]
        dac = (an * (dan * an).sum(axis=1, keepdims=True) - dan) / na
        grads = []
        if need_a:
            grads.append((a, dac.T.reshape(a.shape)))
        if need_b:
            dbn = cx.T @ (v[:, None] * an)
            dbn += s1[:, None] * an[first]
            dbn += _scatter_rows(nearest, dq[:, None] * an, n_cols)
            dbc = (bn * (dbn * bn).sum(axis=1, keepdims=True) - dbn) / nb
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


def blur_tensor(x: Tensor, sigma: float) -> Tensor:
    """Differentiable Gaussian blur of the two trailing axes of ``x`` with
    reflect padding, as one tape op over ``image.separable_filter`` in
    ``x``'s element type."""
    k = gaussian_kernel1d(sigma).astype(x.dtype)
    return T._make(separable_filter(x.data, k), (x,),
                   lambda g: [(x, separable_filter_adjoint(g, k))])


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
