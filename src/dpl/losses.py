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
# The smallest epsilon and bandwidth x epsilon that keep the float32 tap
# finite. With u = 2^-24 float32's unit roundoff and C <= 64 channels (the
# widest tap), q = (1 - smax) + eps must stay positive and alpha = 1 / (h q)
# small enough that exp of a rounding error cannot overflow:
# - a rounded cosine similarity of two unit vectors, a C-term dot product,
#   exceeds 1 by at most about C u = 2^-18 (12 u seen with a target's own
#   features, where eps <= 7e-7 already gave a NaN), so eps >= 2^-17 keeps
#   q >= eps / 2 and alpha <= 2 / (h eps);
# - the nearest column's exponent, alpha (s - smax), is 0 up to the rounding
#   of two (C+1)-term dot products of terms up to alpha, about 2 (C+1) u alpha
#   ~ 2^-17 alpha, so h eps >= 2^-22 keeps it near 2^-16 / 2^-22 = 64, where
#   exp and a row sum of up to 2^20 such terms stay below float32's largest
#   value, ~e^88.7.
CONTEXTUAL_EPSILON_MIN = 2.0 ** -17
CONTEXTUAL_BANDWIDTH_EPSILON_MIN = 2.0 ** -22
# Elements in one row block of the (Na, Nb) affinities: 512 KB in float32,
# so a block stays in cache from its first GEMM to its column maxima.
_BLOCK = 2 ** 17


def _floor_exp(w: np.ndarray) -> np.ndarray:
    """``exp(max(w, _EXP_FLOOR))`` in place. The floor is a scalar of ``w``'s
    element type: numpy's maximum runs ~15% faster than with a Python float."""
    np.maximum(w, w.dtype.type(_EXP_FLOOR), out=w)
    return np.exp(w, out=w)


def _contextual_tap(a: Tensor, b: Tensor, h: float, eps: float):
    """One tap of the contextual loss: its value, and its tape rule, which
    maps the value's gradient to ``[(a, gradient)]``.

    The forward works in similarity form. With ``s = an @ bn.T`` the cosine
    similarities, ``smax_i`` a row's largest (at its nearest column
    ``n_i``), ``q_i = (1 - smax_i) + eps`` (bitwise the chain's ``min_j d +
    eps`` of the distances ``d = 1 - s``) and ``alpha_i = 1 / (h q_i)``,
    the chain's exponent ``(1 - d / q) / h`` is ``alpha_i (s_ij - smax_i) +
    eps alpha_i``, and the row normalisation cancels ``eps alpha_i``. So
    row i of the affinities ``cx`` (Na, Nb) is ``exp(max(lhs_i @ [bn,
    -1].T, -60)) / rowsum_i`` with ``lhs_i = alpha_i [an_i, smax_i]``: a
    (C+1)-long left-hand side and one scale per row.

    No (Na, Nb) array is kept. The forward runs each block of rows in one
    reused buffer: a GEMM for ``s`` and its row argmax, the exponent GEMM,
    the floor, ``exp``, the row sums as one GEMV and a reciprocal multiply,
    then the block's column maxima, which update a running column max and
    the first block that reached it (a strict ``>``, so a tie keeps the
    earlier block). It keeps ``lhs``, ``1 / rowsum`` and the nearest
    columns, O(N) in all. Each column max's first row ``f`` is then found
    by recomputing, in each block, only the columns whose max that block
    holds, as a (columns, rows) array, so that the argmax runs along
    contiguous rows: one block's worth of work for all the columns.

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
    recomputes only the rows that do, from ``lhs`` and ``1 / rowsum``, a
    chunk at a time through one buffer, and writes ``e`` into the chunk.
    ``v_{f_j} max_j`` and ``s1_j`` nearly cancel where a row's affinity is
    all on its column maxima (``r ~ 1``), so ``e`` is their sum over ``v``,
    taken before the GEMM: summed inside it, the rounding error of the two
    large terms would swamp the small result.

    A recomputed affinity has the forward's bytes where BLAS sums an
    element's K = C + 1 products in one order for any subset of rows or
    columns and either orientation, as OpenBLAS's float32 GEMM does when
    both operands are row-major: ``lhs`` rows against ``bt = [bn, -1].T``
    here, and columns of ``bt`` against ``lhs.T``. The floor, ``exp`` and
    the scale work element by element. A GEMM of one row or column, which
    numpy hands to GEMV, sums in another order, so every recompute takes
    two at least; a forward block of one row (a last block of one row, or
    Na = 1) is such a GEMV, and its recomputed rows can differ in the last
    bit. OpenBLAS's float64 kernel also rounds some elements of a partial
    tile otherwise: at a set size that is not a multiple of 16 (300
    positions of 16 channels, say), a float64 gradient can differ from the
    stored matrix's in its last bits.

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
    buf = np.empty(min(step, n_rows) * max(2, n_cols), dtype)
    lhs = np.empty((n_rows, an.shape[1] + 1), dtype)  # alpha [an, smax]
    lhs[:, :-1] = an
    inv = np.empty(n_rows, dtype)  # 1 / rowsum of the exponentials
    q = np.empty(n_rows, dtype)
    nearest = np.empty(n_rows, np.intp)
    colmax, top = np.full(n_cols, -np.inf, dtype), np.empty(n_cols, dtype)
    block = np.zeros(n_cols, np.intp)  # the first block holding each column max
    bt = np.vstack([bn.T, np.full((1, n_cols), -1.0, dtype)])  # [bn, -1].T, C-contiguous
    for k, start in enumerate(starts):
        rows = slice(start, min(start + step, n_rows))
        w = buf[: (rows.stop - start) * n_cols].reshape(-1, n_cols)
        np.matmul(an[rows], bn.T, out=w)  # cosine similarities, then the affinities
        n = nearest[rows] = w.argmax(axis=1)
        smax = lhs[rows, -1] = w[np.arange(len(w)), n]
        q[rows] = (1.0 - smax) + eps
        lhs[rows] *= 1.0 / (h * q[rows, None])
        _floor_exp(np.matmul(lhs[rows], bt, out=w))
        inv[rows] = 1.0 / (w @ ones)
        w *= inv[rows, None]
        w.max(axis=0, out=top)
        block[top > colmax] = k
        np.maximum(colmax, top, out=colmax)
    # The search: the columns grouped by block, each block's run padded to
    # two columns at least, against that block's rows of lhs.T.
    order = np.argsort(block, kind="stable")
    ends = np.cumsum(np.bincount(block, minlength=len(starts)))
    bt_cols = bt.T[np.resize(order, n_cols + 2)]
    lhs_t = np.ascontiguousarray(lhs.T)
    found = np.empty(n_cols, np.intp)
    for k, start in enumerate(starts):
        rows = slice(start, min(start + step, n_rows))
        lo, hi = ends[k - 1] if k else 0, ends[k]
        width = max(2, hi - lo)
        wt = buf[: width * (rows.stop - start)].reshape(width, -1)
        _floor_exp(np.matmul(bt_cols[lo: lo + width], lhs_t[:, rows], out=wt))
        wt *= inv[rows]
        found[lo:hi] = start + wt[: hi - lo].argmax(axis=1)
    first = np.empty(n_cols, np.intp)
    first[order] = found
    m = colmax.mean()

    def rule(g):
        c = -g / (m * n_cols)
        held = np.zeros(n_rows, bool)
        held[first] = True
        rows = np.flatnonzero(held)  # F, ascending
        slot = (np.cumsum(held) - 1)[first]  # f_j's place in F
        an_f, q_f = an[rows], q[rows]
        r = np.bincount(slot, weights=colmax).astype(dtype)
        v = r * c / (h * q_f)
        e = colmax - colmax / r[slot]  # cx' at the column maxima
        rowsum, cb = np.empty(len(rows), dtype), np.empty((len(rows), bn.shape[1]), dtype)
        chunk = np.empty((max(2, min(step, len(rows))), n_cols), dtype)
        for start in range(0, len(rows), step):
            part = slice(start, min(start + step, len(rows)))
            size = max(2, part.stop - start)  # two rows at least: no GEMV
            np.matmul(lhs[np.resize(rows[part], size)], bt, out=chunk[:size])
            cx_f = _floor_exp(chunk[: part.stop - start])
            cx_f *= inv[rows[part], None]
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


# The largest loss weight, triplet margin or learning rate a config takes.
# weighted_sum and triplet_loss cast theirs to their terms' element type, and
# Adam scales its update by its rate in its parameters' type: float32 in
# training, where a larger value overflows to inf.
FLOAT32_MAX = float(np.finfo(np.float32).max)


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
