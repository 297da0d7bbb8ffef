"""Dense tensors with taped reverse-mode automatic differentiation.

Values are contiguous numpy buffers. A tensor keeps the element type of
the float data it is built from (anything else becomes float32); the
library's images and weights enter as float32, and gradient checks build
float64 tensors. An op on two tensors refuses operands whose element types
differ, rather than let numpy promote one of them.
A ComputationTape is built with its parameter list, the set it
differentiates with respect to. While it is active, an operation records a
backward rule only when one of its inputs is one of those parameters or an
output the tape recorded; everything else is a constant on that tape.
Replaying the tape in reverse accumulates d(loss)/d(param) into the
``grad`` buffer of each parameter. Gradients accumulate additively across
backward calls until an ``optim.Adam`` step consumes them.

The ops do only the work a call needs: conv2d's im2col is one strided view,
copied once, and its input gradient one matmul (a transposed convolution,
in phase form at stride 2: one 2x2 convolution per output phase, over the
unstuffed gradient); upsample_conv3x3 runs the generator's resize-convolution
(nearest 2x upsample, then a 3x3 conv) as four such phase convolutions at
the input's resolution, so its matmuls never see the upsampled map;
max_pool2's forward takes the maximum of four strided views, and its
backward multiplies ``g`` by each view's exclusive winner mask straight into
that view of its output. The one arithmetic op is ``add``, of two tensors of
one shape and element type, for F's skip connection; there is no broadcasting
and no operator sugar. Each loss term, the generator's weighted sum of them,
and ψ's pooled head with the cross-entropy is one op that ``losses`` or
``networks`` records through ``_make``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class AutodiffError(Exception):
    """Raised on misuse of the tape or on shape/contract violations."""


class Tensor:
    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        data = np.asarray(data)
        if dtype is None:
            dtype = data.dtype if data.dtype.kind == "f" else np.float32
        self.data = np.array(data, dtype=dtype)
        self.grad: np.ndarray | None = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        return out

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad


class ComputationTape:
    """Ordered record of the operations that depend on ``params``; reverse
    replay drives backpropagation into those parameters and no others.

    Entries are (output, backward_rule) where the rule maps the output
    gradient to (parent, contribution) pairs. Parameter contributions are
    applied in ascending recording order so that gradient accumulation is
    bitwise reproducible and matches the "sum losses then backward once"
    formulation exactly.
    """

    def __init__(self, params: Iterable[Tensor]):
        self._params: dict[int, Tensor] = {id(p): p for p in params}
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], list]]] = []
        self._produced: dict[int, int] = {}
        self._prev_active: "ComputationTape | None" = None

    def tracks(self, t: Tensor) -> bool:
        """Whether ``t`` is a parameter of this tape or an output it recorded."""
        return id(t) in self._params or id(t) in self._produced

    def record(self, out: Tensor, rule: Callable[[np.ndarray], list]) -> None:
        self._produced[id(out)] = len(self._entries)
        self._entries.append((out, rule))

    def __enter__(self) -> "ComputationTape":
        global _ACTIVE_TAPE
        self._prev_active = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev_active
        self._prev_active = None
        return False


_ACTIVE_TAPE: ComputationTape | None = None


def active_tape() -> ComputationTape | None:
    return _ACTIVE_TAPE


def backward(loss: Tensor, tape: ComputationTape) -> None:
    """Accumulate d(loss)/d(param) into every parameter of the tape.

    Repeated calls on the same tape accumulate (gradients add linearly).
    """
    if loss.data.ndim != 0:
        raise AutodiffError(f"loss must be rank-0, got shape {loss.shape}")
    if id(loss) not in tape._produced:
        raise AutodiffError("loss tensor was not produced under this tape")

    flows: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    param_contribs: dict[int, tuple[Tensor, list[tuple[int, np.ndarray]]]] = {}

    entries = tape._entries
    produced = tape._produced
    params = tape._params
    for idx in range(len(entries) - 1, -1, -1):
        out, rule = entries[idx]
        g = flows.pop(id(out), None)
        if g is None:
            continue
        for parent, contrib in rule(g):
            pid = id(parent)
            if pid in produced:
                prev = flows.get(pid)
                flows[pid] = contrib if prev is None else prev + contrib
            elif pid in params:
                bucket = param_contribs.setdefault(pid, (parent, []))
                bucket[1].append((idx, contrib))

    for param, contribs in param_contribs.values():
        buf = param.ensure_grad()
        for _, contrib in sorted(contribs, key=lambda pair: pair[0]):
            buf += contrib


def _make(data: np.ndarray, parents: Sequence[Tensor], rule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    tape = _ACTIVE_TAPE
    if tape is not None:
        for p in parents:
            if tape.tracks(p):
                tape.record(out, rule)
                break
    return out


def _check_dtypes(op: str, *operands: Tensor) -> None:
    first = operands[0].dtype
    for t in operands[1:]:
        if t.dtype != first:
            raise AutodiffError(f"{op}: element types differ: {first} vs {t.dtype}")


# -- arithmetic ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one element type and one shape."""
    _check_dtypes("add", a, b)
    if a.shape != b.shape:
        raise AutodiffError(f"add: shape mismatch: {a.shape} vs {b.shape}")
    return _make(a.data + b.data, (a, b), lambda g: [(a, g), (b, g)])


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def rule(g):
        return [(a, g * (a.data > 0))]

    return _make(data, (a,), rule)


# -- shape --------------------------------------------------------------------


def concat_width(parts: Sequence[Tensor]) -> Tensor:
    """[C,H,W_i] tensors side by side along the width: [C,H,sum W_i]."""
    _check_dtypes("concat_width", *parts)
    ends = np.cumsum([t.shape[-1] for t in parts])
    return _make(np.concatenate([t.data for t in parts], axis=-1), parts,
                 lambda g: [(t, g[..., end - t.shape[-1] : end]) for t, end in zip(parts, ends)])


# -- spatial ops --------------------------------------------------------------


def _im2col(buf: np.ndarray, kh: int, kw: int, stride: int, origin: int,
            h_out: int, w_out: int) -> np.ndarray:
    """(C*kh*kw, h_out*w_out) matrix of a C-contiguous [C,H,W] buffer whose row
    (c, i, j) holds buf[c, origin + i + stride*y, origin + j + stride*x] at
    column (y, x): one copy of a strided view, none when that is contiguous."""
    c = buf.shape[0]
    sc, sh, sw = buf.strides
    win = np.ndarray((c, kh, kw, h_out, w_out), buf.dtype, buf, origin * (sh + sw),
                     (sc, sh, sw, sh * stride, sw * stride))
    return win.reshape(c * kh * kw, h_out * w_out)


# The 2x2 phase form of a 3x3 kernel. Row (phase, t) of a per-axis tap
# matrix names the kernel taps that act at offset t of a 2x2 window for that
# output phase; the Kronecker product of two rows gives the 2-D taps.
# conv3x3 of a nearest-2x upsampled map, padding 1: phase 0 reads input rows
# (m-1, m) with taps (W0, W1+W2), phase 1 rows (m, m+1) with (W0+W1, W2).
_UPSAMPLE_PHASES = np.kron(*[np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]])] * 2)
# input gradient of a stride-2 conv3x3, padding 1: phase 0 reads g rows
# (m, m+1) with taps (W1, 0), phase 1 with (W2, W0)
_STRIDE2_PHASES = np.kron(*[np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1], [1, 0, 0]])] * 2)


def _phase_kernel(w: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The (4P, 4Q) kernel of the four 2x2 phases of a (P,Q,3,3) kernel ``w``:
    row (a, b, p) for output phase (a, b), column (q, dy, dx)."""
    p, q = w.shape[:2]
    k = (w.reshape(p * q, 9) @ phases.T.astype(w.dtype)).reshape(p, q, 2, 2, 2, 2)
    return k.transpose(2, 4, 0, 1, 3, 5).reshape(4 * p, 4 * q)


def _phase_fold(dk: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The (P,Q,3,3) kernel gradient from the gradient ``dk`` of its phase kernel."""
    p, q = dk.shape[0] // 4, dk.shape[1] // 4
    d = dk.reshape(2, 2, p, q, 2, 2).transpose(2, 3, 0, 4, 1, 5).reshape(p * q, 16)
    return (d @ phases.astype(dk.dtype)).reshape(p, q, 3, 3)


def _phase_view(buf: np.ndarray, shift: int) -> np.ndarray:
    """(P, H, 2, W, 2) view of a C-contiguous (2, 2, P, H+s, W+s) buffer of
    phase planes whose element (p, m, a, n, b) is buf[a, b, p, m+s*a, n+s*b]:
    reshaped to (P, 2H, 2W) it interleaves the phases."""
    _, _, p, hs, ws = buf.shape
    sa, sb, sp, sh, sw = buf.strides
    return np.ndarray((p, hs - shift, 2, ws - shift, 2), buf.dtype, buf, 0,
                      (sp, sh, sa + shift * sh, sw, sb + shift * sw))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over a [C,H,W] input with zero padding.

    The forward and the weight gradient are one matmul each over the
    channel-major im2col (``_im2col``) of the input, zero-padded by ``p``;
    a 1x1 conv at stride 1 without padding uses the [C,H*W] input as is.
    The input gradient is the transposed convolution, also one matmul:
    the flipped, channel-swapped kernel over the kh x kw windows, at offset
    (p, p), of ``g`` written with step ``stride`` at (kh-1, kw-1) into
    zeros of extent (H+2p+kh-1, W+2p+kw-1). At stride 2 with a 3x3 kernel,
    padding 1 and input extents twice the output's (the generator's
    downsampling layer) it is in phase form instead: each of the four 2x2
    phases of the input gradient selects kernel taps (``_STRIDE2_PHASES``)
    over 2x2 windows of ``g`` itself, one matmul for all four, so no
    multiply meets a stuffed zero. Every other shape keeps the general form.
    Only the gradients the active tape tracks are computed, so a frozen
    weight costs no weight-gradient matmul.
    """
    if x.data.ndim != 3 or weight.data.ndim != 4:
        raise AutodiffError(
            f"conv2d expects [C,H,W] input and [O,I,kh,kw] weight, got {x.shape}, {weight.shape}"
        )
    c, h, w = x.shape
    o, i, kh, kw = weight.shape
    if i != c:
        raise AutodiffError(f"conv2d channel mismatch: input has {c}, weight expects {i}")
    if bias.shape != (o,):
        raise AutodiffError(f"conv2d bias shape {bias.shape} != ({o},)")
    if stride < 1 or padding < 0:
        raise AutodiffError(f"conv2d: bad stride {stride} or padding {padding}")
    _check_dtypes("conv2d", x, weight, bias)
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    if hp < kh or wp < kw or h_out < 1 or w_out < 1:
        raise AutodiffError(
            f"conv2d: empty output extent for input {x.shape}, kernel ({kh},{kw}), "
            f"stride {stride}, padding {padding}"
        )

    if padding:
        xp = np.zeros((c, hp, wp), dtype=x.data.dtype)
        xp[:, padding : padding + h, padding : padding + w] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    cols = _im2col(xp, kh, kw, stride, 0, h_out, w_out)
    wmat = weight.data.reshape(o, -1)
    out = wmat @ cols
    out += bias.data[:, None]
    out = out.reshape(o, h_out, w_out)
    tape = _ACTIVE_TAPE
    need_x, need_w, need_b = (tape is not None and tape.tracks(t) for t in (x, weight, bias))
    # the one strided layer of the networks: its input gradient in phase form
    phased = (stride, kh, kw, padding, h, w) == (2, 3, 3, 1, 2 * h_out, 2 * w_out)

    def rule(g):
        g2 = g.reshape(o, -1)  # (O, H'W')
        grads = []
        if need_w:
            grads.append((weight, (g2 @ cols.T).reshape(weight.shape)))
        if need_b:
            grads.append((bias, g2.sum(axis=1)))
        if need_x and phased:
            gp = np.zeros((o, h_out + 1, w_out + 1), dtype=g.dtype)
            gp[:, :h_out, :w_out] = g
            k = _phase_kernel(weight.data.transpose(1, 0, 2, 3), _STRIDE2_PHASES)
            dx = (k @ _im2col(gp, 2, 2, 1, 0, h_out, w_out)).reshape(2, 2, c, h_out, w_out)
            grads.append((x, _phase_view(dx, 0).reshape(c, h, w)))
        elif need_x:
            gp = np.zeros((o, hp + kh - 1, wp + kw - 1), dtype=g.dtype)
            gp[:, kh - 1 :: stride, kw - 1 :: stride][:, :h_out, :w_out] = g
            wflip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            dx = wflip @ _im2col(gp, kh, kw, 1, padding, h, w)
            grads.append((x, dx.reshape(c, h, w)))
        return grads

    return _make(out, (x, weight, bias), rule)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling over [C,H,W]; gradient routes to the first argmax.

    The forward is the elementwise maximum of the four strided quarter
    planes. The backward visits the window offsets in row-major order; each
    offset's winner mask holds the windows whose max it equals and no earlier
    offset took, and ``g`` times that mask fills the offset's quarter plane.
    A mask's zero times a negative ``g`` is -0.0, so one ``+= 0.0`` makes
    every zero +0.0, the bytes of ``g`` copied into zeros; only a -0.0 in
    ``g`` itself lands as +0.0, a sign no parameter's gradient can show,
    since ``backward`` adds every contribution into zeros.
    """
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise AutodiffError(f"max_pool2 needs even extents, got {h}x{w}")
    xd = x.data
    data = np.maximum(np.maximum(xd[:, ::2, ::2], xd[:, ::2, 1::2]),
                      np.maximum(xd[:, 1::2, ::2], xd[:, 1::2, 1::2]))

    def rule(g):
        dx = np.empty_like(xd)
        taken = None  # windows whose max an earlier offset holds
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            won = xd[:, a::2, b::2] == data
            if taken is None:
                taken = won  # this offset's mask is not read again
            else:
                won &= ~taken
                taken |= won
            np.multiply(g, won, out=dx[:, a::2, b::2])
        dx += 0.0
        return [(x, dx)]

    return _make(np.ascontiguousarray(data), (x,), rule)


def upsample_conv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``conv2d(up, weight, bias, padding=1)`` for a 3x3 kernel, where ``up``
    is ``x`` upsampled 2x by nearest neighbour, computed at x's resolution.

    Each 2x2 phase of the upsampled output is a 2x2 convolution of ``x``
    zero-padded by 1, whose taps are sums of the kernel's (``_UPSAMPLE_PHASES``).
    The forward is one matmul of the (4O, 4C) phase kernel by the 2x2
    windows at the (H+1) x (W+1) positions, then an interleave of the
    phases. The weight gradient is the phase kernel's, folded back through
    the same sums; the input gradient is the transposed product,
    overlap-added over the 2x2 windows.
    """
    if x.data.ndim != 3 or weight.data.shape[1:] != (x.shape[0], 3, 3):
        raise AutodiffError(
            f"upsample_conv3x3 expects [C,H,W] input and [O,C,3,3] weight, "
            f"got {x.shape}, {weight.shape}"
        )
    c, h, w = x.shape
    o = weight.shape[0]
    if bias.shape != (o,):
        raise AutodiffError(f"upsample_conv3x3 bias shape {bias.shape} != ({o},)")
    _check_dtypes("upsample_conv3x3", x, weight, bias)
    xp = np.zeros((c, h + 2, w + 2), dtype=x.data.dtype)
    xp[:, 1 : h + 1, 1 : w + 1] = x.data
    cols = _im2col(xp, 2, 2, 1, 0, h + 1, w + 1)
    k = _phase_kernel(weight.data, _UPSAMPLE_PHASES)
    phases = (k @ cols).reshape(2, 2, o, h + 1, w + 1)
    out = (_phase_view(phases, 1) + bias.data[:, None, None, None, None]).reshape(o, 2 * h, 2 * w)
    tape = _ACTIVE_TAPE
    need_x, need_w, need_b = (tape is not None and tape.tracks(t) for t in (x, weight, bias))

    def rule(g):
        gp = np.zeros((2, 2, o, h + 1, w + 1), dtype=g.dtype)
        _phase_view(gp, 1)[...] = g.reshape(o, h, 2, w, 2)
        gp = gp.reshape(4 * o, -1)
        grads = []
        if need_w:
            grads.append((weight, _phase_fold(gp @ cols.T, _UPSAMPLE_PHASES)))
        if need_b:
            grads.append((bias, g.reshape(o, -1).sum(axis=1)))
        if need_x:
            d = (k.T @ gp).reshape(c, 2, 2, h + 1, w + 1)
            dx = d[:, 0, 0, 1:, 1:] + d[:, 0, 1, 1:, :-1]
            dx += d[:, 1, 0, :-1, 1:]
            dx += d[:, 1, 1, :-1, :-1]
            grads.append((x, dx))
        return grads

    return _make(out, (x, weight, bias), rule)
