"""RGB image type, binary PPM I/O, crops, augmentation, and distortions.

Images are HxWx3 float64 rasters in [0,1]; constructors clamp on the way
in so every stored value stays inside the range. Tensor conversion is a
lossless [3,H,W] transpose.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .tensor import Tensor


class ImageError(Exception):
    """Raised on malformed files or invalid image operations."""


@dataclass(frozen=True)
class Image:
    pixels: np.ndarray  # (H, W, 3) float64 in [0, 1]

    @staticmethod
    def from_array(arr: np.ndarray) -> "Image":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ImageError(f"expected (H, W, 3) array, got {arr.shape}")
        return Image(np.ascontiguousarray(np.clip(arr, 0.0, 1.0)))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def to_tensor(image: Image) -> Tensor:
    """Image -> Tensor[3,H,W] in float32, the element type of every network."""
    return Tensor(image.pixels.transpose(2, 0, 1), np.float32)


def from_tensor(t: Tensor) -> Image:
    """Tensor[3,H,W] -> Image, clamping to [0,1] on write-out."""
    if t.data.ndim != 3 or t.shape[0] != 3:
        raise ImageError(f"expected [3,H,W] tensor, got {t.shape}")
    return Image.from_array(t.data.transpose(1, 2, 0))


# -- PPM (P6, maxval 255) -----------------------------------------------------


def save_image(image: Image, path) -> None:
    h, w = image.height, image.width
    payload = np.round(np.clip(image.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(payload.tobytes())


PPM_COMMENT_BYTES = 1024  # the longest '#' header comment read, newline included


def _read_token(f) -> bytes:
    # whitespace-delimited token, skipping '#' comments
    tok = b""
    while True:
        ch = f.read(1)
        if ch == b"":
            raise ImageError("truncated PPM header")
        if ch == b"#":
            comment = f.readline(PPM_COMMENT_BYTES)
            if len(comment) == PPM_COMMENT_BYTES and not comment.endswith(b"\n"):
                raise ImageError(
                    f"malformed PPM header: a comment longer than {PPM_COMMENT_BYTES} bytes")
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch
        if len(tok) > 32:  # the magic and the three decimal fields need about 10 bytes
            raise ImageError("malformed PPM header: a token longer than 32 bytes")


def load_image(path) -> Image:
    """Read a binary PPM; every error names ``path``."""
    return decode_ppm(load_ppm(path))


def load_ppm(path) -> np.ndarray:
    """The (H, W, 3) uint8 payload of a binary PPM, undecoded; every error
    names ``path``."""
    try:
        with open(path, "rb") as f:
            return _read_ppm(f)
    except OSError as e:
        raise ImageError(f"cannot read image {path}: {e.strerror}") from None
    except ImageError as e:
        raise ImageError(f"{path}: {e}") from None


def decode_ppm(payload: np.ndarray) -> Image:
    """The image a ``load_ppm`` payload holds."""
    return Image(payload.astype(np.float64) / 255.0)


def _read_ppm(f) -> np.ndarray:
    magic = _read_token(f)
    if magic != b"P6":
        raise ImageError(f"unsupported PPM magic {magic!r} (only binary P6)")
    try:
        w = int(_read_token(f))
        h = int(_read_token(f))
        maxval = int(_read_token(f))
    except ValueError as e:
        raise ImageError(f"malformed PPM header: {e}") from None
    if w <= 0 or h <= 0:
        raise ImageError(f"invalid PPM dimensions {w}x{h}")
    if maxval != 255:
        raise ImageError(f"unsupported PPM maxval {maxval} (only 255)")
    size = w * h * 3
    if f.seekable():  # a declared size is checked against the file's before it is allocated
        start = f.tell()
        held = f.seek(0, 2) - start
        f.seek(start)
        if held < size:
            raise ImageError(f"truncated PPM payload: expected {size} bytes, got {held}")
    payload = f.read(size)
    if len(payload) != size:  # a pipe, whose size is known only once it is read
        raise ImageError(f"truncated PPM payload: expected {size} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


# -- crops and augmentation ---------------------------------------------------


def random_crop(image: Image, size: int, rng: Rng) -> Image:
    """Axis-aligned size x size crop at a uniform valid offset."""
    if size > min(image.height, image.width):
        raise ImageError(
            f"crop size {size} exceeds image extent {image.height}x{image.width}"
        )
    top = rng.integers(0, image.height - size + 1)
    left = rng.integers(0, image.width - size + 1)
    return Image(np.ascontiguousarray(image.pixels[top : top + size, left : left + size]))


def augment(image: Image, rng: Rng) -> Image:
    """Independent 50% horizontal/vertical flips plus a 90-degree rotation."""
    if image.height != image.width:
        raise ImageError("augment requires a square image (rotations)")
    px = image.pixels
    if rng.uniform() < 0.5:
        px = px[:, ::-1]
    if rng.uniform() < 0.5:
        px = px[::-1, :]
    k = rng.integers(0, 4)
    if k:
        px = np.rot90(px, k)
    return Image(np.ascontiguousarray(px))


# -- distortions ---------------------------------------------------------------


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian of radius ceil(3*sigma). A sigma so small
    that 2*sigma^2 underflows to 0 (below about 1.5e-162) makes the centre
    tap 0/0, and its NaN kernel is refused with ImageError."""
    if sigma <= 0:
        raise ImageError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(all="ignore"):  # a tiny sigma's -x^2/0 and 0/0
        k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    total = k.sum()
    if not np.isfinite(total):
        raise ImageError(f"sigma {sigma:g} is too small: its Gaussian kernel is not finite")
    return k / total


# filter matrices kept: ms_ssim uses up to six keys (three scales, two axes)
# and the color loss one; a blur with a fresh sigma adds one, evicted in turn
FILTER_CACHE_SIZE = 8


def _filter_matrix(n: int, kernel: np.ndarray, dtype) -> np.ndarray:
    """The (n, n) matrix that correlates an axis of extent ``n`` with
    ``kernel``, reflect-padded, read-only and shared: each (extent, kernel
    values and type, element type) is built once by ``_build_filter_matrix``
    and kept in its LRU cache of ``FILTER_CACHE_SIZE`` matrices."""
    return _build_filter_matrix(n, kernel.tobytes(), kernel.dtype.str, np.dtype(dtype).str)


@functools.lru_cache(maxsize=FILTER_CACHE_SIZE)
def _build_filter_matrix(n: int, kernel: bytes, kernel_type: str, dtype: str) -> np.ndarray:
    """Tap t of row i reads padded position i + t, whose weight is added to
    the entry of the position that pad reflects: position p reads |p| folded
    into a period of 2(n - 1), which is ``np.pad``'s "reflect", repeated
    when the radius is at least ``n``."""
    weights = np.frombuffer(kernel, kernel_type).astype(dtype)
    radius = len(weights) // 2
    period = max(2 * (n - 1), 1)
    source = np.abs(np.arange(-radius, n + radius)) % period
    source = np.minimum(source, period - source)
    rows = np.arange(n)[:, None]
    m = np.zeros((n, n), dtype)
    np.add.at(m, (rows, source[rows + np.arange(len(weights))]), weights)
    m.flags.writeable = False
    return m


def separable_filter(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate the two trailing axes of ``arr`` with ``kernel``,
    reflect-padded: ``Mh @ arr @ Mw.T`` with each axis' filter matrix, built
    once per extent, kernel and element type and shared read-only."""
    mh, mw = (_filter_matrix(n, kernel, arr.dtype) for n in arr.shape[-2:])
    return mh @ arr @ mw.T


def separable_filter_adjoint(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The transpose of ``separable_filter``, ``Mh.T @ g @ Mw``: the gradient
    of its input."""
    mh, mw = (_filter_matrix(n, kernel, g.dtype) for n in g.shape[-2:])
    return mh.T @ g @ mw


def gaussian_blur(image: Image, sigma: float) -> Image:
    """Separable Gaussian blur with reflect padding."""
    planes = separable_filter(image.pixels.transpose(2, 0, 1), gaussian_kernel1d(sigma))
    return Image.from_array(planes.transpose(1, 2, 0))


def check_jitter_ranges(scale_range: tuple[float, float],
                        bias_range: tuple[float, float]) -> None:
    """Raise ImageError unless both ranges are ordered and inside the bounds
    ``color_jitter`` accepts: scale in [0, 1.5], bias in [-0.25, 0.25]."""
    if not (0.0 <= scale_range[0] <= scale_range[1] <= 1.5):
        raise ImageError(f"jitter scale range {scale_range} outside [0.0, 1.5]")
    if not (-0.25 <= bias_range[0] <= bias_range[1] <= 0.25):
        raise ImageError(f"jitter bias range {bias_range} outside [-0.25, 0.25]")


def color_jitter(image: Image, rng: Rng,
                 scale_range: tuple[float, float] = (0.6, 1.4),
                 bias_range: tuple[float, float] = (-0.1, 0.1)) -> Image:
    """Per-channel affine jitter v' = clamp(s*v + b, 0, 1)."""
    check_jitter_ranges(scale_range, bias_range)
    s = rng.uniform(*scale_range, size=3)
    b = rng.uniform(*bias_range, size=3)
    return Image.from_array(image.pixels * s + b)


GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])  # BT.601 luma


def to_grayscale(image: Image) -> Image:
    luma = image.pixels @ GRAY_WEIGHTS
    return Image.from_array(np.repeat(luma[:, :, None], 3, axis=2))
