"""Evaluation metrics: PSNR, a 3-scale MS-SSIM, and DFD.

DFD (disentangled feature distance) is a feature-space distance under the
frozen internal extractor. It is NOT LPIPS and is never reported as such;
values are comparable across runs of this artifact only.
"""

from __future__ import annotations

import math

import numpy as np

from .image import GRAY_WEIGHTS, gaussian_kernel1d, separable_filter, to_tensor
from .networks import FeatureNetPsi

MSSSIM_SCALES = 3
MS_SSIM_MIN_EXTENT = 32  # smallest image height/width ms_ssim accepts
# first three Wang et al. weights, renormalized to sum 1
_W = np.array([0.0448, 0.2856, 0.3001])
MSSSIM_WEIGHTS = _W / _W.sum()
_C1 = 0.01**2
_C2 = 0.03**2
_KERNEL = gaussian_kernel1d(1.5)  # 11 taps


class MetricError(Exception):
    pass


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against peak 1.0; +inf for equality."""
    if a.shape != b.shape:
        raise MetricError(f"psnr shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _downsample2(img: np.ndarray) -> np.ndarray:
    h, w = (img.shape[0] // 2) * 2, (img.shape[1] // 2) * 2
    return img[:h, :w].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def ms_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Luminance-channel multi-scale SSIM with 3 dyadic scales."""
    if a.shape != b.shape:
        raise MetricError(f"ms_ssim shape mismatch {a.shape} vs {b.shape}")
    h, w = a.shape[:2]
    if min(h, w) < MS_SSIM_MIN_EXTENT:
        raise MetricError(f"ms_ssim needs min extent >= {MS_SSIM_MIN_EXTENT}, got {h}x{w}")
    x = a @ GRAY_WEIGHTS
    y = b @ GRAY_WEIGHTS
    value = 1.0
    for scale in range(MSSSIM_SCALES):
        mu_x, mu_y, mxx, myy, mxy = separable_filter(np.stack([x, y, x * x, y * y, x * y]), _KERNEL)
        sxx = mxx - mu_x * mu_x
        syy = myy - mu_y * mu_y
        sxy = mxy - mu_x * mu_y
        cs = float(np.mean((2 * sxy + _C2) / (sxx + syy + _C2)))
        cs = max(cs, 0.0)
        if scale == MSSSIM_SCALES - 1:
            lum = float(np.mean((2 * mu_x * mu_y + _C1) / (mu_x**2 + mu_y**2 + _C1)))
            lum = max(lum, 0.0)
            value *= (lum * cs) ** MSSSIM_WEIGHTS[scale] if lum * cs > 0 else 0.0
        else:
            value *= cs ** MSSSIM_WEIGHTS[scale] if cs > 0 else 0.0
            x, y = _downsample2(x), _downsample2(y)
    return min(max(value, 0.0), 1.0)


def feature_distance(a: np.ndarray, b: np.ndarray, psi: FeatureNetPsi) -> float:
    """DFD: mean over taps of the MSE between per-position unit-normalized
    features of the frozen extractor."""
    if a.shape != b.shape:
        raise MetricError(f"dfd shape mismatch {a.shape} vs {b.shape}")
    fa = psi(to_tensor(a))
    fb = psi(to_tensor(b))
    total = 0.0
    for ta, tb in zip(fa, fb):
        xa, xb = ta.data, tb.data
        na = xa / np.sqrt((xa * xa).sum(axis=0, keepdims=True) + 1e-10)
        nb = xb / np.sqrt((xb * xb).sum(axis=0, keepdims=True) + 1e-10)
        total += float(np.mean((na - nb) ** 2))
    return total / len(fa)

