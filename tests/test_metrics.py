import math

import numpy as np
import pytest

from dpl import image as image_module
from dpl import metrics
from dpl.image import GRAY_WEIGHTS, Image, gaussian_blur, gaussian_kernel1d, separable_filter
from dpl.metrics import MetricError, feature_distance, ms_ssim, psnr
from dpl.networks import FeatureNetPsi
from dpl.rng import Rng
from dpl.synth import generate_synthetic


def _img(seed, size=32):
    return Image.from_array(np.random.default_rng(seed).uniform(size=(size, size, 3)))


def _scene(seed, size=64):
    data = list(generate_synthetic("darken", 1, size, Rng(seed)))
    return data[0][1]  # the clean target


# -- psnr ----------------------------------------------------------------------------


def test_psnr_identical_is_infinite():
    a = _img(0)
    assert psnr(a, a) == math.inf


def test_psnr_constant_offset_exact():
    a = Image.from_array(np.full((8, 8, 3), 0.3))
    b = Image.from_array(np.full((8, 8, 3), 0.4))
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-9)


def test_psnr_symmetric_and_monotone():
    a = _img(1)
    near = Image.from_array(np.clip(a.pixels + 0.01, 0, 1))
    far = Image.from_array(np.clip(a.pixels + 0.1, 0, 1))
    assert psnr(a, near) == pytest.approx(psnr(near, a), rel=1e-12)
    assert psnr(a, near) > psnr(a, far)


def test_psnr_shape_mismatch():
    with pytest.raises(MetricError, match="shape"):
        psnr(_img(2, 32), _img(3, 16))


# -- ms-ssim --------------------------------------------------------------------------


def test_ms_ssim_identity_is_one():
    a = _scene(4)
    assert ms_ssim(a, a) == pytest.approx(1.0, abs=1e-9)


def test_ms_ssim_inversion_is_low():
    a = _scene(5)
    b = Image.from_array(1.0 - a.pixels)
    assert ms_ssim(a, b) < 0.2


def test_ms_ssim_blur_lowers_score():
    a = _scene(6)
    blurred = gaussian_blur(a, 2.0)
    score = ms_ssim(a, blurred)
    assert 0.0 < score < 1.0


def test_ms_ssim_more_distortion_scores_lower():
    a = _scene(7)
    mild = gaussian_blur(a, 1.0)
    heavy = gaussian_blur(a, 3.0)
    assert ms_ssim(a, mild) > ms_ssim(a, heavy)


def test_ms_ssim_symmetric():
    a, b = _scene(8), gaussian_blur(_scene(8), 1.5)
    assert ms_ssim(a, b) == pytest.approx(ms_ssim(b, a), rel=1e-9)


def test_ms_ssim_minimum_extent():
    with pytest.raises(MetricError, match="32"):
        ms_ssim(_img(9, 16), _img(10, 16))


def test_ms_ssim_bounded():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = Image.from_array(rng.uniform(size=(32, 32, 3)))
        b = Image.from_array(rng.uniform(size=(32, 32, 3)))
        s = ms_ssim(a, b)
        assert 0.0 <= s <= 1.0


def ms_ssim_oracle(a, b):
    """ms_ssim with each of the five moment maps filtered on its own."""
    x, y = a.pixels @ GRAY_WEIGHTS, b.pixels @ GRAY_WEIGHTS
    k = gaussian_kernel1d(1.5)
    value = 1.0
    for scale in range(metrics.MSSSIM_SCALES):
        mu_x, mu_y = separable_filter(x, k), separable_filter(y, k)
        sxx = separable_filter(x * x, k) - mu_x * mu_x
        syy = separable_filter(y * y, k) - mu_y * mu_y
        sxy = separable_filter(x * y, k) - mu_x * mu_y
        cs = max(float(np.mean((2 * sxy + metrics._C2) / (sxx + syy + metrics._C2))), 0.0)
        weight = metrics.MSSSIM_WEIGHTS[scale]
        if scale == metrics.MSSSIM_SCALES - 1:
            lum = float(np.mean((2 * mu_x * mu_y + metrics._C1)
                                / (mu_x**2 + mu_y**2 + metrics._C1)))
            lum = max(lum, 0.0)
            value *= (lum * cs) ** weight if lum * cs > 0 else 0.0
        else:
            value *= cs**weight if cs > 0 else 0.0
            x, y = metrics._downsample2(x), metrics._downsample2(y)
    return min(max(value, 0.0), 1.0)


@pytest.mark.parametrize("shape", [(32, 32), (33, 47), (64, 64)])
def test_ms_ssim_stacked_filter_is_bitwise_the_oracle(shape):
    rng = np.random.default_rng(list(shape))
    for trial in range(20):
        a = Image.from_array(rng.uniform(size=(*shape, 3)))
        if trial % 2:
            b = Image.from_array(rng.uniform(size=(*shape, 3)))
        else:
            b = gaussian_blur(Image.from_array(a.pixels * rng.uniform(0.3, 1.0)),
                              rng.uniform(0.5, 2.0))
        assert ms_ssim(a, b).hex() == ms_ssim_oracle(a, b).hex()


def test_ms_ssim_of_many_pairs_builds_three_filter_matrices():
    # was six builds per pair: both axes' matrices at each of the three scales
    image_module._build_filter_matrix.cache_clear()
    for seed in range(5):
        ms_ssim(_img(seed), _img(seed + 10))
    info = image_module._build_filter_matrix.cache_info()
    assert (info.misses, info.hits) == (3, 5 * 6 - 3)  # 32, 16 and 8 px, float64


# -- feature distance -------------------------------------------------------------------


def test_feature_distance_identity_zero(pretrained_psi):
    psi = pretrained_psi
    a = _scene(12, 32)
    assert feature_distance(a, a, psi) == pytest.approx(0.0, abs=1e-10)


def test_feature_distance_symmetric_nonnegative(pretrained_psi):
    psi = pretrained_psi
    a, b = _scene(13, 32), _scene(14, 32)
    d = feature_distance(a, b, psi)
    assert d > 0
    assert d == pytest.approx(feature_distance(b, a, psi), rel=1e-6)


def test_feature_distance_ranks_similarity(pretrained_psi):
    # a mildly distorted copy must sit closer in feature space than an
    # unrelated scene
    psi = pretrained_psi
    a = _scene(15, 32)
    near = gaussian_blur(a, 0.6)
    far = _scene(16, 32)
    assert feature_distance(a, near, psi) < feature_distance(a, far, psi)

