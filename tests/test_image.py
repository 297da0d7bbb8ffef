import io
import os
import warnings

import numpy as np
import pytest

from dpl import image as image_module
from dpl.image import (Image, ImageError, _read_ppm, augment, color_jitter, from_tensor,
                       gaussian_blur, gaussian_kernel1d, load_image, load_ppm, random_crop,
                       save_image, separable_filter, separable_filter_adjoint,
                       to_grayscale, to_tensor)
from dpl.rng import Rng
from dpl.synth import SynthError, generate_synthetic


def _random_image(seed, size=16):
    rng = np.random.default_rng(seed)
    return Image.from_array(rng.uniform(size=(size, size, 3)))


# -- PPM I/O --------------------------------------------------------------------


def test_ppm_round_trip(tmp_path):
    img = _random_image(0)
    path = tmp_path / "a.ppm"
    save_image(img, path)
    back = load_image(path)
    assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 255


def test_ppm_round_trip_exact_on_quantized(tmp_path):
    img = _random_image(1)
    path = tmp_path / "a.ppm"
    save_image(img, path)
    once = load_image(path)
    save_image(once, path)
    again = load_image(path)
    assert np.array_equal(once.pixels, again.pixels)


def test_ppm_single_red_pixel(tmp_path):
    path = tmp_path / "red.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = load_image(path)
    assert np.allclose(img.pixels[0, 0], [1.0, 0.0, 0.0])


def test_ppm_truncated_payload(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
    with pytest.raises(ImageError, match="truncated") as err:
        load_image(path)
    assert str(path) in str(err.value)  # a bad image in a dataset can be found


def test_ppm_bad_maxval(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(ImageError, match="maxval"):
        load_image(path)


def test_ppm_bad_magic(tmp_path):
    path = tmp_path / "nope.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ImageError, match="magic"):
        load_image(path)


def test_ppm_overlong_header_token_is_refused_after_the_bound():
    # was `truncated PPM header` after reading the whole token a byte at a
    # time, in time growing with the square of its length
    f = io.BytesIO(b"\0" * 200_000)
    with pytest.raises(ImageError, match="malformed PPM header"):
        _read_ppm(f)
    assert f.tell() <= 33


@pytest.mark.parametrize("extent", [100_000, 4_000_000_000])
def test_ppm_header_that_declares_more_than_its_file_holds_is_refused(tmp_path, extent):
    # was `out of memory` with an empty reason at 100000x100000, and an
    # OverflowError traceback at 4000000000x4000000000: the payload was read
    # at the declared size before its length was compared
    path = tmp_path / "huge.ppm"
    path.write_bytes(f"P6\n{extent} {extent}\n255\n".encode() + bytes(3))
    want = f"truncated PPM payload: expected {extent * extent * 3} bytes, got 3"
    with pytest.raises(ImageError, match=want) as err:
        load_ppm(path)
    assert str(err.value).startswith(f"{path}: ")


def _pipe(data: bytes):
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as w:
        w.write(data)
    return open(read_end, "rb")


def test_ppm_read_from_a_pipe():
    # a pipe cannot tell its size, so its payload is read before it is measured
    with _pipe(b"P6\n1 2\n255\n" + bytes([1, 2, 3, 4, 5, 6])) as f:
        assert not f.seekable()
        assert _read_ppm(f).tolist() == [[[1, 2, 3]], [[4, 5, 6]]]
    with _pipe(b"P6\n2 2\n255\n" + bytes(3)) as f:
        with pytest.raises(ImageError, match="expected 12 bytes, got 3"):
            _read_ppm(f)


def test_ppm_overlong_header_comment_is_refused_after_the_bound():
    # was `truncated PPM header` after reading the whole comment a byte at a time
    bound = image_module.PPM_COMMENT_BYTES
    f = io.BytesIO(b"P6\n#" + b"a" * 2_000_000)
    with pytest.raises(ImageError, match="malformed PPM header: a comment longer than"):
        _read_ppm(f)
    assert f.tell() <= 4 + bound
    # a comment that fills the bound with its newline is read
    f = io.BytesIO(b"P6\n#" + b"a" * (bound - 1) + b"\n1 1\n255\n" + bytes([1, 2, 3]))
    assert _read_ppm(f).tolist() == [[[1, 2, 3]]]


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n1 1\n255\n" + bytes([10, 20, 30]))
    img = load_image(path)
    assert img.pixels[0, 0, 0] == pytest.approx(10 / 255)


# -- tensor round trip -----------------------------------------------------------


def test_tensor_round_trip():
    img = _random_image(2)
    assert np.allclose(from_tensor(to_tensor(img)).pixels, img.pixels, atol=1e-6)


# -- cropping and augmentation -----------------------------------------------------


def test_crop_full_size_identity():
    img = _random_image(3)
    out = random_crop(img, 16, Rng(0))
    assert np.array_equal(out.pixels, img.pixels)


def test_crop_too_large_errors():
    with pytest.raises(ImageError, match="crop size"):
        random_crop(_random_image(4), 17, Rng(0))


def test_crop_offsets_cover_extremes():
    img = Image.from_array(np.mgrid[0:64, 0:64][0][:, :, None].repeat(3, 2) / 64.0)
    rng = Rng(5)
    tops = set()
    lefts = set()
    for _ in range(1000):
        crop = random_crop(img, 32, rng)
        tops.add(int(round(crop.pixels[0, 0, 0] * 64)))
        lefts.add(crop is not None)
    assert 0 in tops and 32 in tops


def test_crop_constant_image_constant():
    img = Image.from_array(np.full((16, 16, 3), 0.3))
    crop = random_crop(img, 5, Rng(6))
    assert np.allclose(crop.pixels, 0.3)


def test_crop_in_bounds_fuzz():
    img = _random_image(7, size=9)
    rng = Rng(8)
    for size in range(1, 10):
        for _ in range(20):
            crop = random_crop(img, size, rng)
            assert crop.pixels.shape == (size, size, 3)


def test_augment_preserves_pixel_multiset():
    img = _random_image(9)
    rng = Rng(10)
    for _ in range(50):
        out = augment(img, rng)
        assert np.array_equal(np.sort(out.pixels.ravel()), np.sort(img.pixels.ravel()))


def test_augment_same_seed_same_result():
    img = _random_image(11)
    a = augment(img, Rng(12))
    b = augment(img, Rng(12))
    assert np.array_equal(a.pixels, b.pixels)


def test_augment_rejects_non_square():
    img = Image.from_array(np.zeros((8, 12, 3)))
    with pytest.raises(ImageError, match="square"):
        augment(img, Rng(0))


def test_rot180_twice_is_identity():
    img = _random_image(13)
    once = Image.from_array(np.rot90(img.pixels, 2))
    twice = Image.from_array(np.rot90(once.pixels, 2))
    assert np.array_equal(twice.pixels, img.pixels)


# -- blur -------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.5, 5.0])
def test_blur_kernel_normalized(sigma):
    assert gaussian_kernel1d(sigma).sum() == pytest.approx(1.0, abs=1e-9)


def test_blur_kernel_of_a_sigma_whose_variance_underflows_is_refused():
    # 2 sigma^2 underflows to 0: was [nan, nan, nan] and three RuntimeWarnings;
    # a subnormal 2 sigma^2 still gives the unit impulse, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImageError, match="sigma 1e-300 is too small"):
            gaussian_kernel1d(1e-300)
        assert np.array_equal(gaussian_kernel1d(1e-160), [0.0, 1.0, 0.0])


def test_blur_constant_invariance():
    img = Image.from_array(np.full((16, 16, 3), 0.42))
    out = gaussian_blur(img, 2.0)
    assert np.allclose(out.pixels, 0.42, atol=1e-12)


def test_blur_preserves_channel_means():
    # smooth content at 128px: border asymmetry under reflect padding is
    # the only source of drift, and it shrinks with image size
    img = list(generate_synthetic("colorcast", 1, 128, Rng(14)))[0][1]
    out = gaussian_blur(img, 1.5)
    for c in range(3):
        assert out.pixels[:, :, c].mean() == pytest.approx(
            img.pixels[:, :, c].mean(), abs=1e-4)


def test_blur_matches_dense_kernel_oracle():
    img = _random_image(15, size=12)
    sigma = 1.2
    k = gaussian_kernel1d(sigma)
    dense = np.outer(k, k)
    r = len(k) // 2
    padded = np.pad(img.pixels, ((r, r), (r, r), (0, 0)), mode="reflect")
    want = np.zeros_like(img.pixels)
    for y in range(12):
        for x in range(12):
            for c in range(3):
                want[y, x, c] = np.sum(dense * padded[y : y + 2 * r + 1, x : x + 2 * r + 1, c])
    got = gaussian_blur(img, sigma)
    assert np.allclose(got.pixels, want, atol=1e-6)


@pytest.mark.parametrize("radius", range(1, 14))
def test_separable_filter_matches_reflect_pad_oracle(radius):
    # extents 1..9: radii at, above and more than twice the extent, where
    # np.pad reflects more than once; 8, 16 and 32, the extents the program
    # filters; one axis above 128; the adjoint is checked as a transpose
    rng = np.random.default_rng(90 + radius)
    kernel = rng.uniform(size=2 * radius + 1)
    taps = 2 * radius + 1
    for h, w in ((1, 1), (1, 4), (2, 6), (3, 3), (5, 2), (6, 6), (9, 7),
                 (8, 8), (16, 16), (32, 32), (130, 3)):
        v = rng.normal(size=(2, h, w))
        padded = np.pad(v, ((0, 0), (radius, radius), (radius, radius)), mode="reflect")
        want = np.array([[[np.outer(kernel, kernel).ravel()
                           @ padded[c, i : i + taps, j : j + taps].ravel()
                           for j in range(w)] for i in range(h)] for c in range(2)])
        assert np.allclose(separable_filter(v, kernel), want, rtol=1e-12, atol=1e-12)
        g = rng.normal(size=(2, h, w))
        assert np.vdot(separable_filter_adjoint(g, kernel), v) == pytest.approx(
            np.vdot(g, want), rel=1e-12, abs=1e-12)


def _uncached_filter_matrix(n, kernel, dtype):
    return image_module._build_filter_matrix.__wrapped__(
        n, kernel.tobytes(), kernel.dtype.str, np.dtype(dtype).str)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (32, 32), (12, 20)])
def test_separable_filter_is_bitwise_the_uncached_matrices(dtype, shape):
    # the kernels blur_tensor (float32) and ms_ssim / gaussian_blur (float64) pass
    kernel = gaussian_kernel1d(1.5).astype(dtype)
    rng = np.random.default_rng(sum(shape))
    arr = rng.normal(size=(3, *shape)).astype(dtype)
    mh, mw = (_uncached_filter_matrix(n, kernel, dtype) for n in shape)
    want, want_adjoint = mh @ arr @ mw.T, mh.T @ arr @ mw
    image_module._build_filter_matrix.cache_clear()
    for _ in range(2):  # the call that builds the matrices, then one that finds them
        got, got_adjoint = separable_filter(arr, kernel), separable_filter_adjoint(arr, kernel)
        assert got.dtype == got_adjoint.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert got_adjoint.tobytes() == want_adjoint.tobytes()


def test_cached_filter_matrix_is_read_only():
    m = image_module._filter_matrix(8, gaussian_kernel1d(1.5), np.float64)
    assert m is image_module._filter_matrix(8, gaussian_kernel1d(1.5), np.float64)
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1.0


def test_fresh_sigma_blurs_leave_the_cache_at_its_bound():
    # a blur distortion draws a new sigma per call: each is one more key, and
    # the matrix used between them (as the color loss's is) stays cached
    build = image_module._build_filter_matrix
    build.cache_clear()
    img = _random_image(21)
    hot = gaussian_kernel1d(2.0)
    for i in range(100):
        gaussian_blur(img, 1.0 + i / 100)
        separable_filter(np.zeros((3, 32, 32)), hot)
    info = build.cache_info()
    assert info.currsize == info.maxsize == image_module.FILTER_CACHE_SIZE
    assert info.misses == 101  # one build per sigma (both axes are 16 px) and one for hot


# -- jitter / grayscale -------------------------------------------------------------


def test_jitter_identity_ranges():
    img = _random_image(16)
    out = color_jitter(img, Rng(17), (1.0, 1.0), (0.0, 0.0))
    assert np.allclose(out.pixels, img.pixels, atol=1e-12)


def test_jitter_zero_scale_black():
    img = _random_image(18)
    out = color_jitter(img, Rng(19), (0.0, 0.0), (0.0, 0.0))
    assert np.allclose(out.pixels, 0.0)


def test_jitter_output_in_unit_interval():
    img = _random_image(20)
    rng = Rng(21)
    for _ in range(50):
        out = color_jitter(img, rng, (0.5, 1.5), (-0.25, 0.25))
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


def test_grayscale_fixed_point():
    img = Image.from_array(np.repeat(np.random.default_rng(22).uniform(
        size=(8, 8, 1)), 3, axis=2))
    out = to_grayscale(img)
    assert np.allclose(out.pixels, img.pixels, atol=1e-12)


def test_grayscale_pure_red():
    img = Image.from_array(np.zeros((4, 4, 3)))
    img.pixels[:, :, 0] = 1.0
    out = to_grayscale(Image.from_array(img.pixels))
    assert np.allclose(out.pixels, 0.299, atol=1e-12)


def test_grayscale_idempotent():
    img = _random_image(23)
    once = to_grayscale(img)
    twice = to_grayscale(once)
    assert np.allclose(once.pixels, twice.pixels, atol=1e-12)


# -- synthetic data ------------------------------------------------------------------


def test_synthetic_deterministic():
    a = generate_synthetic("darken", 3, 32, Rng(24))
    b = generate_synthetic("darken", 3, 32, Rng(24))
    for (xa, ya), (xb, yb) in zip(a, b):
        assert np.array_equal(xa.pixels, xb.pixels)
        assert np.array_equal(ya.pixels, yb.pixels)


def test_darken_pairs_dimmer():
    for x, y in generate_synthetic("darken", 20, 32, Rng(25)):
        assert x.pixels.mean() < y.pixels.mean()


def test_size_too_small_rejected():
    with pytest.raises(SynthError, match="size"):
        generate_synthetic("darken", 1, 8, Rng(0))


def test_unknown_task_rejected():
    with pytest.raises(SynthError, match="unknown task"):
        generate_synthetic("sharpen", 1, 32, Rng(0))


def test_textures_nearest_centroid_above_chance():
    train = generate_synthetic("textures", 300, 32, Rng(26))
    test = list(generate_synthetic("textures", 100, 32, Rng(27)))
    centroids = np.zeros((10, 32 * 32 * 3))
    counts = np.zeros(10)
    for img, label in train:
        centroids[label] += img.pixels.ravel()
        counts[label] += 1
    centroids /= counts[:, None]
    hits = 0
    for img, label in test:
        d = np.linalg.norm(centroids - img.pixels.ravel(), axis=1)
        hits += int(np.argmin(d)) == label
    assert hits / len(test) > 0.2  # chance is 0.1


def test_outputs_stay_in_unit_interval():
    rng = Rng(28)
    for task in ("darken", "colorcast", "blur"):
        for x, y in generate_synthetic(task, 5, 32, rng):
            for im in (x, y):
                assert im.pixels.min() >= 0.0 and im.pixels.max() <= 1.0
