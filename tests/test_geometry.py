"""Grid arithmetic, crop sampling, keypoint transforms, patchify round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmim import data_io
from pmim.errors import ConfigError
from pmim.geometry import (
    COCO_FLIP_PERM,
    COCO_KEYPOINT_NAMES,
    CropParams,
    ImageBuffer,
    KeypointSet,
    apply_crop,
    make_patch_grid,
    normalize_targets,
    patchify,
    sample_crop,
    transform_keypoints,
    unpatchify,
)


def _kps(coords):
    """Build a KeypointSet from a {name: (x, y)} dict, conf 1 where given."""
    pts = np.zeros((17, 3))
    for name, (x, y) in coords.items():
        i = COCO_KEYPOINT_NAMES.index(name)
        pts[i] = [x, y, 1.0]
    return KeypointSet(pts)


def test_patch_grid_dimensions():
    g = make_patch_grid(256, 128, 16)
    assert (g.grid_h, g.grid_w) == (16, 8)
    assert g.n_patches == 128
    assert (g.image_h, g.image_w) == (256, 128)

    assert make_patch_grid(16, 16, 16).n_patches == 1
    g2 = make_patch_grid(64, 32, 8)
    assert (g2.grid_h, g2.grid_w) == (8, 4)


def test_patch_grid_rejects_indivisible():
    with pytest.raises(ConfigError):
        make_patch_grid(100, 128, 16)
    with pytest.raises(ConfigError):
        make_patch_grid(128, 100, 16)
    with pytest.raises(ConfigError):
        make_patch_grid(128, 128, 0)


def test_image_buffer_validation():
    ImageBuffer(np.zeros((4, 4, 3)))
    with pytest.raises(ConfigError):
        ImageBuffer(np.zeros((4, 4)))
    with pytest.raises(ConfigError):
        ImageBuffer(np.full((2, 2, 3), 1.5))
    with pytest.raises(ConfigError):
        ImageBuffer(np.full((2, 2, 3), -0.1))


def test_keypoint_set_validation():
    with pytest.raises(ConfigError):
        KeypointSet(np.zeros((16, 3)))
    bad = np.zeros((17, 3))
    bad[3, 0] = np.nan
    with pytest.raises(ConfigError):
        KeypointSet(bad)
    for conf in (2.0, -0.1, np.nan):  # NaN fails both bounds, so it is no confidence
        bad2 = np.zeros((17, 3))
        bad2[0, 2] = conf
        with pytest.raises(ConfigError, match="confidences"):
            KeypointSet(bad2)


def test_flip_perm_swaps_sides():
    for i, name in enumerate(COCO_KEYPOINT_NAMES):
        j = COCO_FLIP_PERM[i]
        if name.startswith("left_"):
            assert COCO_KEYPOINT_NAMES[j] == name.replace("left_", "right_")
        elif name.startswith("right_"):
            assert COCO_KEYPOINT_NAMES[j] == name.replace("right_", "left_")
        else:
            assert j == i
    # involution: applying it twice is the identity
    perm = np.array(COCO_FLIP_PERM)
    assert (perm[perm] == np.arange(17)).all()


def test_sample_crop_full_when_scale_min_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = sample_crop(rng, 64, 32, scale_min=1.0, out_aspect=2.0)
        assert (c.x0, c.y0, c.crop_w, c.crop_h) == (0, 0, 32, 64)


def test_sample_crop_respects_area_bound():
    rng = np.random.default_rng(1)
    src_h, src_w = 96, 96
    for _ in range(2000):
        c = sample_crop(rng, src_h, src_w, scale_min=0.8, out_aspect=1.0)
        frac = (c.crop_w * c.crop_h) / (src_h * src_w)
        assert frac >= 0.8 - 1e-9
        assert c.x0 >= 0 and c.y0 >= 0
        assert c.x0 + c.crop_w <= src_w
        assert c.y0 + c.crop_h <= src_h


def test_sample_crop_small_scale_reaches_small_crops():
    rng = np.random.default_rng(2)
    fracs = []
    for _ in range(200):
        c = sample_crop(rng, 64, 64, scale_min=0.2, out_aspect=1.0)
        fracs.append(c.crop_w * c.crop_h / 4096.0)
    assert min(fracs) < 0.5
    assert min(fracs) >= 0.2 - 1e-9


def test_sample_crop_flip_rate_near_half():
    rng = np.random.default_rng(3)
    flips = sum(
        sample_crop(rng, 32, 32, 0.5, 1.0).flip for _ in range(10_000))
    assert abs(flips / 10_000 - 0.5) < 0.03


def test_sample_crop_rejects_bad_scale():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        sample_crop(rng, 32, 32, 0.0, 1.0)
    with pytest.raises(ConfigError):
        sample_crop(rng, 32, 32, 1.5, 1.0)


def test_apply_crop_identity():
    rng = np.random.default_rng(4)
    img = ImageBuffer(rng.random((16, 24, 3)))
    out = apply_crop(img, CropParams(0, 0, 24, 16, False), 16, 24)
    np.testing.assert_array_equal(out.data, img.data)


def test_apply_crop_flip_reverses_columns():
    rng = np.random.default_rng(5)
    img = ImageBuffer(rng.random((8, 8, 3)))
    out = apply_crop(img, CropParams(0, 0, 8, 8, True), 8, 8)
    np.testing.assert_array_equal(out.data, img.data[:, ::-1, :])


def test_apply_crop_resize_averages():
    # 2x2 source to a single output pixel: plain mean of the four corners
    data = np.zeros((2, 2, 3))
    data[0, 0] = 0.0
    data[0, 1] = 0.4
    data[1, 0] = 0.8
    data[1, 1] = 0.2
    out = apply_crop(ImageBuffer(data), CropParams(0, 0, 2, 2, False), 1, 1)
    np.testing.assert_allclose(out.data[0, 0], (0.0 + 0.4 + 0.8 + 0.2) / 4)


def _four_tap_resize(src, out_h, out_w):
    """The direct bilinear form, one 2-D gather per corner: the reference."""
    in_h, in_w = src.shape[:2]
    sy = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)
    sx = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    fy = sy - y0
    fx = sx - x0
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    top = src[np.ix_(y0, x0)] * (1.0 - fx)[None, :, None] + src[np.ix_(y0, x1)] * fx[None, :, None]
    bot = src[np.ix_(y1, x0)] * (1.0 - fx)[None, :, None] + src[np.ix_(y1, x1)] * fx[None, :, None]
    return top * (1.0 - fy)[:, None, None] + bot * fy[:, None, None]


def test_resize_bit_equal_to_four_tap_reference(tmp_path):
    rng = np.random.default_rng(12)
    frame = ImageBuffer(rng.random((64, 32, 3)))
    gray = tmp_path / "gray.pgm"
    gray.write_bytes(b"P5\n16 40\n255\n" + rng.integers(0, 256, 40 * 16, dtype=np.uint8).tobytes())
    cases = [(frame, CropParams(0, 0, 32, 64, False), 64, 32)]  # full frame
    for rows in (58, 60, 62, 64):  # the crop sizes pretraining draws from a 64x32 frame
        for flip in (False, True):
            cases.append((frame, CropParams(32 - rows // 2, 64 - rows, rows // 2, rows, flip), 64, 32))
    cases += [
        (frame, CropParams(5, 7, 1, 1, False), 64, 32),  # 1x1 source
        (frame, CropParams(0, 0, 32, 64, False), 1, 1),  # 1x1 output
        (frame, CropParams(3, 9, 20, 1, False), 64, 32),  # a single row
        (frame, CropParams(3, 9, 1, 30, True), 64, 32),  # a single column
        (frame, CropParams(0, 0, 32, 64, False), 1, 32),
        (frame, CropParams(0, 0, 32, 64, False), 64, 1),
        (frame, CropParams(4, 10, 12, 24, False), 128, 64),  # upscaling
        (frame, CropParams(0, 0, 32, 64, True), 20, 11),  # downscaling
        (frame, CropParams(7, 3, 17, 41, False), 33, 16),  # an interior crop: a non-contiguous view
        (data_io.load_image(str(gray)), CropParams(0, 0, 16, 40, False), 64, 32),  # P5 broadcast to RGB
        (data_io.load_image(str(gray)), CropParams(2, 5, 9, 18, True), 64, 32),
    ]
    for image, crop, out_h, out_w in cases:
        sub = image.data[crop.y0:crop.y0 + crop.crop_h, crop.x0:crop.x0 + crop.crop_w]
        want = _four_tap_resize(sub, out_h, out_w)
        if crop.flip:
            want = want[:, ::-1, :]
        got = apply_crop(image, crop, out_h, out_w).data
        assert got.shape == want.shape == (out_h, out_w, 3)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (crop, out_h, out_w)


def test_apply_crop_out_of_bounds():
    img = ImageBuffer(np.zeros((8, 8, 3)))
    with pytest.raises(ConfigError):
        apply_crop(img, CropParams(4, 4, 8, 8, False), 8, 8)
    with pytest.raises(ConfigError):
        apply_crop(img, CropParams(0, 0, 0, 4, False), 8, 8)


def test_transform_keypoints_flip_swaps_labels():
    kps = _kps({"left_shoulder": (10.0, 20.0), "right_shoulder": (25.0, 22.0)})
    out = transform_keypoints(kps, CropParams(0, 0, 40, 40, True), 40, 40)
    # flipped left shoulder = mirrored old right shoulder, and vice versa
    np.testing.assert_allclose(out.get("left_shoulder"), [15.0, 22.0, 1.0])
    np.testing.assert_allclose(out.get("right_shoulder"), [30.0, 20.0, 1.0])


def test_transform_keypoints_double_flip_restores():
    rng = np.random.default_rng(6)
    pts = np.column_stack([
        rng.uniform(1, 39, 17), rng.uniform(1, 39, 17), np.ones(17)])
    kps = KeypointSet(pts)
    crop = CropParams(0, 0, 40, 40, True)
    twice = transform_keypoints(transform_keypoints(kps, crop, 40, 40),
                                crop, 40, 40)
    np.testing.assert_allclose(twice.pts, kps.pts, atol=1e-12)


def test_transform_keypoints_zeroes_outside():
    kps = _kps({"nose": (5.0, 5.0), "left_hip": (30.0, 30.0)})
    out = transform_keypoints(kps, CropParams(0, 0, 16, 16, False), 16, 16)
    assert out.get("nose")[2] == 1.0
    assert out.get("left_hip")[2] == 0.0


def test_transform_keypoints_scales_with_resize():
    kps = _kps({"nose": (8.0, 4.0)})
    out = transform_keypoints(kps, CropParams(0, 0, 16, 16, False), 32, 32)
    np.testing.assert_allclose(out.get("nose")[:2], [16.0, 8.0])


def test_patchify_raster_order():
    g = make_patch_grid(4, 6, 2)
    data = np.zeros((4, 6, 3))
    for y in range(4):
        for x in range(6):
            data[y, x] = (y * 6 + x) / 100.0
    rows = patchify(ImageBuffer(data), g)
    assert rows.shape == (6, 12)
    for i in range(g.n_patches):
        r, c = divmod(i, g.grid_w)
        # first scalar of each row is the patch's top-left pixel, channel 0
        assert rows[i, 0] == data[2 * r, 2 * c, 0]
        # within a row pixels advance x before y
        assert rows[i, 3] == data[2 * r, 2 * c + 1, 0]
        assert rows[i, 6] == data[2 * r + 1, 2 * c, 0]


def test_patchify_shape_mismatch():
    g = make_patch_grid(16, 16, 8)
    with pytest.raises(ConfigError):
        patchify(ImageBuffer(np.zeros((8, 16, 3))), g)
    with pytest.raises(ConfigError):
        unpatchify(np.zeros((3, 192)), g)


@given(gh=st.integers(1, 4), gw=st.integers(1, 4), p=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_patchify_round_trip(gh, gw, p, seed):
    g = make_patch_grid(gh * p, gw * p, p)
    img = ImageBuffer(np.random.default_rng(seed).random((g.image_h, g.image_w, 3)))
    back = unpatchify(patchify(img, g), g)
    np.testing.assert_array_equal(back.data, img.data)


def test_normalize_targets_binary_patch():
    row = np.array([[0.0, 1.0] * 6])  # mean 0.5, var 0.25
    out = normalize_targets(row)
    np.testing.assert_allclose(np.abs(out), 0.999998, atol=2e-6)
    assert abs(out.mean()) <= 1e-9


@given(seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_normalize_targets_moments(seed):
    rng = np.random.default_rng(seed)
    rows = rng.random((5, 48))
    out = normalize_targets(rows)
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-9)
    v = out.var(axis=1)
    assert (v <= 1.0 + 1e-12).all()
    assert (v >= 1.0 - 1e-4).all()  # shrinkage from the variance floor only


def test_normalize_targets_matches_the_two_moment_formula():
    # the separate .mean and .var form, kept as the oracle: one sum / n mean and
    # one centred array must give the same bits on a default step's target batch
    rng = np.random.default_rng(16)
    for patches in (rng.random((16, 16, 192)), rng.normal(3.0, 50.0, (16, 16, 192))):
        mean = patches.mean(axis=-1, keepdims=True)
        var = patches.var(axis=-1, keepdims=True)
        assert np.array_equal(normalize_targets(patches), (patches - mean) / np.sqrt(var + 1e-6))


def test_normalize_targets_constant_patch_is_zero():
    out = normalize_targets(np.full((2, 12), 0.37))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)
