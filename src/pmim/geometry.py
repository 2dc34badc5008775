"""Patch-grid arithmetic, crop augmentation, keypoint transforms, and patchify.

Images are (H, W, 3) float64 arrays with values in [0, 1]. Keypoints use
continuous pixel coordinates where integer pixel (ix, iy) has its center at
(ix + 0.5, iy + 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError

# COCO keypoint order, fixed at 17 entries.
COCO_KEYPOINT_NAMES = (
    "nose",
    "left_eye",
    "right_eye",
    "left_ear",
    "right_ear",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
)

KEYPOINT_INDEX = {name: i for i, name in enumerate(COCO_KEYPOINT_NAMES)}

# Left/right partner index for each keypoint, used on horizontal flip.
COCO_FLIP_PERM = tuple(
    KEYPOINT_INDEX[n.replace("left_", "right_")] if n.startswith("left_")
    else KEYPOINT_INDEX[n.replace("right_", "left_")] if n.startswith("right_")
    else i
    for i, n in enumerate(COCO_KEYPOINT_NAMES)
)

# Added to each patch's variance when reconstruction targets are standardized.
TARGET_EPS = 1e-6


@dataclass
class ImageBuffer:
    """RGB image with values in [0, 1], stored as (H, W, 3) float64."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[2] != 3:
            raise ConfigError(f"image data must be (H, W, 3), got {self.data.shape}")
        if self.data.size and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ConfigError("image values must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class PatchGrid:
    grid_h: int
    grid_w: int
    patch_size: int

    @property
    def n_patches(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def image_h(self) -> int:
        return self.grid_h * self.patch_size

    @property
    def image_w(self) -> int:
        return self.grid_w * self.patch_size


@dataclass(frozen=True)
class CropParams:
    """Crop rectangle in source-image pixels plus a horizontal-flip bit."""

    x0: int
    y0: int
    crop_w: int
    crop_h: int
    flip: bool


@dataclass
class KeypointSet:
    """Exactly 17 keypoints in COCO order, as an (17, 3) array of (x, y, conf)."""

    pts: np.ndarray

    def __post_init__(self):
        self.pts = np.asarray(self.pts, dtype=np.float64)
        if self.pts.shape != (17, 3):
            raise ConfigError(f"keypoint set must be (17, 3), got {self.pts.shape}")
        if not np.isfinite(self.pts[:, :2]).all():
            raise ConfigError("keypoint coordinates must be finite")
        conf = self.pts[:, 2]
        if not ((conf >= 0.0) & (conf <= 1.0)).all():  # NaN fails both, so it is refused
            raise ConfigError("keypoint confidences must lie in [0, 1]")

    def get(self, name: str) -> np.ndarray:
        return self.pts[KEYPOINT_INDEX[name]]


def make_patch_grid(height: int, width: int, patch_size: int) -> PatchGrid:
    """Build the patch grid for an image, requiring exact divisibility."""
    if patch_size <= 0:
        raise ConfigError(f"patch_size must be positive, got {patch_size}")
    if height % patch_size != 0:
        raise ConfigError(f"height {height} not divisible by patch_size {patch_size}")
    if width % patch_size != 0:
        raise ConfigError(f"width {width} not divisible by patch_size {patch_size}")
    return PatchGrid(height // patch_size, width // patch_size, patch_size)


def sample_crop(rng: np.random.Generator, src_h: int, src_w: int,
                scale_min: float, out_aspect: float) -> CropParams:
    """Draw a random crop whose area fraction lies in [scale_min, 1].

    The crop aspect ratio (h/w) equals ``out_aspect`` exactly so a later
    resize does not distort. Crop dimensions are integer multiples of the
    reduced fraction p/q of the aspect; the drawn target area is mapped to
    the nearest multiple and clamped into the feasible range, so every
    returned crop honors the area bound. If no aspect-exact crop of the
    requested area exists the largest centered crop is returned instead.
    """
    if not (0.0 < scale_min <= 1.0):
        raise ConfigError(f"scale_min must be in (0, 1], got {scale_min}")
    frac = Fraction(out_aspect).limit_denominator(10_000)
    p, q = frac.numerator, frac.denominator
    k_hi = min(src_h // p, src_w // q)
    if k_hi < 1:
        raise ConfigError(
            f"source {src_h}x{src_w} cannot hold any crop with aspect {out_aspect}")
    unit = p * q  # area of the smallest aspect-exact crop
    src_area = src_h * src_w
    k_lo = math.ceil(math.sqrt(scale_min * src_area / unit))

    flip = bool(rng.random() < 0.5)
    if k_lo <= k_hi:
        target_area = src_area * rng.uniform(scale_min, 1.0)
        k = round(math.sqrt(target_area / unit))
        k = min(max(k, k_lo), k_hi)
        crop_h, crop_w = p * k, q * k
        x0 = int(rng.integers(0, src_w - crop_w + 1))
        y0 = int(rng.integers(0, src_h - crop_h + 1))
        return CropParams(x0, y0, crop_w, crop_h, flip)

    # no aspect-exact crop reaches the area bound: the largest centred one
    crop_h, crop_w = p * k_hi, q * k_hi
    return CropParams((src_w - crop_w) // 2, (src_h - crop_h) // 2,
                      crop_w, crop_h, flip)


def apply_crop(image: ImageBuffer, crop: CropParams, out_h: int, out_w: int) -> ImageBuffer:
    """Crop, bilinearly resize to (out_h, out_w), then flip if requested."""
    if crop.crop_w < 1 or crop.crop_h < 1:
        raise ConfigError("crop dimensions must be >= 1")
    if (crop.x0 < 0 or crop.y0 < 0
            or crop.x0 + crop.crop_w > image.width
            or crop.y0 + crop.crop_h > image.height):
        raise ConfigError(f"crop {crop} exceeds source {image.height}x{image.width}")
    sub = image.data[crop.y0:crop.y0 + crop.crop_h, crop.x0:crop.x0 + crop.crop_w]
    out = _bilinear_resize(sub, out_h, out_w)
    if crop.flip:
        out = out[:, ::-1, :].copy()
    return ImageBuffer(out)


def _bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize; exact identity when sizes match.

    Separable: each source row, viewed as W*C values, is blended across
    columns once, then pairs of blended rows are blended down the columns.
    Each output value comes from the same products and sums, in the same
    order, as the direct four-corner form, so the two are bit-equal.
    """
    in_h, in_w, ch = src.shape
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (in_h / out_h) - 0.5
    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (in_w / out_w) - 0.5
    sy = np.clip(sy, 0.0, in_h - 1.0)
    sx = np.clip(sx, 0.0, in_w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    fy = (sy - y0)[:, None]
    fx = np.repeat(sx - x0, ch)  # one weight per (column, channel) value of a row
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)

    channel = np.arange(ch)
    rows = src.reshape(in_h, in_w * ch)
    across = (rows.take((x0[:, None] * ch + channel).ravel(), axis=1) * (1.0 - fx)
              + rows.take((x1[:, None] * ch + channel).ravel(), axis=1) * fx)
    out = across.take(y0, axis=0) * (1.0 - fy) + across.take(y1, axis=0) * fy
    return out.reshape(out_h, out_w, ch)


def transform_keypoints(kps: KeypointSet, crop: CropParams, out_h: int, out_w: int) -> KeypointSet:
    """Map keypoints through the same crop/resize/flip as the pixels.

    Under a flip the left/right keypoint labels are swapped so the semantic
    identity (e.g. left shoulder) still points at the left shoulder of the
    flipped figure. Keypoints landing outside [0, out_w) x [0, out_h) get
    confidence 0; one scaled past the float64 range is a ConfigError.
    """
    pts = kps.pts.copy()
    with np.errstate(over="ignore"):  # a coordinate scaled past float64 is refused below
        pts[:, 0] = (pts[:, 0] - crop.x0) * (out_w / crop.crop_w)
        pts[:, 1] = (pts[:, 1] - crop.y0) * (out_h / crop.crop_h)
    if crop.flip:
        pts[:, 0] = out_w - pts[:, 0]
        pts = pts[list(COCO_FLIP_PERM)]
    inside = ((pts[:, 0] >= 0.0) & (pts[:, 0] < out_w)
              & (pts[:, 1] >= 0.0) & (pts[:, 1] < out_h))
    pts[:, 2] = np.where(inside, pts[:, 2], 0.0)
    return KeypointSet(pts)


def patchify(image: ImageBuffer, grid: PatchGrid) -> np.ndarray:
    """Split an image into rows of flattened patches, raster order.

    Returns (n_patches, patch_size**2 * 3); row i = patch (i // grid_w,
    i % grid_w) with pixels in (y, x, channel) order.
    """
    p = grid.patch_size
    if image.height != grid.image_h or image.width != grid.image_w:
        raise ConfigError(
            f"image {image.height}x{image.width} does not match grid "
            f"{grid.grid_h}x{grid.grid_w} at patch size {p}")
    x = image.data.reshape(grid.grid_h, p, grid.grid_w, p, 3)
    x = x.transpose(0, 2, 1, 3, 4)  # (gh, gw, p, p, 3)
    return x.reshape(grid.n_patches, p * p * 3).copy()


def unpatchify(patches: np.ndarray, grid: PatchGrid) -> ImageBuffer:
    """Inverse of patchify."""
    p = grid.patch_size
    if patches.shape != (grid.n_patches, p * p * 3):
        raise ConfigError(
            f"patch matrix {patches.shape} does not match grid "
            f"{grid.grid_h}x{grid.grid_w} at patch size {p}")
    x = patches.reshape(grid.grid_h, grid.grid_w, p, p, 3)
    x = x.transpose(0, 2, 1, 3, 4)
    return ImageBuffer(x.reshape(grid.image_h, grid.image_w, 3).copy())


def target_moments(patches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each patch row's (mean, std) over the last axis, the variance regularized by TARGET_EPS.

    One mean, as sum / n, and one centred array serve both moments: the reduce
    and divide that ndarray.mean and ndarray.var each run, bit for bit.
    """
    n = patches.shape[-1]
    mean = patches.sum(axis=-1, keepdims=True) / n
    centred = patches - mean
    return mean, np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / n + TARGET_EPS)


def normalize_targets(patches: np.ndarray) -> np.ndarray:
    """Standardize each patch row to mean 0 and variance 1 by its target_moments."""
    mean, std = target_moments(patches)
    return (patches - mean) / std
