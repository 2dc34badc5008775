"""Part-guided mask sampling over a patch grid.

Six body parts are derived from 17 COCO keypoints. Each part is a union of
axis-aligned boxes spanned by keypoint pairs; masking a part means masking
every patch one of its boxes touches. The sampler draws a random subset of
parts and adjusts the union to an exact patch budget, filling any shortfall
with block-wise sampling. MaskPlan.batch_indices turns V plans into the (V, n)
index arrays that the model and the losses take; one plan is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import KEYPOINT_INDEX, KeypointSet, PatchGrid

# The six part labels, fixed order (used for reproducible selection draws).
PART_IDS = ("head", "upper_body", "left_arm", "right_arm", "left_leg", "right_leg")

# Keypoint pairs spanning each part's boxes. 15 pairs total.
PART_KEYPOINT_PAIRS = {
    "head": (
        ("nose", "left_eye"),
        ("nose", "right_eye"),
        ("left_eye", "right_eye"),
        ("left_eye", "left_ear"),
        ("right_eye", "right_ear"),
    ),
    "upper_body": (
        ("left_shoulder", "right_hip"),
        ("right_shoulder", "left_hip"),
    ),
    "left_arm": (
        ("left_shoulder", "left_elbow"),
        ("left_elbow", "left_wrist"),
    ),
    "right_arm": (
        ("right_shoulder", "right_elbow"),
        ("right_elbow", "right_wrist"),
    ),
    "left_leg": (
        ("left_hip", "left_knee"),
        ("left_knee", "left_ankle"),
    ),
    "right_leg": (
        ("right_hip", "right_knee"),
        ("right_knee", "right_ankle"),
    ),
}


# Fixed sampler settings, read by part_patches and blockwise_fill.
KEYPOINT_CONF_THRESHOLD = 0.2
BLOCK_MIN_AREA = 4
BLOCK_ASPECT = (0.3, 10.0 / 3.0)
BLOCK_ATTEMPTS = 10


@dataclass
class MaskPlan:
    """An exact-budget mask with per-patch provenance.

    provenance[i] records why masked[i] was chosen: a part id, "block" for a
    block-wise rectangle, or "fill" for a uniform single-patch draw.
    """

    grid: PatchGrid
    n_masked: int
    masked: list[int]
    provenance: list[str]

    def __post_init__(self):
        if len(self.masked) != self.n_masked or len(self.provenance) != self.n_masked:
            raise ConfigError(
                f"mask plan lengths disagree: n_masked={self.n_masked}, "
                f"|masked|={len(self.masked)}, |provenance|={len(self.provenance)}")
        if len(set(self.masked)) != len(self.masked):
            raise ConfigError("mask plan contains duplicate patch indices")
        n = self.grid.n_patches
        if self.masked and not (0 <= min(self.masked) and max(self.masked) < n):
            bad = next(i for i in self.masked if not (0 <= i < n))
            raise ConfigError(f"patch index {bad} outside grid of {n}")

    @staticmethod
    def batch_indices(plans, grid: PatchGrid) -> tuple[np.ndarray, np.ndarray]:
        """The plan-batch rule: plans match `grid`, and a batch hides one number of patches.

        Read-only (visible, masked) indices shaped (V, n) for a sequence of V plans.
        """
        batch = tuple(plans)
        shapes = {(plan.grid.grid_h, plan.grid.grid_w) for plan in batch}
        if shapes - {(grid.grid_h, grid.grid_w)}:
            raise ConfigError(f"plan grids {sorted(shapes)} do not match {grid.grid_h}x{grid.grid_w}")
        counts = sorted({plan.n_masked for plan in batch})
        if len(counts) != 1:
            raise ConfigError(f"the views of a batch must hide one number of patches, got {counts}")
        masked = np.array([plan.masked for plan in batch], dtype=np.intp).reshape(len(batch), -1)
        hidden = np.zeros((len(batch), grid.n_patches), dtype=bool)
        hidden[np.arange(len(batch))[:, None], masked] = True
        vis = np.nonzero(~hidden)[1].reshape(len(batch), -1)  # sorted within each row
        vis.flags.writeable = masked.flags.writeable = False
        return vis, masked

    @staticmethod
    def view_rows(idx: np.ndarray):
        """Advanced index picking rows idx[v] of each view v of a (V, N, ...) array.

        idx is (V, n); a gather or scatter through it moves the same values as
        np.take_along_axis / np.put_along_axis.
        """
        return np.arange(len(idx))[:, None], idx


@dataclass
class BlockFillResult:
    """Outcome of blockwise_fill, with enough bookkeeping to audit the draws."""

    indices: list[int]  # the existing indices, then the new ones
    new_tags: list[str]  # "block" | "fill", aligned with indices[len(existing):]
    rects: list[tuple[int, int, int, int]] = field(default_factory=list)  # (r0, c0, h, w)


def num_masked(beta: float, n_patches: int) -> int:
    """Patch budget: the largest integer not exceeding beta * n_patches."""
    if not (0.0 <= beta <= 1.0):
        raise ConfigError(f"masking ratio must be in [0, 1], got {beta}")
    if n_patches < 0:
        raise ConfigError(f"n_patches must be >= 0, got {n_patches}")
    return math.floor(beta * n_patches)


def part_keypoint_pairs(part: str) -> tuple[tuple[str, str], ...]:
    if part not in PART_KEYPOINT_PAIRS:
        raise ConfigError(f"unknown part id {part!r}")
    return PART_KEYPOINT_PAIRS[part]


def _add_boxes(out: set[int], pts: list, pairs, grid: PatchGrid) -> set[int]:
    """Add to `out` every patch touched by the box of a confident pair, one box row at a time.

    pts is kps.pts.tolist(): the same float64 values, without numpy scalars.
    Comparisons stand in for min, max and clamp calls, which cost more than
    the box itself on a small grid; they give the same integers.
    """
    p, gw, gh = grid.patch_size, grid.grid_w, grid.grid_h
    for name_a, name_b in pairs:
        xa, ya, ca = pts[KEYPOINT_INDEX[name_a]]
        xb, yb, cb = pts[KEYPOINT_INDEX[name_b]]
        if ca < KEYPOINT_CONF_THRESHOLD or cb < KEYPOINT_CONF_THRESHOLD:
            continue
        if xb < xa:
            xa, xb = xb, xa
        if yb < ya:
            ya, yb = yb, ya
        c_lo, c_hi = math.floor(xa / p), math.floor(xb / p)
        r_lo, r_hi = math.floor(ya / p), math.floor(yb / p)
        if c_lo < 0:
            c_lo = 0
        if c_hi >= gw:
            c_hi = gw - 1
        if r_lo < 0:
            r_lo = 0
        if r_hi >= gh:
            r_hi = gh - 1
        for row in range(r_lo * gw, r_hi * gw + 1, gw):  # empty when the box misses the grid
            out.update(range(row + c_lo, row + c_hi + 1))
    return out


def part_patches(kps: KeypointSet, part: str, grid: PatchGrid) -> set[int]:
    """Patches touched by any keypoint-pair box of a part.

    A pair contributes the axis-aligned box between its two points, expanded
    to every patch the box intersects; pairs with either endpoint below
    KEYPOINT_CONF_THRESHOLD contribute nothing. Patch (r, c) covers the
    half-open pixel region [c*p, (c+1)*p) x [r*p, (r+1)*p).
    """
    return _add_boxes(set(), kps.pts.tolist(), part_keypoint_pairs(part), grid)


def all_part_patches(kps: KeypointSet, grid: PatchGrid) -> set[int]:
    """Union of every part's patches; the full body-prior region."""
    out: set[int] = set()
    pts = kps.pts.tolist()
    for part in PART_IDS:
        _add_boxes(out, pts, PART_KEYPOINT_PAIRS[part], grid)
    return out


def select_parts(rng: np.random.Generator) -> tuple[str, ...]:
    """Draw P ~ unif{0..6} parts, then a uniform ordered P-subset.

    Consumes exactly two draws: one integer for the count, one permutation
    of the six part labels.
    """
    count = int(rng.integers(0, len(PART_IDS) + 1))
    order = rng.permutation(len(PART_IDS))
    return tuple(PART_IDS[i] for i in order[:count])


def _draw_block(rng: np.random.Generator, grid: PatchGrid, have: set[int], need: int):
    """One rectangle attempt. Returns (new_indices, rect) or None on failure.

    Consumes three uniform draws (area, log-aspect, position) per call; a
    position draw happens only when the rectangle fits the grid.
    """
    area_lo = min(BLOCK_MIN_AREA, need)
    s = int(rng.integers(area_lo, need + 1))
    lo, hi = BLOCK_ASPECT
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    h = max(int(round(math.sqrt(s * r))), 1)
    w = max(int(round(math.sqrt(s / r))), 1)
    if h > grid.grid_h or w > grid.grid_w:
        return None
    if not (lo <= h / w <= hi) or h * w < area_lo:
        return None
    r0 = int(rng.integers(0, grid.grid_h - h + 1))
    c0 = int(rng.integers(0, grid.grid_w - w + 1))
    new = [rr * grid.grid_w + cc
           for rr in range(r0, r0 + h)
           for cc in range(c0, c0 + w)
           if rr * grid.grid_w + cc not in have]
    if not (1 <= len(new) <= need):
        return None
    return new, (r0, c0, h, w)


def blockwise_fill(rng: np.random.Generator, grid: PatchGrid, existing,
                   target: int) -> BlockFillResult:
    """Grow a patch set to exactly `target` indices with block-wise draws.

    Rectangles keep their area at or above BLOCK_MIN_AREA (capped at the
    remaining need) and their aspect ratio inside BLOCK_ASPECT; a rectangle
    is rejected when it would overshoot the budget or adds nothing. After
    BLOCK_ATTEMPTS rejections in total, the remaining shortfall is
    filled with uniformly random single patches so the count is always exact.
    A set already at `target` is returned as is, with no draws.
    """
    indices = list(existing)
    have = set(indices)
    if len(have) != len(indices):
        raise ConfigError("existing mask contains duplicates")
    if len(indices) > target:
        raise ConfigError(f"existing mask of {len(indices)} exceeds target {target}")
    if target > grid.n_patches:
        raise ConfigError(f"target {target} exceeds {grid.n_patches} patches")

    new_tags: list[str] = []
    rects: list[tuple[int, int, int, int]] = []
    need = target - len(indices)
    failures = 0
    while need > 0 and failures < BLOCK_ATTEMPTS:
        drawn = _draw_block(rng, grid, have, need)
        if drawn is None:
            failures += 1
            continue
        new, rect = drawn
        rects.append(rect)
        have.update(new)
        indices += new
        new_tags += ["block"] * len(new)
        need -= len(new)

    if need > 0:
        free = np.array(sorted(set(range(grid.n_patches)) - have), dtype=np.intp)
        indices += [int(i) for i in rng.choice(free, size=need, replace=False)]
        new_tags += ["fill"] * need

    return BlockFillResult(indices, new_tags, rects)


def part_guided_mask(rng: np.random.Generator, kps: KeypointSet, grid: PatchGrid,
                     n_masked: int) -> MaskPlan:
    """Mask exactly `n_masked` patches, guided by body-part regions.

    The budget comes from num_masked. One budget loop over the selected
    parts, in draw order: each part adds its not-yet-masked patches in sorted
    order, and the first part that would overflow the budget adds a uniform
    random subset of what still fits, ending the loop. blockwise_fill then
    completes the set to the budget; it draws nothing when the set is full.

    Random draws, in order: select_parts, the subset draw (only when a part
    overflows), then the blockwise_fill draws.
    """
    if not (0 <= n_masked <= grid.n_patches):
        raise ConfigError(f"n_masked {n_masked} not in [0, {grid.n_patches}]")
    masked: list[int] = []
    provenance: list[str] = []
    for part in select_parts(rng):
        region = part_patches(kps, part, grid)
        new = sorted(region.difference(masked))
        room = n_masked - len(masked)
        if len(new) > room:
            picked = rng.choice(np.array(new, dtype=np.intp), size=room, replace=False)
            masked += [int(i) for i in picked]
            provenance += [part] * room
            break
        masked += new
        provenance += [part] * len(new)
    fill = blockwise_fill(rng, grid, masked, n_masked)
    return MaskPlan(grid, n_masked, fill.indices, provenance + fill.new_tags)


def random_mask(rng: np.random.Generator, grid: PatchGrid, target: int) -> MaskPlan:
    """Uniformly random mask of exactly `target` patches (baseline strategy)."""
    if not (0 <= target <= grid.n_patches):
        raise ConfigError(f"target {target} not in [0, {grid.n_patches}]")
    masked = rng.choice(grid.n_patches, size=target, replace=False).tolist()
    return MaskPlan(grid, target, masked, ["fill"] * target)


@dataclass
class MaskStatsRecord:
    n_plans: int
    part_overlap_mean: float  # mean over plans of |masked & region| / |masked|
    region_coverage_mean: float  # mean over plans of |masked & region| / |region|
    size_histogram: dict[int, int]
    provenance_fractions: dict[str, float]
    n_degenerate: int  # plans with an empty mask (overlap counted as 0)


def mask_stats(plans: list[MaskPlan], part_regions: list[set[int]]) -> MaskStatsRecord:
    """Summarize how well masks line up with part regions.

    Both directions are reported: the fraction of masked patches inside the
    region, and the fraction of the region that got masked.
    """
    if len(plans) != len(part_regions):
        raise ConfigError(
            f"plans ({len(plans)}) and part_regions ({len(part_regions)}) must align")
    overlaps = []
    coverages = []
    hist: dict[int, int] = {}
    tag_counts: dict[str, int] = {}
    degenerate = 0
    for plan, region in zip(plans, part_regions):
        hist[plan.n_masked] = hist.get(plan.n_masked, 0) + 1
        for tag in plan.provenance:
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
        inside = sum(1 for i in plan.masked if i in region)
        if plan.n_masked == 0:
            degenerate += 1
            overlaps.append(0.0)
        else:
            overlaps.append(inside / plan.n_masked)
        coverages.append(inside / len(region) if region else 0.0)
    total_tags = sum(tag_counts.values())
    fractions = {t: c / total_tags for t, c in sorted(tag_counts.items())} if total_tags else {}
    mean = float(np.mean(overlaps)) if overlaps else 0.0
    cov = float(np.mean(coverages)) if coverages else 0.0
    return MaskStatsRecord(len(plans), mean, cov, dict(sorted(hist.items())),
                           fractions, degenerate)


def stats_delta(a: MaskStatsRecord, b: MaskStatsRecord) -> dict:
    """Per-strategy comparison: how much more a overlaps part regions than b."""
    return {
        "part_overlap_mean_a": a.part_overlap_mean,
        "part_overlap_mean_b": b.part_overlap_mean,
        "part_overlap_delta": a.part_overlap_mean - b.part_overlap_mean,
        "region_coverage_mean_a": a.region_coverage_mean,
        "region_coverage_mean_b": b.region_coverage_mean,
        "region_coverage_delta": a.region_coverage_mean - b.region_coverage_mean,
    }
