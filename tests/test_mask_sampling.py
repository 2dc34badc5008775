"""Part-guided mask sampler: budgets, regions, and a full replay oracle.

The oracle below re-derives part regions from its own keypoint-pair table and
re-implements the three budget cases, replaying the sampler's random draws in
the frozen order. Any drift in draw order, case logic, or the pair table
breaks the equality checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmim import mask_sampling
from pmim.errors import ConfigError
from pmim.geometry import COCO_KEYPOINT_NAMES, KeypointSet, PatchGrid, make_patch_grid
from pmim.mask_sampling import (
    BLOCK_ASPECT,
    KEYPOINT_CONF_THRESHOLD,
    PART_IDS,
    PART_KEYPOINT_PAIRS,
    MaskPlan,
    all_part_patches,
    blockwise_fill,
    mask_stats,
    num_masked,
    part_guided_mask,
    part_patches,
    random_mask,
    select_parts,
    stats_delta,
)

# Independent transcription of the six parts' keypoint pairs.
ORACLE_PAIRS = {
    "head": [("nose", "left_eye"), ("nose", "right_eye"),
             ("left_eye", "right_eye"), ("left_eye", "left_ear"),
             ("right_eye", "right_ear")],
    "upper_body": [("left_shoulder", "right_hip"), ("right_shoulder", "left_hip")],
    "left_arm": [("left_shoulder", "left_elbow"), ("left_elbow", "left_wrist")],
    "right_arm": [("right_shoulder", "right_elbow"), ("right_elbow", "right_wrist")],
    "left_leg": [("left_hip", "left_knee"), ("left_knee", "left_ankle")],
    "right_leg": [("right_hip", "right_knee"), ("right_knee", "right_ankle")],
}

KP_IDX = {n: i for i, n in enumerate(COCO_KEYPOINT_NAMES)}


def oracle_part_patches(pts, part, grid, thresh):
    """Region of one part, derived from scratch."""
    out = set()
    for a, b in ORACLE_PAIRS[part]:
        xa, ya, ca = pts[KP_IDX[a]]
        xb, yb, cb = pts[KP_IDX[b]]
        if ca < thresh or cb < thresh:
            continue
        p = grid.patch_size
        for r in range(max(int(min(ya, yb) // p), 0),
                       min(int(max(ya, yb) // p), grid.grid_h - 1) + 1):
            for c in range(max(int(min(xa, xb) // p), 0),
                           min(int(max(xa, xb) // p), grid.grid_w - 1) + 1):
                out.add(r * grid.grid_w + c)
    return out


def oracle_plan(rng, kps, grid, beta):
    """Replay of the sampler: same draws, independently coded case logic.

    Returns (masked, provenance, case) where case names which budget branch
    ran. The short case hands the same rng to blockwise_fill, the one shared
    subroutine; everything else is recomputed here.
    """
    n_m = math.floor(beta * grid.n_patches)
    count = int(rng.integers(0, 7))
    order = rng.permutation(6)
    parts = [PART_IDS[i] for i in order[:count]]

    seen = set()
    per_new = []
    for part in parts:
        new = sorted(oracle_part_patches(kps.pts, part, grid, KEYPOINT_CONF_THRESHOLD) - seen)
        seen.update(new)
        per_new.append((part, new))

    masked, prov = [], []
    if len(seen) == n_m:
        for part, new in per_new:
            masked += new
            prov += [part] * len(new)
        return masked, prov, "equal"
    if len(seen) < n_m:
        for part, new in per_new:
            masked += new
            prov += [part] * len(new)
        fill = blockwise_fill(rng, grid, masked, n_m)
        return fill.indices, prov + fill.new_tags, "short"
    for part, new in per_new:
        if len(masked) + len(new) <= n_m:
            masked += new
            prov += [part] * len(new)
            continue
        k = n_m - len(masked)
        picked = rng.choice(np.array(new, dtype=np.intp), size=k, replace=False)
        masked += [int(i) for i in picked]
        prov += [part] * k
        break
    return masked, prov, "long"


def random_figure(rng, size=64.0):
    """Scattered keypoints with a spread of confidences."""
    pts = np.column_stack([
        rng.uniform(0.0, size, 17),
        rng.uniform(0.0, size, 17),
        rng.uniform(0.0, 1.0, 17),
    ])
    return KeypointSet(pts)


def piled_keypoints():
    """All pair boxes span pixel (1,1)-(15,15): every part covers patches
    {0, 1, 4, 5} of a 4x4 grid at patch size 8."""
    at_lo = {"nose", "right_eye", "left_ear", "left_shoulder", "right_shoulder",
             "left_wrist", "right_wrist", "left_knee", "right_knee"}
    pts = np.zeros((17, 3))
    for i, name in enumerate(COCO_KEYPOINT_NAMES):
        xy = (1.0, 1.0) if name in at_lo else (15.0, 15.0)
        pts[i] = [xy[0], xy[1], 1.0]
    return KeypointSet(pts)


def test_budget_is_floor():
    assert num_masked(0.5, 128) == 64
    assert num_masked(0.5, 7) == 3
    assert num_masked(0.0, 10) == 0
    assert num_masked(1.0, 10) == 10
    with pytest.raises(ConfigError):
        num_masked(-0.1, 10)
    with pytest.raises(ConfigError):
        num_masked(1.1, 10)


def test_part_patches_box_expansion():
    grid = make_patch_grid(64, 64, 8)
    pts = np.zeros((17, 3))
    pts[KP_IDX["left_shoulder"]] = [4.0, 4.0, 1.0]
    pts[KP_IDX["left_elbow"]] = [20.0, 20.0, 1.0]
    got = part_patches(KeypointSet(pts), "left_arm", grid)
    assert got == {r * 8 + c for r in range(3) for c in range(3)}


def test_part_patches_coincident_pair():
    grid = make_patch_grid(16, 32, 8)  # 2x4
    pts = np.zeros((17, 3))
    pts[KP_IDX["left_hip"]] = [12.0, 8.5, 1.0]
    pts[KP_IDX["left_knee"]] = [12.0, 8.5, 1.0]
    assert part_patches(KeypointSet(pts), "left_leg", grid) == {5}


def test_part_patches_low_confidence_skipped():
    grid = make_patch_grid(64, 64, 8)
    pts = np.zeros((17, 3))
    pts[KP_IDX["left_shoulder"]] = [4.0, 4.0, 0.1]
    pts[KP_IDX["left_elbow"]] = [20.0, 20.0, 1.0]
    assert part_patches(KeypointSet(pts), "left_arm", grid) == set()


def test_part_patches_clips_to_grid():
    grid = make_patch_grid(32, 32, 8)
    pts = np.zeros((17, 3))
    pts[KP_IDX["left_hip"]] = [-5.0, -5.0, 1.0]
    pts[KP_IDX["left_knee"]] = [100.0, 3.0, 1.0]
    got = part_patches(KeypointSet(pts), "left_leg", grid)
    assert got == {0, 1, 2, 3}  # row 0 only, clipped both sides


def test_part_patches_unknown_part():
    grid = make_patch_grid(32, 32, 8)
    with pytest.raises(ConfigError):
        part_patches(piled_keypoints(), "torso", grid)


def test_all_part_patches_is_union():
    grid = make_patch_grid(64, 64, 8)
    rng = np.random.default_rng(7)
    kps = random_figure(rng)
    union = set()
    for part in PART_IDS:
        union |= part_patches(kps, part, grid)
    assert all_part_patches(kps, grid) == union


def numpy_scalar_part_patches(kps, part, grid):
    """part_patches as it read keypoints through KeypointSet.get (numpy scalars)."""
    p = grid.patch_size
    out = set()
    for name_a, name_b in PART_KEYPOINT_PAIRS[part]:
        xa, ya, ca = kps.get(name_a)
        xb, yb, cb = kps.get(name_b)
        if ca < KEYPOINT_CONF_THRESHOLD or cb < KEYPOINT_CONF_THRESHOLD:
            continue
        c_lo = max(int(math.floor(min(xa, xb) / p)), 0)
        c_hi = min(int(math.floor(max(xa, xb) / p)), grid.grid_w - 1)
        r_lo = max(int(math.floor(min(ya, yb) / p)), 0)
        r_hi = min(int(math.floor(max(ya, yb) / p)), grid.grid_h - 1)
        for r in range(r_lo, r_hi + 1):
            for c in range(c_lo, c_hi + 1):
                out.add(r * grid.grid_w + c)
    return out


def edge_case_figure(rng, grid, thresh):
    """Keypoints on patch edges, below zero and off the canvas, with confidences at the threshold."""
    p = grid.patch_size
    xs = np.concatenate([np.arange(-1, grid.grid_w + 2) * float(p), [-0.0, p - 1e-12, 1e-300]])
    ys = np.concatenate([np.arange(-1, grid.grid_h + 2) * float(p), [-0.0, p - 1e-12, -3.5]])
    confs = [0.0, thresh, np.nextafter(thresh, 0.0), np.nextafter(thresh, 1.0), 1.0]
    pts = np.column_stack([rng.uniform(-20.0, grid.image_w + 20.0, 17),
                           rng.uniform(-20.0, grid.image_h + 20.0, 17),
                           rng.uniform(0.0, 1.0, 17)])
    for col, pool in ((0, xs), (1, ys), (2, confs)):
        pick = rng.random(17) < 0.5
        pts[pick, col] = rng.choice(pool, size=int(pick.sum()))
    return KeypointSet(pts)


def test_part_regions_and_plans_match_numpy_scalar_reference(monkeypatch):
    rng = np.random.default_rng(21)
    for grid in (make_patch_grid(64, 32, 8), make_patch_grid(32, 48, 4)):
        for trial in range(150):
            kps = edge_case_figure(rng, grid, KEYPOINT_CONF_THRESHOLD)
            want = {part: numpy_scalar_part_patches(kps, part, grid) for part in PART_IDS}
            for part in PART_IDS:
                assert part_patches(kps, part, grid) == want[part]
            assert all_part_patches(kps, grid) == set().union(*want.values())

            plans = []
            for patch_fn in (part_patches, numpy_scalar_part_patches):
                monkeypatch.setattr(mask_sampling, "part_patches", patch_fn)
                draws = np.random.default_rng([21, trial])
                for _ in range(2):
                    plan = part_guided_mask(draws, kps, grid, num_masked(0.5, grid.n_patches))
                    plans.append((plan.masked, plan.provenance, draws.bit_generator.state))
            assert plans[:2] == plans[2:]


def test_select_parts_count_distribution():
    rng = np.random.default_rng(11)
    counts = np.zeros(7, dtype=int)
    for _ in range(70_000):
        counts[len(select_parts(rng))] += 1
    freq = counts / 70_000
    assert np.abs(freq - 1.0 / 7.0).max() < 0.01


def test_select_parts_replays():
    a = select_parts(np.random.default_rng(42))
    b = select_parts(np.random.default_rng(42))
    assert type(a) is tuple and a == b
    assert len(set(a)) == len(a) and set(a) <= set(PART_IDS)


def test_mask_plan_validation():
    grid = make_patch_grid(32, 32, 8)
    MaskPlan(grid, 0, [], [])  # empty plan is legal
    with pytest.raises(ConfigError):
        MaskPlan(grid, 2, [3, 3], ["fill", "fill"])
    with pytest.raises(ConfigError):
        MaskPlan(grid, 1, [99], ["fill"])
    with pytest.raises(ConfigError):
        MaskPlan(grid, 2, [0], ["fill"])


def test_batch_indices_rule_and_reuse():
    grid = make_patch_grid(16, 16, 8)  # 2x2
    a, b = MaskPlan(grid, 1, [3], ["fill"]), MaskPlan(grid, 1, [0], ["fill"])
    vis, masked = MaskPlan.batch_indices([a, b], grid)
    assert vis.tolist() == [[0, 1, 2], [1, 2, 3]] and masked.tolist() == [[3], [0]]
    assert not vis.flags.writeable and not masked.flags.writeable
    b.masked[0] = 2  # an edited plan is read afresh, not from an earlier call
    assert MaskPlan.batch_indices([a, b], grid)[1].tolist() == [[3], [2]]
    b.masked[0] = 0
    one_vis, one_masked = MaskPlan.batch_indices([a], grid)  # one view is a batch of one
    assert one_vis.tolist() == [[0, 1, 2]] and one_masked.tolist() == [[3]]
    assert MaskPlan.batch_indices([b, a], grid)[1].tolist() == [[0], [3]]
    with pytest.raises(ConfigError, match="one number of patches"):
        MaskPlan.batch_indices([a, MaskPlan(grid, 0, [], [])], grid)
    with pytest.raises(ConfigError, match="do not match"):
        MaskPlan.batch_indices([a, b], make_patch_grid(16, 8, 8))


def test_blockwise_fill_hits_target_exactly():
    grid = make_patch_grid(128, 64, 8)  # 16x8
    for seed in range(30):
        rng = np.random.default_rng(seed)
        out = blockwise_fill(rng, grid, [0, 1, 2], 64)
        assert len(out.indices) == 64
        assert len(set(out.indices)) == 64
        assert out.indices[:3] == [0, 1, 2]
        assert len(out.new_tags) == 61
        assert set(out.new_tags) <= {"block", "fill"}
        lo, hi = BLOCK_ASPECT
        for r0, c0, h, w in out.rects:
            assert 0 <= r0 and r0 + h <= grid.grid_h
            assert 0 <= c0 and c0 + w <= grid.grid_w
            assert lo <= h / w <= hi


def test_blockwise_fill_input_checks():
    grid = make_patch_grid(32, 32, 8)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        blockwise_fill(rng, grid, [1, 1], 8)
    with pytest.raises(ConfigError):
        blockwise_fill(rng, grid, list(range(10)), 8)
    with pytest.raises(ConfigError):
        blockwise_fill(rng, grid, [], 17)


def test_blockwise_fill_exhausted_attempts_fall_back():
    # On one row a rectangle has h = 1, so its aspect bound caps w at 3 and its
    # area below the minimum of 4: every attempt is rejected.
    grid = make_patch_grid(8, 96, 8)  # 1x12
    out = blockwise_fill(np.random.default_rng(1), grid, [], 10)
    assert len(out.indices) == 10 and len(set(out.indices)) == 10
    assert out.new_tags == ["fill"] * 10
    assert out.rects == []


def test_blockwise_fill_replays():
    grid = make_patch_grid(128, 64, 8)
    a = blockwise_fill(np.random.default_rng(9), grid, [5], 40)
    b = blockwise_fill(np.random.default_rng(9), grid, [5], 40)
    assert a.indices == b.indices and a.rects == b.rects


def test_random_mask_basics():
    grid = make_patch_grid(128, 64, 8)
    plan = random_mask(np.random.default_rng(3), grid, 64)
    assert plan.n_masked == 64
    assert len(set(plan.masked)) == 64
    assert plan.provenance == ["fill"] * 64
    again = random_mask(np.random.default_rng(3), grid, 64)
    assert plan.masked == again.masked
    kps = random_figure(np.random.default_rng(0))
    for bad in (-1, 129):  # budgets outside [0, N] for both samplers
        with pytest.raises(ConfigError):
            random_mask(np.random.default_rng(0), grid, bad)
        with pytest.raises(ConfigError):
            part_guided_mask(np.random.default_rng(0), kps, grid, bad)


def test_part_guided_equal_case_keeps_union():
    grid = make_patch_grid(32, 32, 8)
    n_masked = num_masked(0.25, grid.n_patches)  # budget 4 = |union| of any part
    kps = piled_keypoints()
    hits = 0
    for seed in range(12):
        probe = np.random.default_rng(seed)
        if int(probe.integers(0, 7)) == 0:
            continue  # empty selection goes down the fill path instead
        hits += 1
        plan = part_guided_mask(np.random.default_rng(seed), kps, grid, n_masked)
        assert sorted(plan.masked) == [0, 1, 4, 5]
        # every patch is new at the first selected part
        replay = np.random.default_rng(seed)
        replay.integers(0, 7)
        lead = PART_IDS[replay.permutation(6)[0]]
        assert plan.provenance == [lead] * 4
    assert hits >= 8


def test_part_guided_overflow_takes_uniform_subset():
    grid = make_patch_grid(32, 32, 8)
    n_masked = num_masked(0.125, grid.n_patches)  # budget 2 < any part's 4 patches
    kps = piled_keypoints()
    for seed in range(12):
        probe = np.random.default_rng(seed)
        if int(probe.integers(0, 7)) == 0:
            continue
        plan = part_guided_mask(np.random.default_rng(seed), kps, grid, n_masked)
        assert plan.n_masked == 2
        assert set(plan.masked) <= {0, 1, 4, 5}
        replay = np.random.default_rng(seed)
        replay.integers(0, 7)
        lead = PART_IDS[replay.permutation(6)[0]]
        picked = replay.choice(np.array([0, 1, 4, 5], dtype=np.intp),
                               size=2, replace=False)
        assert plan.masked == [int(i) for i in picked]
        assert plan.provenance == [lead] * 2


def test_part_guided_short_case_fills():
    grid = make_patch_grid(32, 32, 8)
    n_masked = num_masked(0.75, grid.n_patches)  # budget 12 > 4 union patches
    kps = piled_keypoints()
    for seed in range(12):
        plan = part_guided_mask(np.random.default_rng(seed), kps, grid, n_masked)
        assert plan.n_masked == 12
        probe = np.random.default_rng(seed)
        if int(probe.integers(0, 7)) > 0:
            assert {0, 1, 4, 5} <= set(plan.masked)
            assert set(plan.provenance) & set(PART_IDS)
        assert set(plan.provenance) <= set(PART_IDS) | {"block", "fill"}


def test_part_guided_matches_oracle():
    cases = {"equal": 0, "short": 0, "long": 0}
    for data_seed in range(8):
        kps = random_figure(np.random.default_rng(1000 + data_seed))
        for grid in (make_patch_grid(32, 32, 8), make_patch_grid(64, 32, 8)):
            for seed in range(40):
                replay, draws = np.random.default_rng(seed), np.random.default_rng(seed)
                want, want_prov, case = oracle_plan(replay, kps, grid, 0.5)
                plan = part_guided_mask(draws, kps, grid, num_masked(0.5, grid.n_patches))
                assert plan.masked == want, (data_seed, grid, seed, case)
                assert plan.provenance == want_prov
                # the sampler drew exactly as often as the oracle
                assert draws.integers(2**63) == replay.integers(2**63), (data_seed, seed, case)
                cases[case] += 1
    assert min(cases.values()) > 0, cases


@given(beta=st.floats(0.0, 1.0), seed=st.integers(0, 10_000),
       fig=st.integers(0, 30))
@settings(max_examples=120, deadline=None)
def test_part_guided_budget_always_exact(beta, seed, fig):
    grid = make_patch_grid(32, 32, 8)
    kps = random_figure(np.random.default_rng(fig))
    plan = part_guided_mask(np.random.default_rng(seed), kps, grid, num_masked(beta, 16))
    assert plan.n_masked == math.floor(beta * 16)
    assert len(plan.masked) == plan.n_masked
    assert len(set(plan.masked)) == plan.n_masked
    assert all(0 <= i < 16 for i in plan.masked)
    assert set(plan.provenance) <= set(PART_IDS) | {"block", "fill"}


def test_mask_stats_two_directions():
    grid = make_patch_grid(32, 32, 8)
    plans = [
        MaskPlan(grid, 2, [0, 1], ["head", "head"]),
        MaskPlan(grid, 4, [0, 8, 9, 10], ["fill"] * 4),
        MaskPlan(grid, 0, [], []),
    ]
    regions = [{0, 1, 2, 3}, {0, 1}, {4, 5}]
    rec = mask_stats(plans, regions)
    assert rec.n_plans == 3
    np.testing.assert_allclose(rec.part_overlap_mean, (1.0 + 0.25 + 0.0) / 3)
    np.testing.assert_allclose(rec.region_coverage_mean, (0.5 + 0.5 + 0.0) / 3)
    assert rec.size_histogram == {0: 1, 2: 1, 4: 1}
    assert rec.n_degenerate == 1
    np.testing.assert_allclose(rec.provenance_fractions["head"], 2 / 6)
    np.testing.assert_allclose(rec.provenance_fractions["fill"], 4 / 6)


def test_mask_stats_requires_alignment():
    grid = make_patch_grid(32, 32, 8)
    with pytest.raises(ConfigError):
        mask_stats([MaskPlan(grid, 0, [], [])], [])


def test_stats_delta_reports_both_sides():
    grid = make_patch_grid(32, 32, 8)
    a = mask_stats([MaskPlan(grid, 2, [0, 1], ["head"] * 2)], [{0, 1}])
    b = mask_stats([MaskPlan(grid, 2, [8, 9], ["fill"] * 2)], [{0, 1}])
    d = stats_delta(a, b)
    np.testing.assert_allclose(d["part_overlap_delta"], 1.0)
    np.testing.assert_allclose(d["region_coverage_delta"], 1.0)
    assert d["part_overlap_mean_b"] == 0.0
