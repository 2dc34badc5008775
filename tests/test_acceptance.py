"""Acceptance gate: ten checks with frozen tolerances, one line printed each.

Oracles here are written from scratch (region enumeration by interval
intersection, replayed sampler draws, high-precision loss evaluation) so they
fail if the library drifts, not with it.
"""

import math
import os
import time

import numpy as np
import pytest

from pmim.data_io import make_synthetic_dataset
from pmim.geometry import COCO_KEYPOINT_NAMES, KeypointSet, make_patch_grid
from pmim.losses import LossConfig, align_loss_and_grad
from pmim.mask_sampling import (
    KEYPOINT_CONF_THRESHOLD,
    PART_IDS,
    MaskPlan,
    all_part_patches,
    blockwise_fill,
    mask_stats,
    num_masked,
    part_guided_mask,
    part_keypoint_pairs,
    part_patches,
    random_mask,
)
from pmim.model import (Activations, ModelConfig, _n_encoder_stages, forward, forward_stages,
                        init_params, run_stages)
from pmim.training import (
    TINY_CHECK_MODEL,
    TrainConfig,
    gradient_check,
    run_pretrain,
)

KP_IDX = {n: i for i, n in enumerate(COCO_KEYPOINT_NAMES)}

# the fixed six-part pair table, transcribed independently
EXPECTED_PAIRS = {
    "head": (("nose", "left_eye"), ("nose", "right_eye"),
             ("left_eye", "right_eye"), ("left_eye", "left_ear"),
             ("right_eye", "right_ear")),
    "upper_body": (("left_shoulder", "right_hip"),
                   ("right_shoulder", "left_hip")),
    "left_arm": (("left_shoulder", "left_elbow"), ("left_elbow", "left_wrist")),
    "right_arm": (("right_shoulder", "right_elbow"),
                  ("right_elbow", "right_wrist")),
    "left_leg": (("left_hip", "left_knee"), ("left_knee", "left_ankle")),
    "right_leg": (("right_hip", "right_knee"), ("right_knee", "right_ankle")),
}


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def fuzz_keypoints(rng, w, h):
    pts = np.column_stack([rng.uniform(-0.25 * w, 1.25 * w, 17),
                           rng.uniform(-0.25 * h, 1.25 * h, 17),
                           rng.uniform(0.0, 1.0, 17)])
    return KeypointSet(pts)


def region_by_intersection(pts, part, grid, thresh):
    """Part region via interval-overlap tests on every patch, no division."""
    p = grid.patch_size
    out = set()
    for a, b in EXPECTED_PAIRS[part]:
        xa, ya, ca = pts[KP_IDX[a]]
        xb, yb, cb = pts[KP_IDX[b]]
        if ca < thresh or cb < thresh:
            continue
        x_lo, x_hi = min(xa, xb), max(xa, xb)
        y_lo, y_hi = min(ya, yb), max(ya, yb)
        for r in range(grid.grid_h):
            for c in range(grid.grid_w):
                if (c * p <= x_hi and (c + 1) * p > x_lo
                        and r * p <= y_hi and (r + 1) * p > y_lo):
                    out.add(r * grid.grid_w + c)
    return out


def replayed_plan(rng, kps, grid, beta):
    """Budget-adjustment reference: replays the sampler's draws in order."""
    n_m = math.floor(beta * grid.n_patches)
    count = int(rng.integers(0, 7))
    order = rng.permutation(6)
    seen, per_new = set(), []
    for idx in order[:count]:
        part = PART_IDS[idx]
        region = region_by_intersection(kps.pts, part, grid,
                                        KEYPOINT_CONF_THRESHOLD)
        new = sorted(region - seen)
        seen.update(new)
        per_new.append((part, new))

    masked, prov = [], []
    if len(seen) == n_m:
        for part, new in per_new:
            masked += new
            prov += [part] * len(new)
    elif len(seen) < n_m:
        for part, new in per_new:
            masked += new
            prov += [part] * len(new)
        fill = blockwise_fill(rng, grid, masked, n_m)
        masked = fill.indices
        prov = prov + fill.new_tags
    else:
        for part, new in per_new:
            if len(masked) + len(new) <= n_m:
                masked += new
                prov += [part] * len(new)
                continue
            k = n_m - len(masked)
            take = rng.choice(np.array(new, dtype=np.intp), size=k, replace=False)
            masked += [int(i) for i in take]
            prov += [part] * k
            break
    return masked, prov


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The shared desk-scale run: 64 figures, 300 steps, plus its no-alignment twin."""
    root = str(tmp_path_factory.mktemp("smoke"))
    manifest, _ = make_synthetic_dataset(64, seed=11, out_dir=root)
    cfg = TrainConfig(batch_size=8, total_steps=300, warmup_steps=0, seed=5)
    t0 = time.perf_counter()
    _, _, log = run_pretrain(cfg, manifest)
    secs = time.perf_counter() - t0
    cfg_g0 = TrainConfig(batch_size=8, total_steps=300, warmup_steps=0, seed=5,
                         loss=LossConfig(align_weight=0.0))
    _, _, log_g0 = run_pretrain(cfg_g0, manifest)
    return {"manifest": manifest, "log": log, "log_g0": log_g0, "secs": secs}


def test_criterion_01_mask_budget_exactness():
    grids = [make_patch_grid(16, 16, 8), make_patch_grid(32, 32, 8),
             make_patch_grid(64, 32, 8), make_patch_grid(128, 64, 8)]
    betas = (0.40, 0.50, 0.60, 0.75)
    t0 = time.perf_counter()
    violations = 0
    for i in range(10_000):
        grid = grids[i % 4]
        beta = betas[(i // 4) % 4]
        rng = np.random.default_rng(i)
        kps = fuzz_keypoints(rng, grid.image_w, grid.image_h)
        plan = part_guided_mask(rng, kps, grid, num_masked(beta, grid.n_patches))
        want = math.floor(beta * grid.n_patches)
        if len(plan.masked) != want or len(set(plan.masked)) != want:
            violations += 1
    secs = time.perf_counter() - t0
    report(1, violations == 0 and secs < 10.0,
           f"10,000 fuzzed budgets exact, {violations} violations, {secs:.1f}s")


def test_criterion_02_budget_adjustment_oracle():
    grids = [make_patch_grid(16, 16, 8), make_patch_grid(24, 24, 8),
             make_patch_grid(32, 32, 8)]
    betas = (0.40, 0.50, 0.60, 0.75)
    mismatches = 0
    for case in range(1000):
        grid = grids[case % 3]
        beta = betas[(case // 3) % 4]
        kps = fuzz_keypoints(np.random.default_rng(50_000 + case),
                             grid.image_w, grid.image_h)
        want, want_prov = replayed_plan(np.random.default_rng(case), kps, grid, beta)
        plan = part_guided_mask(np.random.default_rng(case), kps, grid,
                                num_masked(beta, grid.n_patches))
        if plan.masked != want or plan.provenance != want_prov:
            mismatches += 1
    report(2, mismatches == 0,
           f"1,000 replayed plans identical, {mismatches} mismatches")


def test_criterion_03_part_region_oracle():
    table_ok = all(part_keypoint_pairs(p) == EXPECTED_PAIRS[p] for p in PART_IDS)
    n_pairs = sum(len(v) for v in EXPECTED_PAIRS.values())
    grid = make_patch_grid(64, 32, 8)
    mismatches = 0
    for case in range(1000):
        part = PART_IDS[case % 6]
        kps = fuzz_keypoints(np.random.default_rng(90_000 + case), 32, 64)
        got = part_patches(kps, part, grid)
        want = region_by_intersection(kps.pts, part, grid, 0.2)
        if got != want:
            mismatches += 1
    report(3, table_ok and n_pairs == 15 and mismatches == 0,
           f"pair table verbatim ({n_pairs} pairs), 1,000 regions match, "
           f"{mismatches} mismatches")


def test_criterion_04_alignment_oracle():
    def reference(z, zt, tau):
        s = (np.asarray(z, dtype=np.longdouble)
             @ np.asarray(zt, dtype=np.longdouble).T) / tau
        lse = np.log(np.exp(s).sum(axis=1))
        return float(np.mean(lse - np.diag(s)))

    worst = 0.0
    for case in range(200):
        rng = np.random.default_rng(case)
        b = int(rng.integers(1, 17))
        z = rng.normal(size=(b, 8))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        zt = rng.normal(size=(b, 8))
        zt /= np.linalg.norm(zt, axis=1, keepdims=True)
        worst = max(worst, abs(align_loss_and_grad(z, zt)[0] - reference(z, zt, 0.2)))

    single = abs(align_loss_and_grad(np.eye(1, 8), np.eye(1, 8))[0])
    same = np.tile(np.eye(1, 8), (4, 1))
    ident_err = abs(align_loss_and_grad(same, same.copy())[0] - math.log(4.0))
    report(4, worst <= 1e-10 and single <= 1e-12 and ident_err <= 1e-9,
           f"fuzzed max err {worst:.2e}, single-pair {single:.2e}, "
           f"identical-batch err {ident_err:.2e}")


def test_criterion_05_gradient_fidelity():
    t0 = time.perf_counter()
    rep = gradient_check()  # tiny model, h = 1e-5
    secs = time.perf_counter() - t0
    worst_group = max(rep, key=rep.get)
    worst = rep[worst_group]
    report(5, worst <= 1e-4 and secs < 60.0,
           f"max relative error {worst:.2e} ({worst_group}), "
           f"{len(rep)} groups, {secs:.1f}s")


def test_criterion_06_training_smoke(smoke):
    rows = smoke["log"].records
    early = float(np.mean([r["total"] for r in rows if r["step"] <= 10]))
    late = float(np.mean([r["total"] for r in rows if 290 <= r["step"] <= 300]))
    drop = 1.0 - late / early
    final_align = rows[-1]["align"]
    ok = drop >= 0.30 and final_align < math.log(8.0) and smoke["secs"] < 600.0
    report(6, ok, f"loss drop {100 * drop:.1f}% (needs 30%), final alignment "
                  f"{final_align:.3f} < ln 8 = {math.log(8.0):.3f}, "
                  f"{smoke['secs']:.0f}s")


def test_criterion_07_alignment_weight_matters(smoke):
    with_gamma = smoke["log"].records[-1]["align"]
    without = smoke["log_g0"].records[-1]["align"]
    report(7, with_gamma < without,
           f"final alignment {with_gamma:.3f} (optimized) vs {without:.3f} "
           f"(weight zero)")


def test_criterion_08_region_coverage_gap(smoke):
    manifest = smoke["manifest"]
    grid = ModelConfig().grid  # 8x4, same pixel frame as the 64x32 canvas
    n_masked = num_masked(0.5, grid.n_patches)
    plans_part, plans_rand, regions = [], [], []
    for i, record in enumerate(manifest.records):
        region = all_part_patches(record.keypoints, grid)
        for rep in range(8):
            rng = np.random.default_rng(np.random.SeedSequence([77, i, rep]))
            plans_part.append(part_guided_mask(rng, record.keypoints, grid, n_masked))
            plans_rand.append(random_mask(rng, grid, n_masked))
            regions.append(region)
    cov_part = mask_stats(plans_part, regions).region_coverage_mean
    cov_rand = mask_stats(plans_rand, regions).region_coverage_mean
    gap = cov_part - cov_rand
    report(8, gap >= 0.10,
           f"region coverage {cov_part:.3f} part-guided vs {cov_rand:.3f} "
           f"random, gap {100 * gap:.1f} points (needs 10)")


def test_criterion_09_determinism_and_resume(tmp_path, smoke):
    manifest = smoke["manifest"]
    cfg = TrainConfig(batch_size=8, total_epochs=2, seed=5, model=TINY_CHECK_MODEL)
    frozen = lambda: 0.0
    out = str(tmp_path / "first")
    p1, _, log1 = run_pretrain(cfg, manifest, out_dir=out, timer=frozen)
    p2, _, log2 = run_pretrain(cfg, manifest, timer=frozen)
    identical = log1.to_jsonl() == log2.to_jsonl() and all(
        np.array_equal(p1[k], p2[k]) for k in p1.arrays)

    p3, _, log3 = run_pretrain(cfg, manifest, timer=frozen,
                               resume_from=os.path.join(out, "checkpoint_ep1.bin"))
    resumed = all(np.array_equal(p1[k], p3[k]) for k in p1.arrays)
    tail = log1.to_jsonl().splitlines()[len(log1.records) - len(log3.records):]
    resumed = resumed and log3.to_jsonl().splitlines() == tail
    report(9, identical and resumed,
           f"reruns byte-identical: {identical}; resume bit-exact: {resumed}")


def test_criterion_10_encoder_invariants():
    cfg = TINY_CHECK_MODEL
    params = init_params(np.random.default_rng(0), cfg)
    worst_norm = 0.0
    for i in range(1000):
        rng = np.random.default_rng(1000 + i)
        patches = rng.uniform(0.0, 1.0, (cfg.n_patches, cfg.patch_dim))
        plan = random_mask(rng, cfg.grid, int(rng.integers(0, cfg.n_patches + 1)))
        vis, masked = MaskPlan.batch_indices([plan], cfg.grid)  # one view as a batch of one
        cls, _ = forward(params, patches[None], vis, masked)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(cls[0])) - 1.0))

    # the encoder after the patch embedding, on already-embedded tokens
    encoder = forward_stages(cfg)[1:_n_encoder_stages(cfg)]
    worst_perm = 0.0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        tok = rng.random((1, 5, cfg.embed_dim))
        perm = rng.permutation(5)
        a = run_stages(params, encoder, Activations(tok), None, None)
        b = run_stages(params, encoder, Activations(tok[:, perm]), None, None)
        worst_perm = max(worst_perm,
                         float(np.abs(b.cls - a.cls).max()),
                         float(np.abs(b.x - a.x[:, perm]).max()))
    report(10, worst_norm <= 1e-6 and worst_perm <= 1e-10,
           f"unit-norm deviation {worst_norm:.2e} over 1,000 forwards, "
           f"permutation equivariance {worst_perm:.2e}")
