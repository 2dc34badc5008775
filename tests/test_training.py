"""Schedules, AdamW, batched objective, the epoch loop, and resume."""

import dataclasses
import math
import os

import numpy as np
import pytest

from pmim.data_io import make_synthetic_dataset, save_checkpoint
from pmim.errors import ConfigError
from pmim.losses import LossConfig
from pmim.model import ModelConfig, ModelParams, init_params
from pmim.training import (
    MetricsLog,
    TrainConfig,
    adamw_update,
    batch_backward,
    batch_loss,
    build_views,
    finite_difference_grads,
    gradient_check,
    init_optimizer,
    lr_at,
    resolve_schedule,
    run_pretrain,
    train_step,
)
from pmim.mask_sampling import random_mask

# smallest legal transformer; keeps finite differences cheap
MICRO = ModelConfig(embed_dim=4, depth=1, n_heads=1, decoder_dim=4,
                    decoder_depth=1, decoder_heads=1, patch_size=4,
                    grid_h=2, grid_w=2)


@pytest.fixture(scope="module")
def disk_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("figures"))
    manifest, _ = make_synthetic_dataset(8, seed=0, out_dir=out)
    return manifest


def run_cfg(**kw):
    kw.setdefault("batch_size", 4)
    kw.setdefault("total_epochs", 2)
    kw.setdefault("seed", 3)
    kw.setdefault("model", MICRO)
    return TrainConfig(**kw)


def micro_views(seed=0, n=2):
    rng = np.random.default_rng(seed)
    views = []
    for _ in range(n):
        patches = rng.uniform(0.0, 1.0, (4, 48))
        views.append((patches, random_mask(rng, MICRO.grid, 2),
                      patches, random_mask(rng, MICRO.grid, 2)))
    return views


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(warmup_epochs=3, total_epochs=2)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(masking_ratio=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(checkpoint_every=0)


def test_resolve_schedule_from_epochs():
    cfg, spe = resolve_schedule(run_cfg(batch_size=8, total_epochs=2), 64)
    assert spe == 8
    assert cfg.total_steps == 16 and cfg.warmup_steps == 0
    explicit, _ = resolve_schedule(run_cfg(total_steps=5, warmup_steps=2), 64)
    assert explicit.total_steps == 5 and explicit.warmup_steps == 2
    with pytest.raises(ConfigError):
        resolve_schedule(run_cfg(batch_size=100), 64)
    with pytest.raises(ConfigError):
        resolve_schedule(run_cfg(total_steps=3, warmup_steps=4), 64)


def test_lr_schedule_shape():
    cfg = run_cfg(batch_size=8, base_lr=0.15, total_steps=100, warmup_steps=10)
    peak = 0.15 * 8 / 256.0
    assert lr_at(0, cfg) == 0.0
    assert lr_at(10, cfg) == pytest.approx(peak, abs=1e-18)
    assert lr_at(5, cfg) == pytest.approx(0.5 * peak)
    assert lr_at(100, cfg) == pytest.approx(0.0, abs=1e-12)
    assert lr_at(55, cfg) == pytest.approx(peak * 0.5, rel=1e-12)  # cosine midpoint
    ramp = [lr_at(s, cfg) for s in range(11)]
    assert all(b > a for a, b in zip(ramp, ramp[1:]))
    tail = [lr_at(s, cfg) for s in range(10, 101)]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_lr_requires_resolved_schedule():
    with pytest.raises(ConfigError):
        lr_at(0, run_cfg())
    with pytest.raises(ConfigError):
        lr_at(-1, run_cfg(total_steps=10, warmup_steps=0))


def test_adamw_decay_without_gradient():
    params = init_params(np.random.default_rng(0), MICRO)
    before = {k: v.copy() for k, v in params.arrays.items()}
    opt = init_optimizer(params)
    zeros = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    adamw_update(params, zeros, opt, lr=0.1, weight_decay=0.05)
    assert opt.step == 1
    for k in before:
        np.testing.assert_array_equal(params[k], before[k] * (1.0 - 0.1 * 0.05))


def test_adamw_first_step_is_signed():
    params = init_params(np.random.default_rng(1), MICRO)
    before = {k: v.copy() for k, v in params.arrays.items()}
    opt = init_optimizer(params)
    ones = {k: np.ones_like(v) for k, v in params.arrays.items()}
    adamw_update(params, ones, opt, lr=0.01, weight_decay=0.0)
    for k in before:
        np.testing.assert_allclose(params[k], before[k] - 0.01, rtol=0, atol=1e-9)


def test_build_views_shares_one_crop(disk_dataset):
    cfg = run_cfg()
    record = disk_dataset.records[0]
    va, vb = build_views(np.random.default_rng(5), record, cfg, disk_dataset.root)
    patches_a, kps_a, plan_a = va
    patches_b, kps_b, plan_b = vb
    assert patches_a is patches_b and kps_a is kps_b
    assert patches_a.shape == (4, 48)
    again, _ = build_views(np.random.default_rng(5), record, cfg, disk_dataset.root)
    np.testing.assert_array_equal(again[0], patches_a)
    assert again[2].masked == plan_a.masked


def test_build_views_independent_crops_differ(disk_dataset):
    cfg = run_cfg(independent_crops=True)
    record = disk_dataset.records[0]
    saw_difference = False
    for seed in range(5):
        va, vb = build_views(np.random.default_rng(seed), record, cfg, disk_dataset.root)
        if not np.array_equal(va[0], vb[0]):
            saw_difference = True
    assert saw_difference


def test_build_views_masks_rarely_collide(disk_dataset):
    cfg = run_cfg(model=ModelConfig())  # 8x4 grid, budget 16 of 32
    record = disk_dataset.records[0]
    differing = 0
    for seed in range(50):
        va, vb = build_views(np.random.default_rng(seed), record, cfg, disk_dataset.root)
        if va[2].masked != vb[2].masked:
            differing += 1
    assert differing >= 49


def test_batch_loss_matches_grad_variant():
    params = init_params(np.random.default_rng(2), MICRO)
    views = micro_views()
    a = batch_loss(params, views, LossConfig())
    b = batch_loss(params, views, LossConfig(), tape={})
    assert (a.recon, a.align, a.total) == (b.recon, b.align, b.total)
    with pytest.raises(ConfigError):
        batch_loss(params, [], LossConfig())


def test_batch_gradients_directional_check():
    params = init_params(np.random.default_rng(3), MICRO)
    views = micro_views(seed=4)
    loss_cfg = LossConfig()
    tape = {}
    batch_loss(params, views, loss_cfg, tape)
    grads = batch_backward(params, tape)
    rng = np.random.default_rng(5)
    delta = {k: rng.normal(size=v.shape) for k, v in params.arrays.items()}
    analytic = sum(float((grads[k] * delta[k]).sum()) for k in sorted(grads))

    def value(t):
        arrays = {k: v + t * delta[k] for k, v in params.arrays.items()}
        return batch_loss(ModelParams(MICRO, arrays), views, loss_cfg).total

    h = 1e-6
    fd = (value(h) - value(-h)) / (2 * h)
    assert analytic == pytest.approx(fd, rel=1e-5)


def test_train_step_skips_unreadable(disk_dataset, caplog):
    cfg, _ = resolve_schedule(run_cfg(), len(disk_dataset))
    params = init_params(np.random.default_rng(0), MICRO)
    opt = init_optimizer(params)
    from pmim.data_io import SampleRecord
    ghost = SampleRecord("ghost", "missing.ppm", disk_dataset.records[0].keypoints)
    records = [disk_dataset.records[0], ghost]
    params, opt, lb = train_step(params, opt, records, cfg,
                                 np.random.default_rng(1), disk_dataset.root)
    assert opt.step == 1
    assert math.isfinite(lb.total)
    with pytest.raises(ConfigError, match="no loadable"):
        train_step(params, opt, [ghost], cfg, np.random.default_rng(1),
                   disk_dataset.root)


def test_metrics_log_round_trip(tmp_path):
    log = MetricsLog()
    log.append(1, 0.1, 0.5, 0.2, 0.51, 0.0)
    log.append(2, 0.09, 0.4, 0.2, 0.41, 0.0)
    with pytest.raises(ConfigError):
        log.append(2, 0.1, 0.1, 0.1, 0.1, 0.0)
    path = str(tmp_path / "metrics.jsonl")
    log.write(path)
    back = MetricsLog.read(path)
    assert back.records == log.records


def test_metrics_log_read_rejects_garbage(tmp_path):
    path = str(tmp_path / "metrics.jsonl")
    open(path, "w").write('{"step": 1}\n{"step": 2, "lr"\n')
    with pytest.raises(ConfigError, match=":2:"):
        MetricsLog.read(path)


def test_pretrain_writes_artifacts(tmp_path, disk_dataset):
    out = str(tmp_path / "run")
    cfg = run_cfg()
    params, opt, log = run_pretrain(cfg, disk_dataset, out_dir=out)
    assert opt.step == 4  # 8 records / batch 4 * 2 epochs
    assert [r["step"] for r in log.records] == [1, 2, 3, 4]
    rcfg, _ = resolve_schedule(cfg, len(disk_dataset))
    for row in log.records:
        assert row["lr"] == lr_at(row["step"] - 1, rcfg)
        assert math.isfinite(row["total"])
    for name in ("checkpoint.bin", "checkpoint_ep1.bin", "checkpoint_ep2.bin",
                 "metrics.jsonl"):
        assert os.path.exists(os.path.join(out, name)), name
    assert MetricsLog.read(os.path.join(out, "metrics.jsonl")).records == log.records


def test_pretrain_is_deterministic(disk_dataset):
    cfg = run_cfg()
    frozen = lambda: 0.0
    p1, _, log1 = run_pretrain(cfg, disk_dataset, timer=frozen)
    p2, _, log2 = run_pretrain(cfg, disk_dataset, timer=frozen)
    assert log1.to_jsonl() == log2.to_jsonl()
    for k in p1.arrays:
        np.testing.assert_array_equal(p1[k], p2[k])


def test_pretrain_resume_is_bitwise(tmp_path, disk_dataset):
    cfg = run_cfg()
    frozen = lambda: 0.0
    full_out = str(tmp_path / "full")
    p_full, _, log_full = run_pretrain(cfg, disk_dataset, out_dir=full_out,
                                       timer=frozen)
    p_res, _, log_res = run_pretrain(
        cfg, disk_dataset, resume_from=os.path.join(full_out, "checkpoint_ep1.bin"),
        timer=frozen)
    for k in p_full.arrays:
        np.testing.assert_array_equal(p_res[k], p_full[k])
    assert log_res.records == log_full.records[2:]


def test_pretrain_resume_keeps_metrics_history(tmp_path, disk_dataset):
    cfg = run_cfg()
    frozen = lambda: 0.0
    out = str(tmp_path / "run")
    metrics = os.path.join(out, "metrics.jsonl")
    run_pretrain(cfg, disk_dataset, out_dir=out, timer=frozen)
    uninterrupted = open(metrics, "rb").read()
    _, _, log = run_pretrain(cfg, disk_dataset, out_dir=out, timer=frozen,
                             resume_from=os.path.join(out, "checkpoint_ep1.bin"))
    assert [r["step"] for r in log.records] == [1, 2, 3, 4]
    assert open(metrics, "rb").read() == uninterrupted
    run_pretrain(cfg, disk_dataset, out_dir=out, timer=frozen)  # fresh run: overwrite
    assert open(metrics, "rb").read() == uninterrupted


def test_pretrain_resume_rejects_mismatch(tmp_path, disk_dataset):
    other = init_params(np.random.default_rng(0), ModelConfig())
    path = str(tmp_path / "other.bin")
    save_checkpoint(other, init_optimizer(other), 2, path)
    with pytest.raises(ConfigError, match="model"):
        run_pretrain(run_cfg(), disk_dataset, resume_from=path)

    micro = init_params(np.random.default_rng(0), MICRO)
    odd = str(tmp_path / "odd.bin")
    save_checkpoint(micro, init_optimizer(micro), 3, odd)
    with pytest.raises(ConfigError, match="boundary"):
        run_pretrain(run_cfg(), disk_dataset, resume_from=odd)


def test_pretrain_zero_steps(disk_dataset):
    params, opt, log = run_pretrain(run_cfg(total_steps=0, warmup_steps=0),
                                    disk_dataset)
    assert opt.step == 0 and log.records == []


def test_gradient_check_clean_and_corrupt():
    report = gradient_check(model_cfg=MICRO)
    from pmim.model import param_shapes
    assert set(report) == {n for n, _, _ in param_shapes(MICRO)}
    assert max(report.values()) < 1e-4

    broken = gradient_check(model_cfg=MICRO, corrupt="head_b")
    assert broken["head_b"] > 1e-4
    with pytest.raises(ConfigError):
        gradient_check(model_cfg=MICRO, corrupt="nonexistent")


@pytest.mark.parametrize("loss_cfg", [LossConfig(negatives="same_view"),
                                      LossConfig(symmetrize=True)],
                         ids=["same_view", "symmetrize"])
def test_gradient_check_loss_variants(loss_cfg):
    report = gradient_check(model_cfg=MICRO, loss_cfg=loss_cfg)
    assert max(report.values()) < 1e-4


def test_batch_backward_cosine_stopgrad():
    # Stop-gradient holds each view's partner fixed, so the alignment term
    # contributes half the derivative of its reported value (as in
    # test_losses); gradient_check, which differentiates the value, cannot
    # take this variant.
    cfg = LossConfig(align_mode="cosine_stopgrad")
    params = init_params(np.random.default_rng(3), MICRO)
    views = micro_views(seed=4)
    tape = {}
    batch_loss(params, views, cfg, tape)
    analytic = batch_backward(params, tape)

    def halved_alignment(p):
        lb = batch_loss(p, views, cfg)
        return lb.recon + 0.5 * cfg.align_weight * lb.align

    fd = finite_difference_grads(halved_alignment, params)
    for name, a in analytic.items():
        f = fd[name]
        rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        assert rel.max() < 1e-4, name


def test_gradient_check_projection_head():
    # The MLP head stacks two matmuls and a gelu on the class path, which
    # roughly squares the curvature there; a smaller step keeps the central
    # difference inside its truncation/roundoff sweet spot.
    cfg = dataclasses.replace(MICRO, proj_head=True)
    report = gradient_check(model_cfg=cfg, h=3e-6)
    assert {"proj1_w", "proj1_b", "proj2_w", "proj2_b"} <= set(report)
    assert max(report.values()) < 1e-4
