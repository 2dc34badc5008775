"""Schedules, AdamW, batched objective, the epoch loop, and resume."""

import dataclasses
import math
import os
import platform
import re
import warnings

import numpy as np
import pytest

from pmim import losses as losses_module
from pmim import model as model_module
from pmim import training
from pmim.data_io import load_image, make_synthetic_dataset, save_checkpoint
from pmim.errors import ConfigError, NumericsError
from pmim.geometry import apply_crop, patchify, sample_crop, transform_keypoints
from pmim.losses import LossConfig
from pmim.model import ModelConfig, ModelParams, backward, forward, init_params
from pmim.training import (
    MetricsLog,
    TrainConfig,
    ViewBatch,
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
from pmim.mask_sampling import MaskPlan, num_masked, part_guided_mask, random_mask

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
        views.append((patches, random_mask(rng, MICRO.grid, 2), random_mask(rng, MICRO.grid, 2)))
    return views


def micro_batch(seed=0, n=2):
    return ViewBatch(micro_views(seed, n), MICRO.grid)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(warmup_epochs=3, total_epochs=2)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(masking_ratio=1.5)
    # the peak rate base_lr * batch_size / 256 and its product with the decay must be finite
    with pytest.raises(ConfigError, match="peak learning rate"):
        TrainConfig(base_lr=1e308)
    with pytest.raises(ConfigError, match="peak learning rate"):
        TrainConfig(base_lr=1e300, weight_decay=1e300)
    with pytest.raises(ConfigError, match="peak learning rate"):
        TrainConfig(base_lr=1e308, weight_decay=0.0)
    TrainConfig(base_lr=1e306)  # the peak 3.1e304 and its decay 1.6e303 are finite


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
    before = params.flat.copy()
    opt = init_optimizer(params)
    adamw_update(params, np.zeros(params.n_params), opt, lr=0.1, weight_decay=0.05)
    assert opt.step == 1
    np.testing.assert_array_equal(params.flat, before * (1.0 - 0.1 * 0.05))


def test_adamw_first_step_is_signed():
    params = init_params(np.random.default_rng(1), MICRO)
    before = params.flat.copy()
    opt = init_optimizer(params)
    adamw_update(params, np.ones(params.n_params), opt, lr=0.01, weight_decay=0.0)
    np.testing.assert_allclose(params.flat, before - 0.01, rtol=0, atol=1e-9)


def _adamw_per_group(arrays, grads, m, v, step, lr, weight_decay,
                     beta1=0.9, beta2=0.95, eps=1e-8):
    """AdamW as one update per parameter group, the loop adamw_update replaced."""
    b1c = 1.0 - beta1 ** step
    b2c = 1.0 - beta2 ** step
    for name in arrays:
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        arrays[name] *= 1.0 - lr * weight_decay
        arrays[name] -= lr * (m[name] / b1c) / (np.sqrt(v[name] / b2c) + eps)


def test_adamw_matches_per_group_loop():
    params = init_params(np.random.default_rng(2), ModelConfig())
    opt = init_optimizer(params)
    arrays = {k: a.copy() for k, a in params.arrays.items()}
    m = {k: np.zeros_like(a) for k, a in arrays.items()}
    v = {k: np.zeros_like(a) for k, a in arrays.items()}
    rng = np.random.default_rng(3)
    for step in range(1, 201):
        grad = rng.normal(scale=10.0 ** rng.uniform(-4, 1), size=params.n_params)
        lr = 1e-3 * (1.0 + math.cos(math.pi * step / 200))
        adamw_update(params, grad, opt, lr, weight_decay=0.05)
        _adamw_per_group(arrays, params.views(grad), m, v, step, lr, 0.05)
    assert opt.step == 200
    assert np.array_equal(params.flat, params.pack(arrays))
    assert np.array_equal(opt.m, params.pack(m)) and np.array_equal(opt.v, params.pack(v))


def test_build_views_shares_one_crop(disk_dataset):
    cfg = run_cfg()
    record = disk_dataset.records[0]
    patches, plan_a, plan_b = build_views(np.random.default_rng(5), record, cfg, disk_dataset.root)
    assert patches.shape == (4, 48)
    # replay of the draw order: one crop, then both plans from its keypoints
    rng, grid = np.random.default_rng(5), MICRO.grid
    image = load_image(os.path.join(disk_dataset.root, record.image))
    crop = sample_crop(rng, image.height, image.width, cfg.scale_min, grid.image_h / grid.image_w)
    kps = transform_keypoints(record.keypoints, crop, grid.image_h, grid.image_w)
    aug = apply_crop(image, crop, grid.image_h, grid.image_w)
    np.testing.assert_array_equal(patchify(aug, grid), patches)
    for plan in (plan_a, plan_b):
        want = part_guided_mask(rng, kps, grid, num_masked(cfg.masking_ratio, grid.n_patches))
        assert (plan.masked, plan.provenance) == (want.masked, want.provenance)


def test_build_views_masks_rarely_collide(disk_dataset):
    cfg = run_cfg(model=ModelConfig())  # 8x4 grid, budget 16 of 32
    record = disk_dataset.records[0]
    differing = 0
    for seed in range(50):
        _, plan_a, plan_b = build_views(
            np.random.default_rng(seed), record, cfg, disk_dataset.root)
        if plan_a.masked != plan_b.masked:
            differing += 1
    assert differing >= 49


def test_batch_loss_matches_grad_variant():
    params = init_params(np.random.default_rng(2), MICRO)
    batch = micro_batch()
    a = batch_loss(params, batch, LossConfig())
    b = batch_loss(params, batch, LossConfig(), tape={})
    assert (a.recon, a.align, a.total) == (b.recon, b.align, b.total)
    with pytest.raises(ConfigError):
        ViewBatch([], MICRO.grid)


def test_batch_matches_batch_of_one_views(monkeypatch):
    # The batched engine equals its views run one at a time (a0, b0, a1, b1,
    # ...), and batch_backward equals their gradients added in that order,
    # each view backpropagating its rows of the seeds batch_backward forms.
    cfg = dataclasses.replace(MICRO, proj_head=True)
    params = init_params(np.random.default_rng(6), cfg)
    views = micro_views(seed=7, n=3)
    tape = {}
    seeds = {}

    def seeded_backward(params, tape, d_pred, d_cls, grad):
        seeds.update(d_pred=d_pred, d_cls=d_cls)
        backward(params, tape, d_pred, d_cls, grad)

    monkeypatch.setattr(training, "backward", seeded_backward)
    batch_loss(params, ViewBatch(views, cfg.grid), LossConfig(), tape)
    grad = batch_backward(params, tape)
    patches = [p for p, _, _ in views for _ in range(2)]
    plans = [plan for _, plan_a, plan_b in views for plan in (plan_a, plan_b)]
    cls_batch, pred_batch = forward(params, np.stack(patches),
                                    *MaskPlan.batch_indices(plans, cfg.grid))
    serial = np.zeros(params.n_params)
    for i, (p, plan) in enumerate(zip(patches, plans)):
        one = {}
        cls, pred = forward(params, p[None], *MaskPlan.batch_indices([plan], cfg.grid), one)
        assert np.array_equal(cls[0], cls_batch[i]) and np.array_equal(pred[0], pred_batch[i])
        g = np.zeros(params.n_params)
        backward(params, one, seeds["d_pred"][i:i + 1], seeds["d_cls"][i:i + 1], g)
        serial += g
    assert np.array_equal(grad, serial)

    ragged = views[:2] + [(views[2][0], random_mask(np.random.default_rng(0), MICRO.grid, 1),
                           views[2][2])]
    with pytest.raises(ConfigError, match="one number of patches"):
        ViewBatch(ragged, MICRO.grid)


def test_value_paths_form_no_gradient(monkeypatch):
    # The untaped batch_loss and every gradient-check evaluation form loss
    # values only; a taped batch_loss plus batch_backward forms each gradient once.
    def refused(*args):
        raise AssertionError("a loss gradient was formed on a value path")

    cfg = dataclasses.replace(MICRO, proj_head=True)
    params = init_params(np.random.default_rng(2), cfg)
    batch = micro_batch(seed=3)
    real = {name: getattr(training, name) for name in ("recon_grad", "infonce_grad")}
    with monkeypatch.context() as m:
        for name in real:  # reached directly, or through align_loss_and_grad
            m.setattr(training, name, refused)
            m.setattr(losses_module, name, refused)
        want = batch_loss(params, batch, LossConfig())
        loss_fn = training._staged_loss(params, batch, LossConfig())
        assert finite_difference_grads(loss_fn, params).any()
    calls = []

    def counted(name):
        def grad(*args):
            calls.append(name)
            return real[name](*args)
        return grad

    for name in real:
        monkeypatch.setattr(training, name, counted(name))
    tape = {}
    assert batch_loss(params, batch, LossConfig(), tape) == want and calls == []
    assert batch_backward(params, tape).any()
    assert sorted(calls) == ["infonce_grad", "recon_grad"]


def test_batch_loss_builds_plan_indices_once(monkeypatch):
    # The model and the loss share one set of plan indices per prepared batch,
    # however many times batch_loss runs on it.
    calls = []
    build = MaskPlan.batch_indices

    def counted(plans, grid):
        calls.append(len(plans))
        return build(plans, grid)

    monkeypatch.setattr(MaskPlan, "batch_indices", staticmethod(counted))
    params = init_params(np.random.default_rng(2), MICRO)
    batch = micro_batch(n=3)
    assert calls == [6]
    batch_loss(params, batch, LossConfig(), tape={})
    batch_loss(params, batch, LossConfig())
    params["head_b"][0] += 1.0
    batch_loss(params, batch, LossConfig())
    assert calls == [6]


@pytest.mark.parametrize("n_masked", [0, 4], ids=["ratio0", "ratio1"])
def test_batch_at_extreme_masking_ratios(n_masked):
    params = init_params(np.random.default_rng(8), MICRO)
    rng = np.random.default_rng(9)
    views = []
    for _ in range(3):
        patches = rng.uniform(0.0, 1.0, (4, 48))
        views.append((patches, random_mask(rng, MICRO.grid, n_masked),
                      random_mask(rng, MICRO.grid, n_masked)))
    tape = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lb = batch_loss(params, ViewBatch(views, MICRO.grid), LossConfig(), tape)
    grad = batch_backward(params, tape)
    grads = params.views(grad)
    assert np.isfinite(grad).all()
    assert math.isfinite(lb.total) and grads["cls_token"].any()
    if n_masked == 0:  # nothing to reconstruct: one warning per batch, no decoder gradient
        assert lb.recon == 0.0 and len(caught) == 1
        assert not grads["head_w"].any() and not grads["mask_token"].any()
    else:  # nothing visible: the patch embedding and decoder projection get no gradient
        assert lb.recon > 0.0 and not caught
        assert not grads["patch_proj_w"].any() and not grads["dec_proj_w"].any()


def test_batch_gradients_directional_check():
    params = init_params(np.random.default_rng(3), MICRO)
    batch = micro_batch(seed=4)
    loss_cfg = LossConfig()
    tape = {}
    batch_loss(params, batch, loss_cfg, tape)
    grad = batch_backward(params, tape)
    rng = np.random.default_rng(5)
    delta = rng.normal(size=params.n_params)
    analytic = float(grad @ delta)

    def value(t):
        moved = params.views(params.flat + t * delta)
        return batch_loss(ModelParams(MICRO, moved), batch, loss_cfg).total

    h = 1e-6
    fd = (value(h) - value(-h)) / (2 * h)
    assert analytic == pytest.approx(fd, rel=1e-5)


def test_batch_backward_reuses_a_zeroed_buffer():
    params = init_params(np.random.default_rng(4), MICRO)
    tape_a, tape_b = {}, {}
    batch_loss(params, micro_batch(seed=1), LossConfig(), tape_a)
    batch_loss(params, micro_batch(seed=2), LossConfig(), tape_b)
    first = batch_backward(params, tape_a)
    assert first.any()
    second = batch_backward(params, tape_b)
    assert second is first is params.grad
    fresh = ModelParams(params.cfg, params.arrays)
    assert np.array_equal(second, batch_backward(fresh, tape_b))
    assert not np.shares_memory(fresh.grad, params.grad)


def test_train_step_skips_unreadable(disk_dataset, caplog):
    cfg, _ = resolve_schedule(run_cfg(), len(disk_dataset))
    params = init_params(np.random.default_rng(0), MICRO)
    opt = init_optimizer(params)
    from pmim.data_io import SampleRecord
    ghost = SampleRecord("ghost", "missing.ppm", disk_dataset.records[0].keypoints)
    records = [disk_dataset.records[0], ghost]
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    lr, lb = train_step(params, opt, records, cfg, rngs, disk_dataset.root)
    assert opt.step == 1 and lr == lr_at(0, cfg)
    assert math.isfinite(lb.total)
    with pytest.raises(ConfigError, match="no loadable"):
        train_step(params, opt, [ghost], cfg, [np.random.default_rng(1)], disk_dataset.root)
    with pytest.raises(ConfigError, match="1 generators for 2 records"):
        train_step(params, opt, records, cfg, rngs[:1], disk_dataset.root)


def test_train_step_stops_a_non_finite_gradient_before_adamw(disk_dataset, monkeypatch):
    cfg, _ = resolve_schedule(run_cfg(), len(disk_dataset))
    params = init_params(np.random.default_rng(0), MICRO)
    opt = init_optimizer(params)
    records = disk_dataset.records[:2]
    group = list(params.arrays)[3]
    real_backward = training.batch_backward

    def nan_in_one_group(params, tape):
        grad = real_backward(params, tape)
        params.views(grad)[group].flat[-1] = np.nan
        return grad

    monkeypatch.setattr(training, "batch_backward", nan_in_one_group)
    before = params.flat.copy()
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    with pytest.raises(NumericsError, match=rf"non-finite gradient in {group} at step 1;"):
        train_step(params, opt, records, cfg, rngs, disk_dataset.root)
    assert opt.step == 0 and not opt.m.any() and not opt.v.any()
    np.testing.assert_array_equal(params.flat, before)


def test_train_step_stops_a_non_finite_update(disk_dataset, monkeypatch):
    # A rate that passes TrainConfig can still overflow the update; the step
    # must name the first non-finite group and the step, with no numpy warning.
    cfg, _ = resolve_schedule(run_cfg(), len(disk_dataset))
    params = init_params(np.random.default_rng(0), MICRO)
    opt = init_optimizer(params)
    monkeypatch.setattr(training, "lr_at", lambda step, cfg: math.inf)
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"non-finite parameter in patch_proj_w after "
                                                r"the AdamW update at step 1 \(lr inf, "):
            train_step(params, opt, disk_dataset.records[:2], cfg, rngs, disk_dataset.root)


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
    for row in ('[1]', '{"lr": 1}', '{"step": "x"}'):
        open(path, "w").write('{"step": 1}\n' + row + "\n")
        with pytest.raises(ConfigError, match=":2:"):
            MetricsLog.read(path)


def test_metrics_log_read_drops_only_a_torn_last_row(tmp_path, caplog):
    path = str(tmp_path / "metrics.jsonl")
    for torn in ('{"step": 2, "lr"', '{"step": 2}', "  "):
        open(path, "w").write('{"step": 1}\n' + torn)
        caplog.clear()
        assert MetricsLog.read(path).records == [{"step": 1}]
        warned = [r.getMessage() for r in caplog.records]
        assert warned == [f"{path}:2: dropping a torn last row (no newline at its end)"], warned
    open(path, "w").write('{"step": 1}\n{"step": 2, "lr"\n{"step": 3}')
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: invalid JSON")):
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


def test_pretrain_writes_no_epoch_checkpoint_for_a_cut_epoch(tmp_path, disk_dataset):
    out = str(tmp_path / "run")
    _, opt, _ = run_pretrain(run_cfg(total_steps=3), disk_dataset, out_dir=out)
    assert opt.step == 3  # two steps per epoch: the second epoch stops after one
    assert sorted(n for n in os.listdir(out) if n.endswith(".bin")) == [
        "checkpoint.bin", "checkpoint_ep1.bin"]


def test_pretrain_without_a_reachable_c_library(tmp_path, disk_dataset, monkeypatch):
    # The malloc top pad is a side effect on placement only: when ctypes cannot
    # reach the C library, run_pretrain goes on and writes the same bytes.
    cfg = run_cfg()
    frozen = lambda: 0.0
    run_pretrain(cfg, disk_dataset, out_dir=str(tmp_path / "padded"), timer=frozen)
    calls = []

    def unreachable(name):
        calls.append(name)
        raise OSError("no C library")

    monkeypatch.setattr(training.ctypes, "CDLL", unreachable)
    run_pretrain(cfg, disk_dataset, out_dir=str(tmp_path / "plain"), timer=frozen)
    if platform.libc_ver()[0] == "glibc":
        assert calls == [None]  # one lookup per run, none at import
    monkeypatch.setattr(training.os, "confstr", lambda name: None)  # not glibc
    run_pretrain(cfg, disk_dataset, out_dir=str(tmp_path / "other"), timer=frozen)
    assert len(calls) <= 1  # off glibc, ctypes is never asked
    for out in ("plain", "other"):
        for name in ("checkpoint.bin", "checkpoint_ep1.bin", "metrics.jsonl"):
            assert ((tmp_path / "padded" / name).read_bytes()
                    == (tmp_path / out / name).read_bytes()), (out, name)


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


def test_pretrain_crash_keeps_streamed_rows(tmp_path, disk_dataset, monkeypatch):
    cfg = run_cfg()
    frozen = lambda: 0.0
    full = str(tmp_path / "full")
    run_pretrain(cfg, disk_dataset, out_dir=full, timer=frozen)
    real_step = training.train_step

    def crash_at_step_3(params, opt, *args):
        if opt.step == 2:
            raise RuntimeError("simulated crash")
        return real_step(params, opt, *args)

    monkeypatch.setattr(training, "train_step", crash_at_step_3)
    out = str(tmp_path / "crashed")
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_pretrain(cfg, disk_dataset, out_dir=out, timer=frozen)
    kept = open(os.path.join(out, "metrics.jsonl"), "rb").read()
    assert kept.splitlines() == open(os.path.join(full, "metrics.jsonl"), "rb").read().splitlines()[:2]


def test_pretrain_resumes_over_a_torn_last_row(tmp_path, disk_dataset):
    cfg = run_cfg()
    full, out = str(tmp_path / "full"), str(tmp_path / "torn")
    run_pretrain(cfg, disk_dataset, out_dir=full, timer=lambda: 0.0)
    run_pretrain(cfg, disk_dataset, out_dir=out, timer=lambda: 0.0)
    metrics = os.path.join(out, "metrics.jsonl")
    rows = open(metrics, "rb").read().splitlines(keepends=True)
    assert len(rows) == 4
    open(metrics, "wb").write(b"".join(rows[:3]) + rows[3][:20])  # a crash partway through row 4
    run_pretrain(cfg, disk_dataset, out_dir=out, timer=lambda: 0.0,
                 resume_from=os.path.join(out, "checkpoint_ep1.bin"))
    for name in ("checkpoint.bin", "metrics.jsonl"):
        assert open(os.path.join(out, name), "rb").read() == open(os.path.join(full, name), "rb").read()
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_pretrain_failed_resume_rewrite_keeps_metrics(tmp_path, disk_dataset, monkeypatch):
    cfg = run_cfg()
    out = str(tmp_path / "run")
    metrics = os.path.join(out, "metrics.jsonl")
    run_pretrain(cfg, disk_dataset, out_dir=out, timer=lambda: 0.0)
    before = open(metrics, "rb").read()

    def disk_full(self):
        raise OSError("disk full")

    monkeypatch.setattr(MetricsLog, "to_jsonl", disk_full)
    with pytest.raises(OSError, match="disk full"):
        run_pretrain(cfg, disk_dataset, out_dir=out,
                     resume_from=os.path.join(out, "checkpoint_ep1.bin"))
    assert open(metrics, "rb").read() == before
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_pretrain_resume_rejects_mismatch(tmp_path, disk_dataset):
    other = init_params(np.random.default_rng(0), ModelConfig())
    path = str(tmp_path / "other.bin")
    opt = init_optimizer(other)
    opt.step = 2
    save_checkpoint(other, opt, path)
    with pytest.raises(ConfigError, match="model"):
        run_pretrain(run_cfg(), disk_dataset, resume_from=path)

    micro = init_params(np.random.default_rng(0), MICRO)
    odd = str(tmp_path / "odd.bin")
    opt = init_optimizer(micro)
    opt.step = 3
    save_checkpoint(micro, opt, odd)
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


def test_gradient_check_projection_head():
    # The MLP head stacks two matmuls and a gelu on the class path, which
    # roughly squares the curvature there; a smaller step keeps the central
    # difference inside its truncation/roundoff sweet spot.
    cfg = dataclasses.replace(MICRO, proj_head=True)
    report = gradient_check(model_cfg=cfg, h=3e-6)
    assert {"proj1_w", "proj1_b", "proj2_w", "proj2_b"} <= set(report)
    assert max(report.values()) < 1e-4


def test_gradient_check_two_blocks_per_stack():
    # backward walks the stages in reverse: each block's back must meet its own
    # tape entry. No projection head: MICRO2 + head reads too close to the bound.
    cfg = dataclasses.replace(MICRO, n_heads=2, decoder_heads=2, depth=2, decoder_depth=2)
    assert max(gradient_check(model_cfg=cfg).values()) < 1e-4
    assert gradient_check(model_cfg=cfg, corrupt="enc1_qkv_w")["enc1_qkv_w"] > 1e-4


# The check's stage cache: each evaluation resumes the forward pass at the
# stage that reads the first element of params.flat whose bits moved, from
# the activations kept at the unperturbed parameters.

def _full_forward_check(monkeypatch, **kwargs):
    """gradient_check whose every evaluation runs the whole forward pass through batch_loss."""
    with monkeypatch.context() as m:
        m.setattr(training, "_staged_loss",
                  lambda params, batch, loss_cfg: lambda p: batch_loss(p, batch, loss_cfg).total)
        return gradient_check(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(model_cfg=training.TINY_CHECK_MODEL),
    dict(model_cfg=MICRO),
    dict(model_cfg=dataclasses.replace(MICRO, proj_head=True), h=3e-6),
    dict(model_cfg=MICRO, corrupt="enc0_qkv_w"),
    dict(model_cfg=MICRO, corrupt="head_b"),
], ids=["tiny", "micro", "micro_proj_head", "corrupt_enc0_qkv_w", "corrupt_head_b"])
def test_gradient_check_memo_matches_fresh_batches(monkeypatch, kwargs):
    staged = gradient_check(**kwargs)
    full = _full_forward_check(monkeypatch, **kwargs)
    assert {k: v.hex() for k, v in staged.items()} == {k: v.hex() for k, v in full.items()}


def test_staged_loss_matches_batch_loss_at_every_element():
    cfg = dataclasses.replace(MICRO, proj_head=True)
    params = init_params(np.random.default_rng(2), cfg)
    loss_cfg = LossConfig()
    loss_fn = training._staged_loss(params, micro_batch(seed=3), loss_cfg)
    h = 1e-5
    for i in range(params.n_params):
        orig = params.flat[i]
        for step in (h, -h):
            params.flat[i] = orig + step
            want = batch_loss(params, micro_batch(seed=3), loss_cfg).total
            assert loss_fn(params).hex() == want.hex(), (params.first_group(
                np.arange(params.n_params) == i), step)
        params.flat[i] = orig
    assert loss_fn(params).hex() == batch_loss(params, micro_batch(seed=3), loss_cfg).total.hex()


@pytest.fixture
def staged_runs(monkeypatch):
    """Per evaluation: the names of the stages run and the number of infonce calls."""
    runs = {"stages": [], "aligns": 0}
    real_run, real_infonce = training.run_stages, training.infonce

    def run_stages(params, stages, *args, **kwargs):
        runs["stages"] += [stage.name for stage in stages]
        return real_run(params, stages, *args, **kwargs)

    def infonce(*args, **kwargs):
        runs["aligns"] += 1
        return real_infonce(*args, **kwargs)

    monkeypatch.setattr(training, "run_stages", run_stages)
    monkeypatch.setattr(training, "infonce", infonce)
    return runs


def _evaluate(loss_fn, params, runs, loss_cfg):
    """One evaluation: (its stage names, its alignment count); its loss must be a full pass's."""
    runs.update(stages=[], aligns=0)
    value = loss_fn(params)
    seen = (runs["stages"], runs["aligns"])
    assert value.hex() == batch_loss(params, micro_batch(seed=3), loss_cfg).total.hex()
    return seen


def test_a_decoder_element_runs_no_encoder_stage(staged_runs):
    params = init_params(np.random.default_rng(2), MICRO)
    loss_cfg = LossConfig()
    loss_fn = training._staged_loss(params, micro_batch(seed=3), loss_cfg)
    params["dec_proj_w"].flat[0] += 1e-5  # the first decoder element
    stages, aligns = _evaluate(loss_fn, params, staged_runs, loss_cfg)
    assert stages[0] == "dec_proj" and aligns == 0
    assert not any(name.startswith(("patch", "cls", "enc")) for name in stages)
    params["dec_proj_w"].flat[0] -= 1e-5
    params["head_b"][0] += 1e-5
    assert _evaluate(loss_fn, params, staged_runs, loss_cfg) == (["head"], 0)
    params["head_b"][0] -= 1e-5
    assert _evaluate(loss_fn, params, staged_runs, loss_cfg) == (["head"], 0)  # nothing moved


def test_a_negative_zero_flip_in_proj2_b_reruns_the_encoder(staged_runs):
    cfg = dataclasses.replace(MICRO, proj_head=True)
    params = init_params(np.random.default_rng(2), cfg)
    loss_cfg = LossConfig()
    loss_fn = training._staged_loss(params, micro_batch(seed=3), loss_cfg)
    stop = next(start for name, start, _, _ in model_module._layout(cfg) if name == "dec_proj_w")
    assert params.first_group(np.arange(params.n_params) == stop - 1) == "proj2_b"
    assert params.flat[stop - 1] == 0.0
    params.flat[stop - 1] = -0.0  # equal as a float, not as bits
    stages, aligns = _evaluate(loss_fn, params, staged_runs, loss_cfg)
    assert stages[:3] == ["proj", "cls_norm", "dec_proj"] and aligns == 1
    params.flat[stop - 1] = 0.0
    params.flat[0] += 1e-5  # the first element: the whole forward pass
    stages, aligns = _evaluate(loss_fn, params, staged_runs, loss_cfg)
    assert stages == [stage.name for stage in model_module.forward_stages(cfg)] and aligns == 1
