"""Two-view pre-training loop with decoupled weight decay and derived seeding.

Every random draw comes from a seed sequence keyed by (seed, purpose, epoch,
sample index), never from carried generator state, so a resumed run replays
the exact uninterrupted trajectory. The objective has one forward loop,
batch_loss; given a tape it records every view, and batch_backward replays
the tape serially in fixed batch order into one gradient dict, which keeps
runs bit-for-bit reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import data_io
from .errors import ConfigError, NumericsError
from .geometry import apply_crop, patchify, sample_crop, transform_keypoints
from .losses import LossBreakdown, LossConfig, align_loss_and_grad, recon_loss_and_grad, total_loss
from .mask_sampling import SamplerConfig, part_guided_mask, random_mask
from .model import ModelConfig, ModelParams, backward, forward_view, init_params

logger = logging.getLogger("pmim")

# seed-stream purposes (entropy tags for SeedSequence)
_SEED_INIT = 1
_SEED_SHUFFLE = 2
_SEED_SAMPLE = 3
_SEED_CHECK = 4


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    total_epochs: int = 2
    warmup_epochs: int = 0
    base_lr: float = 0.15
    weight_decay: float = 0.05
    seed: int = 0
    masking_ratio: float = 0.5
    scale_min: float = 0.8
    total_steps: int | None = None  # resolved from epochs when None
    warmup_steps: int | None = None
    checkpoint_every: int = 1  # epochs
    independent_crops: bool = False
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    dataset: str | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.warmup_epochs > self.total_epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} exceeds total_epochs {self.total_epochs}")
        if self.base_lr < 0.0 or self.weight_decay < 0.0:
            raise ConfigError("base_lr and weight_decay must be >= 0")
        if not (0.0 <= self.masking_ratio <= 1.0):
            raise ConfigError(f"masking_ratio must be in [0, 1], got {self.masking_ratio}")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        for name in ("total_steps", "warmup_steps"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name} must be >= 0")

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(masking_ratio=self.masking_ratio)


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8


def init_optimizer(params: ModelParams) -> OptimizerState:
    return OptimizerState(m={k: np.zeros_like(a) for k, a in params.arrays.items()},
                          v={k: np.zeros_like(a) for k, a in params.arrays.items()})


def adamw_update(params: ModelParams, grads: dict[str, np.ndarray],
                 opt: OptimizerState, lr: float, weight_decay: float):
    """In-place update; decay is decoupled, so zero grads shrink by 1 - lr*wd."""
    opt.step += 1
    b1c = 1.0 - opt.beta1 ** opt.step
    b2c = 1.0 - opt.beta2 ** opt.step
    for name in params.arrays:
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p = params.arrays[name]
        p *= 1.0 - lr * weight_decay
        p -= lr * (m / b1c) / (np.sqrt(v / b2c) + opt.eps)


@dataclass
class MetricsLog:
    records: list[dict] = field(default_factory=list)

    def append(self, step: int, lr: float, recon: float, align: float,
               total: float, secs: float):
        if self.records and step <= self.records[-1]["step"]:
            raise ConfigError(f"metrics step {step} does not increase")
        self.records.append({"step": int(step), "lr": float(lr), "recon": float(recon),
                             "align": float(align), "total": float(total),
                             "secs": float(secs)})

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r) + "\n" for r in self.records)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())

    @staticmethod
    def read(path: str) -> "MetricsLog":
        log = MetricsLog()
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if line.strip():
                    try:
                        log.records.append(json.loads(line))
                    except json.JSONDecodeError as e:
                        raise ConfigError(f"{path}:{lineno}: unreadable metrics row ({e})")
        return log


def resolve_schedule(cfg: TrainConfig, n_records: int) -> tuple[TrainConfig, int]:
    """Fill total_steps/warmup_steps from epochs; returns (config, steps per epoch)."""
    steps_per_epoch = n_records // cfg.batch_size
    if steps_per_epoch < 1:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds the {n_records}-record dataset")
    total = cfg.total_steps if cfg.total_steps is not None else cfg.total_epochs * steps_per_epoch
    warm = cfg.warmup_steps if cfg.warmup_steps is not None else cfg.warmup_epochs * steps_per_epoch
    if warm > total:
        raise ConfigError(f"warmup_steps {warm} exceeds total_steps {total}")
    return dataclasses.replace(cfg, total_steps=total, warmup_steps=warm), steps_per_epoch


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to peak, then half-cosine decay to zero at the last step.

    Peak is base_lr * batch_size / 256 (linear scaling). Requires a resolved
    schedule (see resolve_schedule).
    """
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if cfg.total_steps is None or cfg.warmup_steps is None:
        raise ConfigError("schedule unresolved: call resolve_schedule first")
    peak = cfg.base_lr * cfg.batch_size / 256.0
    if step < cfg.warmup_steps:
        return peak * step / cfg.warmup_steps
    span = max(cfg.total_steps - cfg.warmup_steps, 1)
    frac = min((step - cfg.warmup_steps) / span, 1.0)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))


def build_views(rng: np.random.Generator, record: data_io.SampleRecord,
                cfg: TrainConfig, root: str = "."):
    """One augmentation, two part-guided masks.

    Returns ((patches, keypoints, plan_a), (patches, keypoints, plan_b)).
    Draw order: crop, plan_a, plan_b; with independent_crops, crop_a,
    plan_a, crop_b, plan_b.
    """
    grid = cfg.model.grid
    out_h, out_w = grid.image_h, grid.image_w
    scfg = cfg.sampler()

    def one_view(image):
        crop = sample_crop(rng, image.height, image.width, cfg.scale_min, out_h / out_w)
        aug = apply_crop(image, crop, out_h, out_w)
        kps = transform_keypoints(record.keypoints, crop, out_h, out_w)
        return patchify(aug, grid), kps

    image = data_io.load_image(os.path.join(root, record.image))
    patches_a, kps_a = one_view(image)
    plan_a = part_guided_mask(rng, kps_a, grid, scfg)
    if cfg.independent_crops:
        patches_b, kps_b = one_view(image)
        plan_b = part_guided_mask(rng, kps_b, grid, scfg)
    else:
        patches_b, kps_b = patches_a, kps_a
        plan_b = part_guided_mask(rng, kps_b, grid, scfg)
    return (patches_a, kps_a, plan_a), (patches_b, kps_b, plan_b)


def batch_loss(params: ModelParams, views, loss_cfg: LossConfig,
               tape: dict | None = None) -> LossBreakdown:
    """Objective over a batch of (patches_a, plan_a, patches_b, plan_b) items.

    Reconstruction averages the per-view masked MSE over both views of every
    item; alignment is InfoNCE over the batch of class-vector pairs. Given a
    tape dict, records each view's tape and weighted seeds for batch_backward.
    """
    if not views:
        raise ConfigError("empty batch")
    b = len(views)
    scale = 1.0 / (2 * b)
    z = np.zeros((b, params.cfg.embed_dim))
    zt = np.zeros((b, params.cfg.embed_dim))
    recon_sum = 0.0
    items = []
    for i, (pa, plan_a, pb, plan_b) in enumerate(views):
        ta, tb = ({}, {}) if tape is not None else (None, None)
        z[i], pred_a = forward_view(params, pa, plan_a, ta)
        zt[i], pred_b = forward_view(params, pb, plan_b, tb)
        ra, da = recon_loss_and_grad(pred_a, pa, plan_a, loss_cfg)
        rb, db = recon_loss_and_grad(pred_b, pb, plan_b, loss_cfg)
        recon_sum += ra + rb
        if tape is not None:
            items.append((ta, da * scale, tb, db * scale))
    recon = recon_sum / (2 * b)
    align, dz, dzt = align_loss_and_grad(z, zt, loss_cfg)
    if tape is not None:
        gamma = loss_cfg.align_weight
        tape.update(items=items, dz=gamma * dz, dzt=gamma * dzt)
    return total_loss(recon, align, loss_cfg)


def batch_backward(params: ModelParams, tape: dict) -> dict[str, np.ndarray]:
    """Exact gradients of a taped batch_loss, reduced serially in batch order."""
    grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    for (ta, da, tb, db), dz, dzt in zip(tape["items"], tape["dz"], tape["dzt"]):
        backward(params, ta, da, dz, grads)
        backward(params, tb, db, dzt, grads)
    return grads


def train_step(params: ModelParams, opt: OptimizerState, records, cfg: TrainConfig,
               rngs, root: str = "."):
    """One optimizer step over a batch of manifest records.

    rngs is one generator per record (or a single shared one); unreadable
    records are skipped with a log line. Requires a resolved schedule.
    """
    if isinstance(rngs, np.random.Generator):
        rngs = [rngs] * len(records)
    if len(rngs) != len(records):
        raise ConfigError(f"{len(rngs)} generators for {len(records)} records")
    views = []
    used = []
    for record, rng in zip(records, rngs):
        try:
            va, vb = build_views(rng, record, cfg, root)
        except (ConfigError, OSError) as e:
            logger.warning("skipping sample %s: %s", record.sample_id, e)
            continue
        views.append((va[0], va[2], vb[0], vb[2]))
        used.append(record.sample_id)
    if not views:
        raise ConfigError(f"no loadable record in batch {[r.sample_id for r in records]}")
    tape: dict = {}
    breakdown = batch_loss(params, views, cfg.loss, tape)
    if not (math.isfinite(breakdown.total) and math.isfinite(breakdown.recon)
            and math.isfinite(breakdown.align)):
        raise NumericsError(
            f"non-finite loss {breakdown} at step {opt.step + 1}; batch ids {used}")
    lr = lr_at(opt.step, cfg)
    adamw_update(params, batch_backward(params, tape), opt, lr, cfg.weight_decay)
    return params, opt, breakdown


def run_pretrain(cfg: TrainConfig, manifest: data_io.DatasetManifest,
                 out_dir: str | None = None, resume_from: str | None = None,
                 timer=None):
    """Epoch loop with seeded shuffling; returns (params, opt, MetricsLog).

    With out_dir set, writes metrics.jsonl, a checkpoint_ep{N}.bin every
    checkpoint_every epochs, and a final checkpoint.bin. resume_from
    restarts at the checkpoint's epoch boundary and replays the original
    trajectory exactly; rows of an existing out_dir/metrics.jsonl up to the
    checkpoint step are kept, so the log holds the whole history.
    """
    if not len(manifest):
        raise ConfigError("manifest is empty")
    rcfg, steps_per_epoch = resolve_schedule(cfg, len(manifest))
    timer = timer if timer is not None else time.perf_counter

    if resume_from is not None:
        params, opt, step0 = data_io.load_checkpoint(resume_from)
        if params.cfg != rcfg.model:
            raise ConfigError(
                f"checkpoint model {params.cfg} does not match configured {rcfg.model}")
        if step0 % steps_per_epoch != 0:
            raise ConfigError(
                f"checkpoint step {step0} is not an epoch boundary "
                f"({steps_per_epoch} steps per epoch)")
        start_epoch = step0 // steps_per_epoch
    else:
        params = init_params(
            np.random.default_rng(np.random.SeedSequence([rcfg.seed, _SEED_INIT])),
            rcfg.model)
        opt = init_optimizer(params)
        start_epoch = 0

    n_epochs = math.ceil(rcfg.total_steps / steps_per_epoch) if rcfg.total_steps else 0
    log = MetricsLog()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        if resume_from is not None and os.path.exists(metrics_path):
            log.records = [r for r in MetricsLog.read(metrics_path).records
                           if r["step"] <= step0]

    for epoch in range(start_epoch, n_epochs):
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([rcfg.seed, _SEED_SHUFFLE, epoch]))
        perm = shuffle_rng.permutation(len(manifest))
        for start in range(0, steps_per_epoch * rcfg.batch_size, rcfg.batch_size):
            if opt.step >= rcfg.total_steps:
                break
            idxs = perm[start:start + rcfg.batch_size]
            records = [manifest.records[int(i)] for i in idxs]
            rngs = [np.random.default_rng(
                np.random.SeedSequence([rcfg.seed, _SEED_SAMPLE, epoch, int(i)]))
                for i in idxs]
            lr_used = lr_at(opt.step, rcfg)
            t0 = timer()
            params, opt, lb = train_step(params, opt, records, rcfg, rngs, manifest.root)
            log.append(opt.step, lr_used, lb.recon, lb.align, lb.total, timer() - t0)
        if out_dir is not None and (epoch + 1) % rcfg.checkpoint_every == 0:
            data_io.save_checkpoint(
                params, opt, opt.step,
                os.path.join(out_dir, f"checkpoint_ep{epoch + 1}.bin"))

    if out_dir is not None:
        data_io.save_checkpoint(params, opt, opt.step,
                                os.path.join(out_dir, "checkpoint.bin"))
        log.write(metrics_path)
    return params, opt, log


# ---------------------------------------------------------------------------
# finite-difference gradient checking

TINY_CHECK_MODEL = ModelConfig(embed_dim=8, depth=1, n_heads=2, decoder_dim=8,
                               decoder_depth=1, decoder_heads=2, patch_size=8,
                               grid_h=2, grid_w=2)


def finite_difference_grads(loss_fn, params: ModelParams, h: float = 1e-5):
    """Central differences of a scalar loss over every parameter element."""
    out = {}
    for name, arr in params.arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn(params)
            flat[i] = orig - h
            fm = loss_fn(params)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        out[name] = g
    return out


def gradient_check(model_cfg: ModelConfig | None = None,
                   loss_cfg: LossConfig | None = None, seed: int = 0,
                   h: float = 1e-5, corrupt: str | None = None) -> dict[str, float]:
    """Max relative error of analytic vs finite-difference grads, per group.

    Uses a two-item batch with two random masks per item so every loss term
    is active. `corrupt` perturbs one analytic group, for negative controls.
    """
    model_cfg = model_cfg if model_cfg is not None else TINY_CHECK_MODEL
    loss_cfg = loss_cfg if loss_cfg is not None else LossConfig()
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SEED_CHECK]))
    params = init_params(rng, model_cfg)
    grid = model_cfg.grid
    target = max(grid.n_patches // 2, 1)
    views = []
    for _ in range(2):
        patches = rng.uniform(0.0, 1.0, size=(model_cfg.n_patches, model_cfg.patch_dim))
        plan_a = random_mask(rng, grid, target)
        plan_b = random_mask(rng, grid, target)
        views.append((patches, plan_a, patches, plan_b))

    tape: dict = {}
    batch_loss(params, views, loss_cfg, tape)
    analytic = batch_backward(params, tape)
    if corrupt is not None:
        if corrupt not in analytic:
            raise ConfigError(f"no parameter group named {corrupt!r}")
        analytic[corrupt] = analytic[corrupt] + 1e-3
    fd = finite_difference_grads(lambda p: batch_loss(p, views, loss_cfg).total, params, h)

    report = {}
    for name in params.arrays:
        a = analytic[name]
        f = fd[name]
        rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        report[name] = float(rel.max())
    return report
