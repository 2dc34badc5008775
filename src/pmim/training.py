"""Two-view pre-training loop with decoupled weight decay and derived seeding.

Every random draw comes from a seed sequence keyed by (seed, purpose, epoch,
sample index), never from carried generator state, so a resumed run replays
the exact uninterrupted trajectory. A ViewBatch is made once per batch: the
2B views' patches stacked as (V, N, P), laid out a0, b0, a1, b1, ..., their
MaskPlan.batch_indices arrays and the item count. batch_loss runs it as one
model batch and forms no gradient; batch_backward forms the loss gradients from
a taped batch_loss and makes one backward pass, reducing each gradient over the
views in that fixed order, which keeps runs bit-for-bit reproducible.

The finite-difference check runs the model's forward stages (model.forward_stages)
once at the unperturbed parameters and keeps the activations that enter each
stage. An evaluation finds the first element of params.flat whose bits moved
and resumes at the stage that reads it, since what enters a stage depends only
on the elements before its start; the alignment value is recomputed only when
that stage comes before dec_proj. So an evaluation that moves a head element runs
only the head, and its loss is bit-equal to a full forward pass.
"""

from __future__ import annotations

import bisect
import ctypes
import dataclasses
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import data_io
from .errors import ConfigError, NumericsError
from .geometry import apply_crop, normalize_targets, patchify, sample_crop, transform_keypoints
from .losses import (LossBreakdown, LossConfig, infonce, infonce_grad, recon_grad, recon_loss,
                     total_loss)
from .mask_sampling import MaskPlan, num_masked, part_guided_mask, random_mask
from .model import (Activations, ModelConfig, ModelParams, _n_encoder_stages, backward, forward,
                    forward_stages, init_params, run_stages)

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
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        for name in ("batch_size", "total_epochs", "warmup_epochs", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("total_steps", "warmup_steps"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 0):
                raise ConfigError(f"{name} must be an integer >= 0 or null, got {value!r}")
        for name in ("base_lr", "weight_decay", "masking_ratio", "scale_min"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.warmup_epochs > self.total_epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} exceeds total_epochs {self.total_epochs}")
        if self.base_lr < 0.0 or self.weight_decay < 0.0:
            raise ConfigError("base_lr and weight_decay must be >= 0")
        peak = self.base_lr * self.batch_size / 256.0  # lr_at's peak, in its order
        if not (math.isfinite(peak) and math.isfinite(peak * self.weight_decay)):
            raise ConfigError(f"peak learning rate base_lr * batch_size / 256 = {peak} and its "
                              f"product with weight_decay {self.weight_decay} must be finite")
        if not (0.0 <= self.masking_ratio <= 1.0):
            raise ConfigError(f"masking_ratio must be in [0, 1], got {self.masking_ratio}")
        if not (0.0 < self.scale_min <= 1.0):
            raise ConfigError(f"scale_min must be in (0, 1], got {self.scale_min}")


@dataclass
class OptimizerState:
    m: np.ndarray  # AdamW moments, each laid out like ModelParams.flat
    v: np.ndarray
    step: int = 0
    beta1: ClassVar[float] = 0.9  # MAE's fixed AdamW settings
    beta2: ClassVar[float] = 0.95
    eps: ClassVar[float] = 1e-8


def init_optimizer(params: ModelParams) -> OptimizerState:
    return OptimizerState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adamw_update(params: ModelParams, grad: np.ndarray, opt: OptimizerState,
                 lr: float, weight_decay: float):
    """In-place update of params.flat; decay is decoupled, so zero grads shrink by 1 - lr*wd."""
    opt.step += 1
    b1c = 1.0 - opt.beta1 ** opt.step
    b2c = 1.0 - opt.beta2 ** opt.step
    opt.m *= opt.beta1
    opt.m += (1.0 - opt.beta1) * grad
    opt.v *= opt.beta2
    opt.v += (1.0 - opt.beta2) * grad * grad
    params.flat *= 1.0 - lr * weight_decay
    params.flat -= lr * (opt.m / b1c) / (np.sqrt(opt.v / b2c) + opt.eps)


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
        with data_io._replacing(path) as f:  # a failed write keeps the old file whole
            f.write(self.to_jsonl().encode("utf-8"))

    @staticmethod
    def read(path: str) -> "MetricsLog":
        """The rows of a metrics file.

        A last line without its newline is a torn append, left by a crash
        partway through a row: it is dropped with one warning. A malformed
        line that does end in a newline is a ConfigError naming path:line.
        """
        log = MetricsLog()
        data = data_io._read_file(path, "metrics")
        lines = data.splitlines()
        if lines and not data.endswith(b"\n"):
            logger.warning("%s:%d: dropping a torn last row (no newline at its end)",
                           path, len(lines))
            lines.pop()
        for where, row in data_io._json_objects(lines, path, "metrics", ("step",)):
            if type(row["step"]) is not int:
                raise ConfigError(f"{where}: field 'step' must be an integer")
            log.records.append(row)
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
    """One crop and two part-guided masks on it: (patches, plan_a, plan_b).

    That tuple is the item a ViewBatch takes. Both plans hide
    num_masked(masking_ratio, N) patches. Draw order: crop, plan_a, plan_b.
    """
    grid = cfg.model.grid
    out_h, out_w = grid.image_h, grid.image_w
    image = data_io.load_image(os.path.join(root, record.image))
    crop = sample_crop(rng, image.height, image.width, cfg.scale_min, out_h / out_w)
    patches = patchify(apply_crop(image, crop, out_h, out_w), grid)
    kps = transform_keypoints(record.keypoints, crop, out_h, out_w)
    n_masked = num_masked(cfg.masking_ratio, grid.n_patches)
    plan_a = part_guided_mask(rng, kps, grid, n_masked)
    plan_b = part_guided_mask(rng, kps, grid, n_masked)
    return patches, plan_a, plan_b


class ViewBatch:
    """A batch of (patches, plan_a, plan_b) items, prepared once.

    Holds the 2B views' patches stacked as one read-only (V, N, P) array laid
    out a0, b0, a1, b1, ... (each item's patches twice), the (V, n) indices of
    MaskPlan.batch_indices (every view must hide the same number of patches)
    and the item count.
    targets(loss_cfg) makes the reconstruction targets once per setting of
    normalize_targets.
    """

    def __init__(self, views, grid):
        if not views:
            raise ConfigError("empty batch")
        self.n_items = len(views)
        self.patches = np.stack([p for p, _, _ in views for _ in range(2)])
        self.patches.flags.writeable = False
        plans = [plan for _, plan_a, plan_b in views for plan in (plan_a, plan_b)]
        self.vis, self.masked = MaskPlan.batch_indices(plans, grid)
        self._targets = {}

    def targets(self, loss_cfg: LossConfig) -> np.ndarray:
        """The masked patches' pixels, (V, n_masked, P) in plan order, read-only.

        Each row is standardized when loss_cfg.normalize_targets is set.
        """
        normalize = loss_cfg.normalize_targets
        if normalize not in self._targets:
            rows = self.patches[MaskPlan.view_rows(self.masked)]
            rows = normalize_targets(rows) if normalize else rows
            rows.flags.writeable = False
            self._targets[normalize] = rows
        return self._targets[normalize]


def _loss(cls: np.ndarray, pred: np.ndarray, batch: ViewBatch, loss_cfg: LossConfig, align=None):
    """(LossBreakdown, cache) of the model's class rows, (V, d), and masked-patch predictions.

    The per-view reconstruction losses are added item by item, then averaged.
    align, infonce's (value, softmax rows) on cls, is made unless given. The
    cache (diff, cls, softmax rows, loss_cfg) is what batch_backward reads.
    """
    if align is None:
        align = infonce(cls[0::2], cls[1::2], loss_cfg.temperature)
    recon_views, diff = recon_loss(pred, batch.targets(loss_cfg))
    recon_sum = 0.0
    for pair in (recon_views[0::2] + recon_views[1::2]).tolist():  # item by item
        recon_sum += pair
    return (total_loss(recon_sum / (2 * batch.n_items), align[0], loss_cfg),
            (diff, cls, align[1], loss_cfg))


def batch_loss(params: ModelParams, batch: ViewBatch, loss_cfg: LossConfig,
               tape: dict | None = None) -> LossBreakdown:
    """Loss over a prepared batch, its 2B views run as one model batch.

    Reconstruction averages the per-view masked MSE (one loss call); alignment
    is InfoNCE over the class-vector pairs. No gradient is formed. Given a tape
    dict, records the model tape and, as tape["loss"], the cache batch_backward reads.
    """
    cls, pred = forward(params, batch.patches, batch.vis, batch.masked, tape)
    breakdown, cache = _loss(cls, pred, batch, loss_cfg)
    if tape is not None:
        tape["loss"] = cache
    return breakdown


def batch_backward(params: ModelParams, tape: dict) -> np.ndarray:
    """params.grad, zeroed, then refilled with the exact gradient of a taped batch_loss."""
    diff, cls, p, loss_cfg = tape["loss"]
    d_pred = recon_grad(diff)
    d_pred *= 1.0 / len(cls)  # 1 / (2B): reconstruction averages over the views
    dz, dzt = infonce_grad(p, cls[0::2], cls[1::2], loss_cfg.temperature)
    d_cls = loss_cfg.align_weight * np.stack([dz, dzt], axis=1).reshape(cls.shape)
    # Made on first use: under glibc it then sits on the heap above a step's temporaries,
    # which keeps the freed heap from being returned and faulted back in every step.
    if params.grad is None:
        params.grad = np.zeros(params.n_params)
    params.grad.fill(0.0)
    backward(params, tape, d_pred, d_cls, params.grad)
    return params.grad


def train_step(params: ModelParams, opt: OptimizerState, records, cfg: TrainConfig,
               rngs, root: str = ".") -> tuple[float, LossBreakdown]:
    """One optimizer step over a batch of manifest records; returns (lr, loss breakdown).

    rngs is one generator per record; unreadable records are skipped with a
    log line. params and opt are updated in place. Requires a resolved schedule.
    """
    if len(rngs) != len(records):
        raise ConfigError(f"{len(rngs)} generators for {len(records)} records")
    views = []
    used = []
    for record, rng in zip(records, rngs):
        try:
            views.append(build_views(rng, record, cfg, root))
        except ConfigError as e:
            logger.warning("skipping sample %s: %s", record.sample_id, e)
            continue
        used.append(record.sample_id)
    if not views:
        raise ConfigError(f"no loadable record in batch {[r.sample_id for r in records]}")
    tape: dict = {}
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value checked below
        try:
            breakdown = batch_loss(params, ViewBatch(views, params.cfg.grid), cfg.loss, tape)
        except NumericsError as e:  # the model's own checks do not know the step
            raise NumericsError(f"{e} at step {opt.step + 1}; batch ids {used}") from e
        if not (math.isfinite(breakdown.total) and math.isfinite(breakdown.recon)
                and math.isfinite(breakdown.align)):
            raise NumericsError(
                f"non-finite loss {breakdown} at step {opt.step + 1}; batch ids {used}")
        grad = batch_backward(params, tape)
        if not np.isfinite(grad).all():  # AdamW would spread it into every moment it touches
            raise NumericsError(
                f"non-finite gradient in {params.first_group(~np.isfinite(grad))} "
                f"at step {opt.step + 1}; batch ids {used}")
        lr = lr_at(opt.step, cfg)
        adamw_update(params, grad, opt, lr, cfg.weight_decay)
    if not np.isfinite(params.flat).all():  # no checkpoint could load it
        raise NumericsError(
            f"non-finite parameter in {params.first_group(~np.isfinite(params.flat))} after "
            f"the AdamW update at step {opt.step} (lr {lr}, weight decay {cfg.weight_decay})")
    return lr, breakdown


_M_TOP_PAD = -2  # glibc <malloc.h>
_HEAP_TOP_PAD = 64 << 20


def _pad_heap_top() -> None:
    """Have glibc malloc keep _HEAP_TOP_PAD bytes spare above the top of its heap.

    Without it, malloc hands the top of the heap back to the kernel when a
    step frees its tape, and the next step faults those pages in again: about
    a thousand minor faults per default step. Pad pages that are never touched
    cost no memory. The setting is process-wide, so run_pretrain makes it, not
    the import. Off glibc, or when ctypes cannot reach the C library, it does
    nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def run_pretrain(cfg: TrainConfig, manifest: data_io.DatasetManifest,
                 out_dir: str | None = None, resume_from: str | None = None,
                 timer=None):
    """Epoch loop with seeded shuffling; returns (params, opt, MetricsLog).

    With out_dir set, writes metrics.jsonl one row per step as it goes (a
    fresh run truncates it), a checkpoint_ep{N}.bin after every epoch that
    total_steps did not cut short, and a final checkpoint.bin. resume_from
    restarts at the checkpoint's epoch boundary and replays the original
    trajectory exactly; the rows of an existing out_dir/metrics.jsonl up to the
    checkpoint step first replace that file whole, so the log holds the whole
    history, and a failed rewrite leaves it as it was; a torn last row is
    dropped (MetricsLog.read).
    Under glibc it also sets the process's malloc top pad (see _pad_heap_top).
    """
    if not len(manifest):
        raise ConfigError("manifest is empty")
    rcfg, steps_per_epoch = resolve_schedule(cfg, len(manifest))
    timer = timer if timer is not None else time.perf_counter
    _pad_heap_top()

    if resume_from is not None:
        params, opt = data_io.load_checkpoint(resume_from)
        if params.cfg != rcfg.model:
            raise ConfigError(
                f"checkpoint model {params.cfg} does not match configured {rcfg.model}")
        if opt.step % steps_per_epoch != 0:
            raise ConfigError(
                f"checkpoint step {opt.step} is not an epoch boundary "
                f"({steps_per_epoch} steps per epoch)")
        start_epoch = opt.step // steps_per_epoch
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
                           if r["step"] <= opt.step]
        log.write(metrics_path)  # then one appended row per step: a crash keeps them

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
            t0 = timer()
            lr, lb = train_step(params, opt, records, rcfg, rngs, manifest.root)
            log.append(opt.step, lr, lb.recon, lb.align, lb.total, timer() - t0)
            if out_dir is not None:
                with open(metrics_path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(log.records[-1]) + "\n")
        completed = opt.step == (epoch + 1) * steps_per_epoch  # not cut short by total_steps
        if out_dir is not None and completed:
            data_io.save_checkpoint(
                params, opt, os.path.join(out_dir, f"checkpoint_ep{epoch + 1}.bin"))

    if out_dir is not None:
        data_io.save_checkpoint(params, opt, os.path.join(out_dir, "checkpoint.bin"))
    return params, opt, log


# ---------------------------------------------------------------------------
# finite-difference gradient checking

TINY_CHECK_MODEL = ModelConfig(embed_dim=8, depth=1, n_heads=2, decoder_dim=8,
                               decoder_depth=1, decoder_heads=2, patch_size=8,
                               grid_h=2, grid_w=2)


def finite_difference_grads(loss_fn, params: ModelParams, h: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar loss over every element of params.flat."""
    out = np.zeros_like(params.flat)
    for i in range(out.size):
        orig = params.flat[i]
        params.flat[i] = orig + h
        fp = loss_fn(params)
        params.flat[i] = orig - h
        out[i] = (fp - loss_fn(params)) / (2.0 * h)
        params.flat[i] = orig
    return out


def _staged_loss(params: ModelParams, batch: ViewBatch, loss_cfg: LossConfig):
    """The check's loss function, `total` of an untaped batch_loss that resumes mid-forward.

    The forward stages run once here, at the parameters as they are now; the
    activations entering each stage are kept read-only, with infonce's output,
    which holds from dec_proj on. An evaluation compares params.flat with that
    copy as uint64 bits, so 0.0 and -0.0 never alias, and resumes at the stage
    that reads the first element that moved (see the module docstring).
    """
    stages = forward_stages(params.cfg)
    starts = [stage.start for stage in stages]
    kept = []
    acts = Activations(batch.patches)
    for stage in stages:
        for a in acts:
            if a is not None:
                a.flags.writeable = False
        kept.append(acts)
        acts = run_stages(params, (stage,), acts, batch.vis, batch.masked)
    align = infonce(acts.cls[0::2, 0], acts.cls[1::2, 0], loss_cfg.temperature)
    decoder = _n_encoder_stages(params.cfg)
    base = params.flat.view(np.uint64).copy()
    moved = np.empty(base.shape, dtype=bool)

    def loss_fn(p: ModelParams) -> float:
        np.not_equal(p.flat.view(np.uint64), base, out=moved)
        first = int(moved.argmax())
        if not moved[first]:  # nothing moved: rerun the head alone
            first = len(base)
        k = bisect.bisect_right(starts, first) - 1
        out = run_stages(p, stages[k:], kept[k], batch.vis, batch.masked)
        return _loss(out.cls[:, 0], out.x, batch, loss_cfg,
                     align if k >= decoder else None)[0].total
    return loss_fn


def gradient_check(model_cfg: ModelConfig | None = None,
                   loss_cfg: LossConfig | None = None, seed: int = 0,
                   h: float = 1e-5, corrupt: str | None = None) -> dict[str, float]:
    """Max relative error of analytic vs finite-difference grads, per group.

    Uses a two-item batch with two random masks per item so every loss term
    is active. `corrupt` perturbs one analytic group, for negative controls.
    Each evaluation resumes the forward stages where its element is read
    (see _staged_loss).
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
        views.append((patches, plan_a, plan_b))
    batch = ViewBatch(views, grid)

    tape: dict = {}
    batch_loss(params, batch, loss_cfg, tape)
    analytic = batch_backward(params, tape)
    if corrupt is not None:
        if corrupt not in params.arrays:
            raise ConfigError(f"no parameter group named {corrupt!r}")
        params.views(analytic)[corrupt][...] += 1e-3
    fd = finite_difference_grads(_staged_loss(params, batch, loss_cfg), params, h)
    rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return {name: float(r.max()) for name, r in params.views(rel).items()}
