"""Masked-reconstruction MSE, cross-view InfoNCE alignment, and their gradients.

The alignment loss compares the normalized class vectors of two differently
masked views of the same batch. Its denominator ranges over the opposite
view's batch and includes the positive, so the value is nonnegative and a
batch of one gives exactly zero. The literal same-view denominator and a
negative-free cosine variant are kept behind flags.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .geometry import normalize_targets
from .mask_sampling import MaskPlan

ALIGN_MODES = ("infonce", "cosine_stopgrad")
NEGATIVE_POOLS = ("cross_view", "same_view")


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.2
    align_weight: float = 0.05
    normalize_targets: bool = True
    align_mode: str = "infonce"
    negatives: str = "cross_view"
    symmetrize: bool = False

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.align_weight < 0.0:
            raise ConfigError(f"align_weight must be >= 0, got {self.align_weight}")
        if self.align_mode not in ALIGN_MODES:
            raise ConfigError(f"align_mode must be one of {ALIGN_MODES}, got {self.align_mode!r}")
        if self.negatives not in NEGATIVE_POOLS:
            raise ConfigError(f"negatives must be one of {NEGATIVE_POOLS}, got {self.negatives!r}")


@dataclass
class LossBreakdown:
    recon: float
    align: float
    total: float


def recon_loss(pred, target_patches: np.ndarray, plan: MaskPlan,
               cfg: LossConfig | None = None) -> float:
    """Mean squared error over masked rows only."""
    value, _ = recon_loss_and_grad(pred, target_patches, plan, cfg)
    return value


def recon_loss_and_grad(pred, target_patches: np.ndarray, plan: MaskPlan,
                        cfg: LossConfig | None = None):
    """Masked MSE and its gradient at the predictions (zero on visible rows)."""
    if cfg is None:
        cfg = LossConfig()
    p = np.asarray(pred, dtype=np.float64)
    tgt = np.asarray(target_patches, dtype=np.float64)
    if p.shape != tgt.shape:
        raise ConfigError(f"prediction {p.shape} and target {tgt.shape} shapes differ")
    if p.shape[0] != plan.grid.n_patches:
        raise ConfigError(
            f"{p.shape[0]} prediction rows for a grid of {plan.grid.n_patches} patches")
    d_pred = np.zeros_like(p)
    if plan.n_masked == 0:
        warnings.warn("empty mask: reconstruction loss has no support", RuntimeWarning)
        return 0.0, d_pred
    if cfg.normalize_targets:
        tgt = normalize_targets(tgt)
    rows = np.asarray(plan.masked, dtype=np.intp)
    diff = p[rows] - tgt[rows]
    value = float(np.mean(diff * diff))
    d_pred[rows] = 2.0 * diff / diff.size
    return value, d_pred


def _check_unit_rows(name: str, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ConfigError(f"{name} must be a (B, dim) matrix with B >= 1, got {z.shape}")
    norms = np.linalg.norm(z, axis=1)
    worst = float(np.abs(norms - 1.0).max())
    if not np.isfinite(worst) or worst > 1e-4:
        raise NumericsError(f"{name} rows deviate from unit norm by {worst:.3e}")
    return z


def _infonce_one_way(z_anchor: np.ndarray, z_key: np.ndarray, tau: float,
                     negatives: str):
    """Value and gradients of the anchor-side loss, mean over the batch.

    cross_view: denominator over the key batch (positive included).
    same_view: denominator over the anchor batch itself, as some texts typeset
    it; kept for comparison. Its self term means a batch of one yields
    (1 - cos)/tau rather than zero.
    """
    b = z_anchor.shape[0]
    pos = np.sum(z_anchor * z_key, axis=1) / tau  # (B,)
    if negatives == "cross_view":
        s = (z_anchor @ z_key.T) / tau  # (B, B)
        m = s.max(axis=1, keepdims=True)
        e = np.exp(s - m)
        denom = e.sum(axis=1, keepdims=True)
        lse = (m + np.log(denom))[:, 0]
        value = float(np.mean(lse - pos))
        p = e / denom  # softmax rows
        ds = (p - np.eye(b)) / (b * tau)
        d_anchor = ds @ z_key
        d_key = ds.T @ z_anchor
    else:
        s = (z_anchor @ z_anchor.T) / tau
        m = s.max(axis=1, keepdims=True)
        e = np.exp(s - m)
        denom = e.sum(axis=1, keepdims=True)
        lse = (m + np.log(denom))[:, 0]
        value = float(np.mean(lse - pos))
        p = e / denom
        d_anchor = ((p + p.T) @ z_anchor) / (b * tau) - z_key / (b * tau)
        d_key = -z_anchor / (b * tau)
    return value, d_anchor, d_key


def align_loss(z: np.ndarray, z_tilde: np.ndarray, tau: float = 0.2,
               negatives: str = "cross_view") -> float:
    """InfoNCE over the two views' class vectors, anchored on the first."""
    value, _, _ = align_loss_and_grad(z, z_tilde, LossConfig(temperature=tau,
                                                             negatives=negatives))
    return value


def align_loss_stopgrad(z: np.ndarray, z_tilde: np.ndarray) -> float:
    """Negative mean cosine similarity, the negative-free variant."""
    value, _, _ = align_loss_and_grad(z, z_tilde, LossConfig(align_mode="cosine_stopgrad"))
    return value


def align_loss_and_grad(z: np.ndarray, z_tilde: np.ndarray,
                        cfg: LossConfig | None = None):
    """Alignment value plus gradients at both (normalized) class batches.

    cosine_stopgrad treats each view's partner as constant, so the gradients
    are the symmetrized stop-gradient ones even though the value is a plain
    mean cosine.
    """
    if cfg is None:
        cfg = LossConfig()
    z = _check_unit_rows("z", z)
    z_tilde = _check_unit_rows("z_tilde", z_tilde)
    if z.shape != z_tilde.shape:
        raise ConfigError(f"view batches disagree: {z.shape} vs {z_tilde.shape}")
    b = z.shape[0]

    if cfg.align_mode == "cosine_stopgrad":
        value = float(-np.mean(np.sum(z * z_tilde, axis=1)))
        dz = -z_tilde / (2.0 * b)
        dzt = -z / (2.0 * b)
        return value, dz, dzt

    value, dz, dzt = _infonce_one_way(z, z_tilde, cfg.temperature, cfg.negatives)
    if cfg.symmetrize:
        value_r, dzt_r, dz_r = _infonce_one_way(z_tilde, z, cfg.temperature, cfg.negatives)
        value = 0.5 * (value + value_r)
        dz = 0.5 * (dz + dz_r)
        dzt = 0.5 * (dzt + dzt_r)
    return value, dz, dzt


def total_loss(recon: float, align: float, cfg: LossConfig | None = None) -> LossBreakdown:
    """Weighted sum: total = recon + align_weight * align."""
    if cfg is None:
        cfg = LossConfig()
    return LossBreakdown(recon=recon, align=align,
                         total=recon + cfg.align_weight * align)
