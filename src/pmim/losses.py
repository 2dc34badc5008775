"""Masked-reconstruction MSE, cross-view InfoNCE alignment, and their gradients.

Reconstruction takes the masked rows of the model's batch: (V, n_masked, P)
predictions and targets, paired row by row, give a (V,) array, each entry
bit-equal to its view's batch of one. training.ViewBatch.targets makes the
target rows once per batch, standardized per patch when the config says so.

Alignment is one contrastive term between two differently masked views of
each image: InfoNCE over their normalized class vectors, anchored on the first
view. An anchor's positive is its own image's second view; its denominator
ranges over every image's second view, the positive included, so the value is
nonnegative and a batch of one gives exactly zero.

Each term gives its value and a cache, and its gradient reads the cache, as a
model stage's run and back do: recon_loss and recon_grad, infonce and
infonce_grad. align_loss_and_grad checks both batches for unit rows, then runs both.

total = recon + align_weight * align is the one scalar that training
differentiates, logs and gradient-checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.2
    align_weight: float = 0.05
    normalize_targets: bool = True

    def __post_init__(self):
        for name in ("temperature", "align_weight"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if type(self.normalize_targets) is not bool:
            raise ConfigError(
                f"normalize_targets must be true or false, got {self.normalize_targets!r}")
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.align_weight < 0.0:
            raise ConfigError(f"align_weight must be >= 0, got {self.align_weight}")


@dataclass
class LossBreakdown:
    """The loss terms and their weighted sum, total."""

    recon: float
    align: float
    total: float


def recon_loss(pred, targets):
    """Per-view MSE over the masked rows, (V,), and pred - targets, the cache recon_grad reads.

    pred and targets are (V, n_masked, P), the masked patches in plan order.
    """
    p = np.asarray(pred, dtype=np.float64)
    tgt = np.asarray(targets, dtype=np.float64)
    if p.shape != tgt.shape or p.ndim != 3:
        raise ConfigError(f"predictions {p.shape} and targets {tgt.shape} are not one "
                          f"(V, n_masked, P) shape")
    diff = p - tgt
    if diff.shape[1] == 0:
        warnings.warn("empty mask: reconstruction loss has no support", RuntimeWarning)
        return np.zeros(len(diff)), diff
    return (diff * diff).sum(axis=(-2, -1)) / (diff.shape[-2] * diff.shape[-1]), diff


def recon_grad(diff: np.ndarray) -> np.ndarray:
    """The gradient of each view's recon_loss value at its predictions, from recon_loss's diff."""
    return 2.0 * diff / (diff.shape[-2] * diff.shape[-1])


def _check_unit_rows(name: str, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ConfigError(f"{name} must be a (B, dim) matrix with B >= 1, got {z.shape}")
    norms = np.sqrt((z * z).sum(axis=1))
    worst = float(np.abs(norms - 1.0).max())
    if not np.isfinite(worst) or worst > 1e-4:
        raise NumericsError(f"{name} rows deviate from unit norm by {worst:.3e}")
    return z


def infonce(z: np.ndarray, z_tilde: np.ndarray, tau: float):
    """InfoNCE value, mean over the batch, and its softmax rows, the cache infonce_grad reads.

    Each row of z is scored against every row of z_tilde; its own partner is
    the positive, and the denominator includes it.
    """
    pos = np.sum(z * z_tilde, axis=1) / tau  # (B,)
    s = (z @ z_tilde.T) / tau  # (B, B)
    m = s.max(axis=1, keepdims=True)
    e = np.exp(s - m)
    denom = e.sum(axis=1, keepdims=True)
    lse = (m + np.log(denom))[:, 0]
    return float((lse - pos).sum() / z.shape[0]), e / denom


def infonce_grad(p: np.ndarray, z: np.ndarray, z_tilde: np.ndarray, tau: float):
    """The gradients of infonce's value at z and z_tilde, from its softmax rows p."""
    ds = (p - np.eye(len(p))) / (len(p) * tau)
    return ds @ z_tilde, ds.T @ z


def align_loss_and_grad(z: np.ndarray, z_tilde: np.ndarray,
                        cfg: LossConfig | None = None):
    """infonce's value and infonce_grad's gradients, for two (B, dim) batches of unit rows."""
    cfg = cfg if cfg is not None else LossConfig()
    z = _check_unit_rows("z", z)
    z_tilde = _check_unit_rows("z_tilde", z_tilde)
    if z.shape != z_tilde.shape:
        raise ConfigError(f"view batches disagree: {z.shape} vs {z_tilde.shape}")
    value, p = infonce(z, z_tilde, cfg.temperature)
    return (value, *infonce_grad(p, z, z_tilde, cfg.temperature))


def total_loss(recon: float, align: float, cfg: LossConfig | None = None) -> LossBreakdown:
    """Weighted sum total = recon + align_weight * align."""
    if cfg is None:
        cfg = LossConfig()
    return LossBreakdown(recon=recon, align=align,
                         total=recon + cfg.align_weight * align)
