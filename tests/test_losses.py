"""Reconstruction and alignment losses: closed-form values and gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmim.errors import ConfigError, NumericsError
from pmim.geometry import make_patch_grid, normalize_targets
from pmim.losses import (
    LossConfig,
    align_loss_and_grad,
    infonce,
    infonce_grad,
    recon_grad,
    recon_loss,
    total_loss,
)
from pmim.mask_sampling import MaskPlan
from pmim.training import ViewBatch


def unit_rows(rng, b, dim=8):
    z = rng.normal(size=(b, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def plan_2x2():
    return MaskPlan(make_patch_grid(8, 8, 4), 2, [0, 3], ["fill", "fill"])


def masked_of(*plans):
    """The (V, n) masked indices of a batch of plans."""
    return MaskPlan.batch_indices(plans, plans[0].grid)[1]


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        LossConfig(align_weight=-0.1)


def test_recon_constant_offset():
    rng = np.random.default_rng(0)
    tgt = rng.random((1, 2, 48))
    value = recon_loss(tgt + 0.5, tgt)[0][0]
    assert value == pytest.approx(0.25, abs=1e-12)


def test_recon_ignores_visible_rows():
    # The targets are the masked rows alone, so visible pixels cannot register.
    rng = np.random.default_rng(1)
    patches = rng.random((4, 48))
    tampered = patches.copy()
    tampered[[1, 2]] += 100.0  # the visible rows of plan_2x2
    plan = plan_2x2()
    cfg = LossConfig(normalize_targets=False)
    tgt = ViewBatch([(patches, plan, plan)], plan.grid).targets(cfg)
    assert np.array_equal(tgt, patches[None, [0, 3]].repeat(2, axis=0))
    moved = ViewBatch([(tampered, plan, plan)], plan.grid).targets(cfg)
    assert np.array_equal(moved, tgt)
    values, diff = recon_loss(tgt, moved)
    assert not values.any() and not recon_grad(diff).any()


def test_recon_normalized_targets_zero_at_match():
    rng = np.random.default_rng(2)
    patches = rng.random((4, 48))
    plan = plan_2x2()
    tgt = ViewBatch([(patches, plan, plan)], plan.grid).targets(LossConfig())
    pred = normalize_targets(patches[[0, 3]])[None].repeat(2, axis=0)
    value = recon_loss(pred, tgt)[0][0]
    assert value == pytest.approx(0.0, abs=1e-24)


def test_recon_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    tgt = rng.random((1, 2, 48))
    pred = rng.random((1, 2, 48))
    grad = recon_grad(recon_loss(pred, tgt)[1])
    delta = rng.normal(size=pred.shape)
    h = 1e-6
    fd = (recon_loss(pred + h * delta, tgt)[0][0]
          - recon_loss(pred - h * delta, tgt)[0][0]) / (2 * h)
    assert float((grad * delta).sum()) == pytest.approx(fd, rel=1e-7)
    assert np.array_equal(grad, 2.0 * (pred - tgt) / (2 * 48))


def test_loss_values_equal_the_np_mean_reductions():
    # Both losses reduce as sum / n, which is the reduce and divide np.mean runs, bit for bit.
    rng = np.random.default_rng(8)
    pred, tgt = rng.random((4, 2, 192)), rng.random((4, 2, 192))
    diff = pred - tgt
    assert np.array_equal(recon_loss(pred, tgt)[0], np.mean(diff * diff, axis=(-2, -1)))
    z, zt = unit_rows(rng, 5), unit_rows(rng, 5)
    s = (z @ zt.T) / 0.2
    m = s.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(s - m).sum(axis=1, keepdims=True)))[:, 0]
    assert align_loss_and_grad(z, zt)[0] == float(np.mean(lse - np.sum(z * zt, axis=1) / 0.2))


def test_recon_empty_mask_warns():
    with pytest.warns(RuntimeWarning):
        values, diff = recon_loss(np.ones((1, 0, 48)), np.zeros((1, 0, 48)))
    assert values[0] == 0.0 and recon_grad(diff).shape == (1, 0, 48)


def test_recon_shape_checks():
    with pytest.raises(ConfigError):
        recon_loss(np.zeros((1, 2, 48)), np.zeros((1, 2, 47)))
    with pytest.raises(ConfigError):
        recon_loss(np.zeros((1, 3, 48)), np.zeros((1, 2, 48)))
    with pytest.raises(ConfigError):
        recon_loss(np.zeros((2, 48)), np.zeros((2, 48)))


@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
def test_recon_batch_matches_batches_of_one(normalize):
    rng = np.random.default_rng(4)
    grid = make_patch_grid(8, 8, 4)
    plans = [MaskPlan(grid, 2, list(rng.permutation(4)[:2]), ["fill", "fill"])
             for _ in range(4)]
    patches = rng.random((2, 4, 48))  # one crop per item, shared by its two views
    batch = ViewBatch([(patches[i], plans[2 * i], plans[2 * i + 1]) for i in (0, 1)], grid)
    cfg = LossConfig(normalize_targets=normalize)
    tgt = batch.targets(cfg)
    assert tgt is batch.targets(cfg)  # made once per batch
    pred = rng.random(tgt.shape)
    values, diffs = recon_loss(pred, tgt)
    grads = recon_grad(diffs)
    assert values.shape == (4,)
    for v, plan in enumerate(plans):
        one = patches[v // 2][plan.masked][None]
        value, diff = recon_loss(pred[v:v + 1], normalize_targets(one) if normalize else one)
        assert values[v] == value[0]
        assert np.array_equal(grads[v], recon_grad(diff)[0])


def test_recon_view_axis_checks():
    grid = make_patch_grid(8, 8, 4)
    ragged = [plan_2x2(), MaskPlan(grid, 1, [2], ["fill"])]
    with pytest.raises(ConfigError, match="one number of patches"):
        masked_of(*ragged)
    with pytest.raises(ConfigError):
        recon_loss(np.zeros((3, 2, 48)), np.zeros((2, 2, 48)))
    with pytest.warns(RuntimeWarning) as caught:
        values, diffs = recon_loss(np.ones((3, 0, 48)), np.zeros((3, 0, 48)))
        grads = recon_grad(diffs)
    assert len(caught) == 1
    assert np.array_equal(values, np.zeros(3)) and grads.shape == (3, 0, 48)


def test_align_orthogonal_negatives():
    z = np.eye(2, 8)  # two orthonormal rows
    value = align_loss_and_grad(z, z.copy(), LossConfig(temperature=0.2))[0]
    assert value == pytest.approx(math.log(1.0 + math.exp(-5.0)), abs=1e-12)


def test_align_identical_batch_saturates():
    z = np.tile(np.array([1.0, 0, 0, 0, 0, 0, 0, 0]), (4, 1))
    assert align_loss_and_grad(z, z.copy())[0] == pytest.approx(math.log(4.0), abs=1e-12)
    # and the saturated point is a stationary point of the batch
    _, dz, dzt = align_loss_and_grad(z, z.copy())
    assert np.abs(dz).max() == 0.0
    assert np.abs(dzt).max() == 0.0


def test_align_single_pair_is_zero():
    rng = np.random.default_rng(4)
    z = unit_rows(rng, 1)
    zt = unit_rows(rng, 1)
    assert align_loss_and_grad(z, zt)[0] == 0.0


def test_align_requires_unit_rows():
    with pytest.raises(NumericsError):
        align_loss_and_grad(np.full((2, 8), 0.5), np.eye(2, 8))
    with pytest.raises(ConfigError):
        align_loss_and_grad(np.ones(8), np.ones(8))
    with pytest.raises(ConfigError):
        align_loss_and_grad(np.eye(2, 8), np.eye(3, 8))


@pytest.mark.parametrize("tau", [0.2, 0.07])
def test_align_loss_and_grad_is_infonce_then_infonce_grad(tau):
    # The checked entry adds only its checks: the value and both gradients are
    # the unchecked pair's, bit for bit.
    rng = np.random.default_rng(9)
    z, zt = unit_rows(rng, 5), unit_rows(rng, 5)
    value, p = infonce(z, zt, tau)
    assert np.allclose(p.sum(axis=1), 1.0)
    want = (value, *infonce_grad(p, z, zt, tau))
    got = align_loss_and_grad(z, zt, LossConfig(temperature=tau))
    assert got[0] == want[0]
    assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))


@pytest.mark.parametrize("cfg", [LossConfig(), LossConfig(temperature=0.07)])
def test_align_gradients_match_finite_differences(cfg):
    rng = np.random.default_rng(7)
    z, zt = unit_rows(rng, 4), unit_rows(rng, 4)
    _, dz, dzt = align_loss_and_grad(z, zt, cfg)
    dz_dir = rng.normal(size=z.shape)
    dzt_dir = rng.normal(size=zt.shape)
    h = 1e-7

    def value(t):
        v, _, _ = align_loss_and_grad(z + t * dz_dir, zt + t * dzt_dir, cfg)
        return v

    fd = (value(h) - value(-h)) / (2 * h)
    analytic = float((dz * dz_dir).sum() + (dzt * dzt_dir).sum())
    assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-9)


@given(b=st.integers(1, 6), seed=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_align_nonnegative_and_bounded(b, seed):
    # denominator includes the positive, so the value never dips below zero;
    # log-sum-exp over cosines in [-1, 1] caps it at 2/tau + log B
    rng = np.random.default_rng(seed)
    value = align_loss_and_grad(unit_rows(rng, b), unit_rows(rng, b))[0]
    assert -1e-12 <= value <= 2.0 / 0.2 + math.log(b) + 1e-9


def test_total_weighted_sum():
    out = total_loss(0.0, math.log(4.0), LossConfig(align_weight=0.05))
    assert out.total == pytest.approx(0.0693147, abs=1e-6)
    assert out.recon == 0.0
    out2 = total_loss(0.5, 2.0, LossConfig(align_weight=0.0))
    assert out2.total == 0.5
