"""The masked-row head against the full-grid head it replaced, kept here as the oracle.

The oracle runs the final norm and the head over all N patches, builds the
loss gradient as a zero-filled (V, N, P) array and reduces the head's and the
norm's gradients over every row. The model runs them on the masked rows only;
its predictions, the loss and every gradient group must be bit-equal.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from pmim import model as M
from pmim.cli import _paste_reconstruction
from pmim.data_io import make_synthetic_dataset
from pmim.geometry import unpatchify
from pmim.losses import LossConfig, align_loss_and_grad, total_loss
from pmim.mask_sampling import MaskPlan
from pmim.model import ModelConfig, forward, init_params
from pmim.training import TrainConfig, ViewBatch, batch_backward, batch_loss, build_views


def old_normalize_targets(patches, eps=1e-6):
    mean = patches.mean(axis=-1, keepdims=True)
    var = patches.var(axis=-1, keepdims=True)
    return (patches - mean) / np.sqrt(var + eps)


def before_dec_norm(cfg):
    """The model's stages up to, not including, its final norm."""
    stages = M.forward_stages(cfg)
    return stages[:[stage.name for stage in stages].index("dec_norm")]


def full_grid_forward(params, patches, vis, masked, tape):
    """The model's stages up to its final norm, then the norm and head over every patch.

    Returns (cls, (V, N, P)).
    """
    acts = M.run_stages(params, before_dec_norm(params.cfg), M.Activations(patches), vis,
                        masked, tape)
    z, tape["dec_norm"] = M._layernorm_fwd(acts.x, params, "dec_norm")
    tape["head"] = z
    return acts.cls[..., 0, :], M._linear(z, params, "head")


def full_grid_backward(params, tape, d_pred, d_cls):
    """The head and final norm reduced over every patch, then the model's stage backs."""
    grad = np.zeros(params.n_params)
    grads = params.views(grad)
    dy = M._layernorm_bwd(M._linear_bwd(d_pred, tape["head"], params, "head", grads),
                          params, "dec_norm", tape["dec_norm"], grads)
    d = dy, None, d_cls[..., None, :]
    for stage in reversed(before_dec_norm(params.cfg)):
        d = stage.back(params, *d, tape[stage.name], grads)
    return grad


def full_grid_oracle(params, batch, loss_cfg):
    """(predictions (V, N, P), LossBreakdown, gradient) the way the full-grid head made them."""
    tape = {}
    cls, pred = full_grid_forward(params, batch.patches, batch.vis, batch.masked, tape)
    rows = MaskPlan.view_rows(batch.masked)
    d_pred = np.zeros_like(pred)
    if batch.masked.shape[-1]:
        tgt = batch.patches[rows]
        tgt = old_normalize_targets(tgt) if loss_cfg.normalize_targets else tgt
        diff = pred[rows] - tgt
        recon_views = np.mean(diff * diff, axis=(-2, -1))
        d_pred[rows] = 2.0 * diff / (diff.shape[-2] * diff.shape[-1])
    else:
        recon_views = np.zeros(len(pred))
    recon_sum = 0.0
    for pair in (recon_views[0::2] + recon_views[1::2]).tolist():
        recon_sum += pair
    align, dz, dzt = align_loss_and_grad(cls[0::2], cls[1::2], loss_cfg)
    d_pred *= 1.0 / (2 * batch.n_items)
    d_cls = loss_cfg.align_weight * np.stack([dz, dzt], axis=1).reshape(cls.shape)
    breakdown = total_loss(recon_sum / (2 * batch.n_items), align, loss_cfg)
    return pred, breakdown, full_grid_backward(params, tape, d_pred, d_cls)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("masked_head_figures"))
    manifest, _ = make_synthetic_dataset(3, seed=5, out_dir=out)
    return manifest


def part_batch(manifest, cfg):
    """A ViewBatch of part-guided views, drawn the way a training step draws them."""
    views = []
    for i, record in enumerate(manifest.records):
        views.append(build_views(np.random.default_rng(i), record, cfg, manifest.root))
    return ViewBatch(views, cfg.model.grid)


def moved_params(model_cfg, seed=0):
    """Initial parameters plus noise, so no gain is one and no bias zero."""
    params = init_params(np.random.default_rng(seed), model_cfg)
    params.flat += np.random.default_rng(seed + 1).normal(0.0, 0.05, params.n_params)
    return params


CASES = {
    "part": TrainConfig(),
    "ratio0": TrainConfig(masking_ratio=0.0),
    "ratio1": TrainConfig(masking_ratio=1.0),
    "proj_head": TrainConfig(model=ModelConfig(proj_head=True)),
    "raw_targets": TrainConfig(loss=LossConfig(normalize_targets=False)),
    "ratio075": TrainConfig(masking_ratio=0.75),
}


@pytest.mark.parametrize("name", list(CASES))
def test_masked_head_matches_the_full_grid_head(dataset, name):
    cfg = CASES[name]
    batch = part_batch(dataset, cfg)
    params = moved_params(cfg.model)
    n_masked = batch.masked.shape[-1]
    if name in ("part", "proj_head"):  # plan order: part, then block, then fill
        assert (np.diff(batch.masked, axis=-1) < 0).any()
    tape = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = batch_loss(params, batch, cfg.loss, tape)
        untaped = batch_loss(params, batch, cfg.loss)
    # the empty-mask warning, once per call, and only on an empty mask
    assert len(caught) == (2 if n_masked == 0 else 0)
    assert all(w.category is RuntimeWarning for w in caught)
    grad = batch_backward(params, tape)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full_pred, want, want_grad = full_grid_oracle(params, batch, cfg.loss)
    _, pred = forward(params, batch.patches, batch.vis, batch.masked)
    assert pred.shape == (len(batch.masked), n_masked, cfg.model.patch_dim)
    assert np.array_equal(pred, full_pred[MaskPlan.view_rows(batch.masked)])
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert dataclasses.astuple(untaped) == dataclasses.astuple(want)
    differ = [g for g, a in params.views(grad).items()
              if not np.array_equal(a, params.views(want_grad)[g])]
    assert differ == []
    if n_masked == 0:
        assert not params.views(grad)["head_w"].any()


@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
def test_one_view_reconstruction_matches_the_full_grid_head(dataset, normalize):
    # The visualize path: one view run as a batch of one.
    cfg = TrainConfig()
    batch = part_batch(dataset, cfg)
    params = moved_params(cfg.model, seed=3)
    patches = batch.patches[1]
    vis, masked = batch.vis[1:2], batch.masked[1:2]
    _, pred = forward(params, patches[None], vis, masked)
    _, full = full_grid_forward(params, patches[None], vis, masked, {})
    m = masked[0]
    assert np.array_equal(pred[0], full[0, m])

    loss = LossConfig(normalize_targets=normalize)
    image = _paste_reconstruction(patches, vis, masked, params, loss)
    rows = full[0, m]
    if normalize:
        target = patches[m]
        rows = (rows * np.sqrt(target.var(axis=-1, keepdims=True) + 1e-6)
                + target.mean(axis=-1, keepdims=True))
    want = patches.copy()
    want[m] = np.clip(rows, 0.0, 1.0)
    assert np.array_equal(image.data, unpatchify(want, cfg.model.grid).data)
