"""Encoder/decoder transformer: shapes, invariances, and gradient checks."""

import numpy as np
import pytest

from pmim.errors import ConfigError, NumericsError
from pmim.geometry import PatchGrid, make_patch_grid
from pmim.mask_sampling import MaskPlan, random_mask
from pmim.model import (
    ModelConfig,
    ModelParams,
    attention_maps,
    backward,
    decode,
    encode,
    encode_tokens,
    forward_view,
    init_params,
    param_shapes,
    sincos_pos_embed,
    visible_indices,
)

TINY = ModelConfig(embed_dim=8, depth=1, n_heads=2, decoder_dim=8,
                   decoder_depth=1, decoder_heads=2, patch_size=4,
                   grid_h=2, grid_w=2)


def tiny_setup(seed=0, n_mask=2):
    rng = np.random.default_rng(seed)
    params = init_params(rng, TINY)
    patches = rng.random((TINY.n_patches, TINY.patch_dim))
    plan = random_mask(rng, TINY.grid, n_mask)
    return params, patches, plan


def test_param_count_default_config():
    params = init_params(np.random.default_rng(0), ModelConfig())
    assert params.n_params == 38_800


def test_param_count_tiny_config():
    # patch embed 48*8+8, cls 8, one encoder block 872, final norm 16,
    # decoder proj 72, mask token 8, one decoder block 872, norm 16,
    # pixel head 8*48+48
    params = init_params(np.random.default_rng(0), TINY)
    assert params.n_params == 392 + 8 + 872 + 16 + 72 + 8 + 872 + 16 + 432


def test_param_shapes_layout():
    names = [n for n, _, _ in param_shapes(ModelConfig())]
    assert names[0] == "patch_proj_w"
    assert names[2] == "cls_token"
    assert names[-1] == "head_b"
    assert "proj1_w" not in names
    with_head = [n for n, _, _ in param_shapes(ModelConfig(proj_head=True))]
    i = with_head.index("enc_norm_b")
    assert with_head[i + 1:i + 5] == ["proj1_w", "proj1_b", "proj2_w", "proj2_b"]


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=10, n_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=6, n_heads=2)  # not divisible by 4
    with pytest.raises(ConfigError):
        ModelConfig(depth=0)


def test_init_statistics():
    cfg = ModelConfig()
    params = init_params(np.random.default_rng(5), cfg)
    for name, _, kind in param_shapes(cfg):
        arr = params[name]
        if kind in ("weight", "token"):
            assert np.abs(arr).max() <= 0.04 + 1e-12  # two deviations at std 0.02
            assert np.abs(arr).max() > 0.0
        elif kind == "bias":
            assert (arr == 0.0).all()
        else:
            assert (arr == 1.0).all()
    again = init_params(np.random.default_rng(5), cfg)
    for k in params.arrays:
        np.testing.assert_array_equal(params[k], again[k])


def test_params_validation():
    cfg = ModelConfig()
    params = init_params(np.random.default_rng(0), cfg)
    broken = dict(params.arrays)
    del broken["cls_token"]
    with pytest.raises(ConfigError):
        ModelParams(cfg, broken)
    wrong = dict(params.arrays)
    wrong["cls_token"] = np.zeros(3)
    with pytest.raises(ConfigError):
        ModelParams(cfg, wrong)
    nan = {k: v.copy() for k, v in params.arrays.items()}
    nan["head_b"][0] = np.nan
    with pytest.raises(NumericsError):
        ModelParams(cfg, nan)


def test_pos_embed_origin_row():
    emb = sincos_pos_embed(PatchGrid(4, 4, 8), 16)
    q = 4
    np.testing.assert_array_equal(emb[0, :q], 0.0)  # sin(row 0)
    np.testing.assert_array_equal(emb[0, q:2 * q], 1.0)  # cos(row 0)
    np.testing.assert_array_equal(emb[0, 2 * q:3 * q], 0.0)
    np.testing.assert_array_equal(emb[0, 3 * q:], 1.0)
    # patch 1 shares the row half with patch 0 but not the column half
    np.testing.assert_array_equal(emb[1, :2 * q], emb[0, :2 * q])
    assert not np.array_equal(emb[1, 2 * q:], emb[0, 2 * q:])


def test_pos_embed_rows_distinct():
    emb = sincos_pos_embed(PatchGrid(64, 64, 1), 8)
    assert np.unique(emb, axis=0).shape[0] == 64 * 64


def test_pos_embed_rejects_odd_dim():
    with pytest.raises(ConfigError):
        sincos_pos_embed(PatchGrid(2, 2, 8), 6)


def test_visible_indices_complement():
    grid = PatchGrid(2, 4, 8)
    plan = MaskPlan(grid, 3, [1, 6, 2], ["fill"] * 3)
    np.testing.assert_array_equal(visible_indices(plan), [0, 3, 4, 5, 7])


def test_encode_outputs():
    params, patches, plan = tiny_setup()
    cls, tokens = encode(params, patches, plan)
    assert cls.shape == (8,)
    np.testing.assert_allclose(np.linalg.norm(cls), 1.0, atol=1e-12)
    assert tokens.shape == (2, 8)


def test_encode_rejects_mismatches():
    params, patches, plan = tiny_setup()
    with pytest.raises(ConfigError):
        encode(params, patches[:, :10], plan)
    other = MaskPlan(PatchGrid(3, 3, 4), 0, [], [])
    with pytest.raises(ConfigError):
        encode(params, patches, other)


def test_encoder_ignores_masked_patch_content():
    params, patches, plan = tiny_setup(seed=3)
    tampered = patches.copy()
    tampered[plan.masked] = 0.123
    cls_a, tokens_a = encode(params, patches, plan)
    cls_b, tokens_b = encode(params, tampered, plan)
    np.testing.assert_array_equal(cls_a, cls_b)
    np.testing.assert_array_equal(tokens_a, tokens_b)


def test_encoder_token_order_equivariant():
    params, patches, plan = tiny_setup(seed=4, n_mask=0)
    rng = np.random.default_rng(9)
    tok = rng.random((4, 8))
    cls_a, out_a = encode_tokens(params, tok)
    perm = np.array([2, 0, 3, 1])
    cls_b, out_b = encode_tokens(params, tok[perm])
    np.testing.assert_allclose(cls_b, cls_a, atol=1e-12)
    np.testing.assert_allclose(out_b, out_a[perm], atol=1e-12)


def test_decoder_fills_every_patch():
    params, patches, plan = tiny_setup(seed=5)
    _, tokens = encode(params, patches, plan)
    pred = decode(params, tokens, plan)
    assert pred.shape == (TINY.n_patches, TINY.patch_dim)
    assert np.isfinite(pred).all()


def test_decode_rejects_wrong_token_count():
    params, patches, plan = tiny_setup(seed=7)
    _, tokens = encode(params, patches, plan)
    with pytest.raises(ConfigError):
        decode(params, tokens[:1], plan)


def test_backward_zero_pred_seed_leaves_decoder_untouched():
    params, patches, plan = tiny_setup(seed=8)
    tape = {}
    forward_view(params, patches, plan, tape)
    u = np.random.default_rng(1).normal(size=8)
    grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    backward(params, tape, np.zeros((4, 48)), u, grads)
    for name in ("head_w", "head_b", "dec_proj_w", "mask_token", "dec_norm_g"):
        assert not grads[name].any()
    assert grads["patch_proj_w"].any()  # class-vector seed reaches the encoder
    assert grads["cls_token"].any()


def test_backward_directional_derivative():
    params, patches, plan = tiny_setup(seed=11)
    rng = np.random.default_rng(2)
    w_pred = rng.normal(size=(len(plan.masked), TINY.patch_dim))
    u = rng.normal(size=8)
    m = np.asarray(plan.masked)

    tape = {}
    _, pred = forward_view(params, patches, plan, tape)
    d_pred = np.zeros_like(pred)
    d_pred[m] = w_pred
    grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    backward(params, tape, d_pred, u, grads)

    delta = {k: rng.normal(size=v.shape) for k, v in params.arrays.items()}
    analytic = sum(float((grads[k] * delta[k]).sum()) for k in sorted(grads))

    def value(t):
        arrays = {k: v + t * delta[k] for k, v in params.arrays.items()}
        cls, pred = forward_view(ModelParams(TINY, arrays), patches, plan)
        return float((pred[m] * w_pred).sum() + cls @ u)

    h = 1e-6
    fd = (value(h) - value(-h)) / (2 * h)
    assert abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6) < 1e-5


def test_projection_head_leaves_pixels_alone():
    cfg2 = ModelConfig(embed_dim=8, depth=1, n_heads=2, decoder_dim=8,
                       decoder_depth=1, decoder_heads=2, patch_size=4,
                       grid_h=2, grid_w=2, proj_head=True)
    params, patches, plan = tiny_setup(seed=12)
    rng = np.random.default_rng(13)
    arrays = {k: v.copy() for k, v in params.arrays.items()}
    arrays.update(proj1_w=rng.normal(size=(8, 8)), proj1_b=rng.normal(size=8),
                  proj2_w=rng.normal(size=(8, 8)), proj2_b=rng.normal(size=8))
    with_head = ModelParams(cfg2, arrays)

    cls_a, tokens_a = encode(params, patches, plan)
    cls_b, tokens_b = encode(with_head, patches, plan)
    np.testing.assert_array_equal(tokens_b, tokens_a)
    assert not np.allclose(cls_b, cls_a)
    np.testing.assert_allclose(np.linalg.norm(cls_b), 1.0, atol=1e-12)
    pred_a = decode(params, tokens_a, plan)
    pred_b = decode(with_head, tokens_b, plan)
    np.testing.assert_array_equal(pred_b, pred_a)


def test_attention_maps_are_distributions():
    params, patches, plan = tiny_setup(seed=14)
    maps = attention_maps(params, patches, plan)
    n_vis = TINY.n_patches - plan.n_masked
    assert maps.shape == (1, 2, n_vis + 1, n_vis + 1)
    assert (maps >= 0.0).all()
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)
