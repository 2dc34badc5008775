"""Encoder/decoder transformer: shapes, invariances, and gradient checks."""

import math
import warnings

import numpy as np
import pytest

from pmim import model
from pmim.errors import ConfigError, NumericsError
from pmim.geometry import PatchGrid, make_patch_grid
from pmim.mask_sampling import MaskPlan, random_mask
from pmim.model import (
    ModelConfig,
    ModelParams,
    _ERF_T,
    _ERF_U,
    _ERFC_P,
    _ERFC_Q,
    _erf,
    _gelu,
    _gelu_grad,
    _polevl,
    attention_maps,
    backward,
    forward,
    init_params,
    param_shapes,
    sincos_pos_embed,
)

TINY = ModelConfig(embed_dim=8, depth=1, n_heads=2, decoder_dim=8,
                   decoder_depth=1, decoder_heads=2, patch_size=4,
                   grid_h=2, grid_w=2)


def tiny_setup(seed=0, n_mask=2):
    """Parameters and one view as a batch of one: patches (1, N, P) and its plan."""
    rng = np.random.default_rng(seed)
    params = init_params(rng, TINY)
    patches = rng.random((1, TINY.n_patches, TINY.patch_dim))
    plan = random_mask(rng, TINY.grid, n_mask)
    return params, patches, plan


def indices(plan):
    """The (1, n) visible and masked indices of a batch of one plan."""
    return MaskPlan.batch_indices([plan], TINY.grid)


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


@pytest.mark.parametrize("cfg", [
    TINY,
    ModelConfig(embed_dim=4, depth=1, n_heads=1, decoder_dim=4, decoder_depth=1,
                decoder_heads=1, patch_size=4, grid_h=2, grid_w=2, proj_head=True),
    ModelConfig(embed_dim=8, depth=2, n_heads=2, decoder_dim=8, decoder_depth=2,
                decoder_heads=2, patch_size=4, grid_h=2, grid_w=2),
], ids=["tiny", "micro_proj_head", "depth2"])
def test_stage_starts_increase_on_group_starts(cfg):
    stages = model.forward_stages(cfg)
    starts = [stage.start for stage in stages]
    group_starts = {start for _, start, _, _ in model._layout(cfg)}
    assert starts[0] == 0 and set(starts) <= group_starts
    names = [stage.name for stage in stages]
    # the class-vector normalization reads no parameter: it starts where the decoder does
    i = names.index("cls_norm")
    assert names[i + 1] == "dec_proj" and starts[i] == starts[i + 1]
    del starts[i]
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert len(stages) == 2 + 4 * cfg.depth + 2 + cfg.proj_head + 1 + 4 * cfg.decoder_depth + 2
    assert stages[names.index("dec_proj")].start == next(
        start for name, start, _, _ in model._layout(cfg) if name == "dec_proj_w")


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
    with pytest.raises(NumericsError, match="head_b"):
        ModelParams(cfg, nan)


def test_params_groups_are_views_into_flat():
    params = init_params(np.random.default_rng(1), TINY)
    start = 0
    for name, shape, _ in param_shapes(TINY):
        size = int(np.prod(shape))
        assert np.array_equal(params.flat[start:start + size].reshape(shape), params[name])
        start += size
    assert start == params.flat.size == params.n_params
    params["head_b"][...] = 7.0  # head_b is the last group
    assert (params.flat[-TINY.patch_dim:] == 7.0).all()
    assert (params.flat[:-TINY.patch_dim] != 7.0).all()
    vec = np.arange(params.n_params, dtype=np.float64)
    assert params.views(vec)["head_b"][-1] == params.n_params - 1
    with pytest.raises(ConfigError):
        params.views(vec[:-1])


def test_params_groups_cannot_be_rebound():
    params = init_params(np.random.default_rng(2), TINY)
    with pytest.raises(TypeError):
        params.arrays["head_b"] = np.zeros(TINY.patch_dim)
    with pytest.raises(TypeError):
        params.views(np.zeros(params.n_params))["head_b"] = np.zeros(TINY.patch_dim)
    assert np.shares_memory(params["head_b"], params.flat)


def test_params_copy_shares_no_memory():
    params = init_params(np.random.default_rng(3), TINY)
    twin = ModelParams(params.cfg, params.arrays)
    assert np.array_equal(twin.flat, params.flat)
    assert not np.shares_memory(twin.flat, params.flat)
    assert not np.shares_memory(twin["head_b"], params.flat)
    twin["head_b"][...] += 1.0
    assert not np.array_equal(twin.flat, params.flat)


def test_pos_embed_origin_row():
    emb = sincos_pos_embed(PatchGrid(4, 4, 8), 16)
    assert sincos_pos_embed(PatchGrid(4, 4, 8), 16) is emb and not emb.flags.writeable
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
    vis, _ = MaskPlan.batch_indices([plan], grid)
    np.testing.assert_array_equal(vis, [[0, 3, 4, 5, 7]])
    assert not vis.flags.writeable


def test_forward_outputs():
    params, patches, plan = tiny_setup()
    cls, pred = forward(params, patches, *indices(plan))
    assert cls.shape == (1, 8)
    np.testing.assert_allclose(np.linalg.norm(cls[0]), 1.0, atol=1e-12)
    assert pred.shape == (1, 2, TINY.patch_dim)


def test_forward_rejects_mismatched_patches():
    params, patches, plan = tiny_setup()
    vis, masked = indices(plan)
    with pytest.raises(ConfigError):
        forward(params, patches[:, :, :10], vis, masked)
    with pytest.raises(ConfigError):  # one view's indices without the view axis
        forward(params, patches, vis[0], masked[0])
    other = MaskPlan(PatchGrid(3, 3, 4), 0, [], [])
    with pytest.raises(ConfigError):
        forward(params, patches, *indices(other))


def test_forward_rejects_masked_indices_of_another_batch():
    params, patches, plan = tiny_setup(seed=7)
    vis, masked = indices(plan)
    for bad in (masked[0], np.concatenate([masked, masked])):  # no view axis; V = 2, not 1
        with pytest.raises(ConfigError, match="masked indices"):
            forward(params, patches, vis, bad)


def test_encoder_ignores_masked_patch_content():
    params, patches, plan = tiny_setup(seed=3)
    tampered = patches.copy()
    tampered[0, plan.masked] = 0.123
    vis, masked = indices(plan)
    cls_a, pred_a = forward(params, patches, vis, masked)
    cls_b, pred_b = forward(params, tampered, vis, masked)
    np.testing.assert_array_equal(cls_a, cls_b)
    np.testing.assert_array_equal(pred_a, pred_b)


def encoder_over_tokens(params, tokens):
    """The encoder stages after the patch embedding, on already-embedded tokens (V, n, d)."""
    stages = model.forward_stages(params.cfg)[1:model._n_encoder_stages(params.cfg)]
    acts = model.run_stages(params, stages, model.Activations(tokens), None, None)
    return acts.cls[..., 0, :], acts.x


def test_encoder_token_order_equivariant():
    params, patches, plan = tiny_setup(seed=4, n_mask=0)
    rng = np.random.default_rng(9)
    tok = rng.random((1, 4, 8))
    cls_a, out_a = encoder_over_tokens(params, tok)
    perm = np.array([2, 0, 3, 1])
    cls_b, out_b = encoder_over_tokens(params, tok[:, perm])
    np.testing.assert_allclose(cls_b, cls_a, atol=1e-12)
    np.testing.assert_allclose(out_b, out_a[:, perm], atol=1e-12)


def test_decoder_fills_every_patch():
    # every masked patch gets a prediction, in plan order; visible ones get none
    params, patches, plan = tiny_setup(seed=5)
    vis, masked = indices(plan)
    _, pred = forward(params, patches, vis, masked)
    assert pred.shape == (1, plan.n_masked, TINY.patch_dim)
    assert np.isfinite(pred).all()
    flipped = MaskPlan(plan.grid, plan.n_masked, plan.masked[::-1], plan.provenance[::-1])
    vis_f, masked_f = indices(flipped)
    assert np.array_equal(forward(params, patches, vis_f, masked_f)[1], pred[:, ::-1])


def test_backward_zero_pred_seed_leaves_decoder_untouched():
    params, patches, plan = tiny_setup(seed=8)
    tape = {}
    forward(params, patches, *indices(plan), tape)
    u = np.random.default_rng(1).normal(size=(1, 8))
    grad = np.zeros(params.n_params)
    backward(params, tape, np.zeros((1, plan.n_masked, 48)), u, grad)
    grads = params.views(grad)
    for name in ("head_w", "head_b", "dec_proj_w", "mask_token", "dec_norm_g"):
        assert not grads[name].any()
    assert grads["patch_proj_w"].any()  # class-vector seed reaches the encoder
    assert grads["cls_token"].any()


def test_backward_directional_derivative():
    params, patches, plan = tiny_setup(seed=11)
    rng = np.random.default_rng(2)
    w_pred = rng.normal(size=(1, plan.n_masked, TINY.patch_dim))
    u = rng.normal(size=8)
    vis, masked = indices(plan)

    tape = {}
    forward(params, patches, vis, masked, tape)
    grad = np.zeros(params.n_params)
    backward(params, tape, w_pred, u[None], grad)

    delta = rng.normal(size=params.n_params)
    analytic = float(grad @ delta)

    def value(t):
        moved = params.views(params.flat + t * delta)
        cls, pred = forward(ModelParams(TINY, moved), patches, vis, masked)
        return float((pred * w_pred).sum() + cls[0] @ u)

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

    vis, masked = indices(plan)
    cls_a, pred_a = forward(params, patches, vis, masked)
    cls_b, pred_b = forward(with_head, patches, vis, masked)
    assert not np.allclose(cls_b, cls_a)
    np.testing.assert_allclose(np.linalg.norm(cls_b[0]), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pred_b, pred_a)


def test_attention_maps_are_distributions():
    params, patches, _ = tiny_setup(seed=14)
    maps = attention_maps(params, patches[0])
    assert maps.shape == (1, 2, TINY.n_patches + 1, TINY.n_patches + 1)
    assert (maps >= 0.0).all()
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)


def test_erf_matches_scipy_oracle():
    from scipy.special import erf as scipy_erf  # the oracle, from the test extra

    def bits(a):
        return np.asarray(a, dtype=np.float64).view(np.int64)

    # |x| <= 1: the same operations in the same order as Cephes, so bit-equal
    tiny = np.geomspace(1e-300, 1e-3, 2_001)
    inner = np.concatenate([np.linspace(-1.0, 1.0, 400_001), tiny, -tiny])
    assert np.array_equal(bits(_erf(inner)), bits(scipy_erf(inner)))

    # beyond: numpy's exp against the C library's, within 2 ulp; the |x| <= 1
    # entries of a mixed array stay bit-equal
    wide = np.concatenate([np.linspace(-10.0, 10.0, 400_001), np.geomspace(1.0, 1e300, 2_001)])
    got, want = _erf(wide), scipy_erf(wide)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.abs(bits(got) - bits(want)).max() <= 2
    small = np.abs(wide) <= 1.0
    assert np.array_equal(bits(got[small]), bits(want[small]))

    one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    edges = np.array([0.0, 1.0, one_up, one_down, 6.0, np.nextafter(6.0, 0.0), 8.0, np.inf])
    edges = np.concatenate([edges, -edges])
    got, want = _erf(edges), scipy_erf(edges)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # erf(-0.0) is -0.0
    assert np.abs(bits(got) - bits(want)).max() <= 2
    far = np.abs(edges) >= 6.0
    assert np.array_equal(got[far], np.sign(edges[far]))
    assert np.isnan(_erf(np.array([np.nan, 0.5, 2.0]))).tolist() == [True, False, False]


def _two_branch_erf(x):
    """The former _erf: an all-|x| <= 1 early return, else a split and a recursion."""
    a = np.abs(x)
    if a.max(initial=0.0) <= 1.0:
        z = x * x
        return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    out = np.empty_like(a)
    small = a <= 1.0
    out[small] = _two_branch_erf(x[small])
    big = ~small
    ab = np.minimum(a[big], 6.0)
    out[big] = np.copysign(1.0 - np.exp(-ab * ab) * _polevl(ab, _ERFC_P) / _polevl(ab, _ERFC_Q),
                           x[big])
    return out


def test_erf_matches_the_two_branch_form_bit_for_bit():
    def bits(a):
        return np.asarray(a, dtype=np.float64).view(np.int64)

    one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, 1.0, one_up, one_down, 6.0, 7.0, np.inf, np.nan, 1e300,
                        tiny, 1000 * tiny, np.finfo(np.float64).tiny])
    special = np.concatenate([special, -special])
    assert np.signbit(special[np.isnan(special)]).tolist() == [False, True]
    rng = np.random.default_rng(0)
    cases = [special, special.reshape(4, 6), special.reshape(4, 6).T, special[::3]]  # any layout
    for share in (0.0, 0.02, 0.10, 0.30):
        x = rng.uniform(-1.0, 1.0, size=(4, 17, 32))
        where = rng.random(x.shape) < share
        x[where] = rng.uniform(1.0, 9.0, where.sum()) * rng.choice([-1.0, 1.0], where.sum())
        assert abs(where.mean() - share) < 0.02
        cases.append(x)
    cases += [np.array(0.5), np.array(-2.0), np.array(np.nan), np.empty((0, 3))]  # 0-d, empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in cases:
            got, want = _erf(x), _two_branch_erf(x)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(bits(got), bits(want)), x


def test_gelu_grad_matches_central_differences_on_both_erf_branches():
    # |x / sqrt 2| = 1 at x = +-sqrt 2; _erf clamps at |x / sqrt 2| = 6, x = +-8.49
    r2 = math.sqrt(2.0)
    edges = np.array([r2, 6.0 * r2])[:, None] + np.array([-1e-3, -1e-6, 0.0, 1e-6, 1e-3])
    x = np.concatenate([np.linspace(-10.0, 10.0, 2_001), edges.ravel(), -edges.ravel()])
    assert (np.abs(x) / r2 > 1.0).any() and (np.abs(x) / r2 > 6.0).any()
    h = 1e-5
    fd = (_gelu(x + h)[0] - _gelu(x - h)[0]) / (2.0 * h)
    np.testing.assert_allclose(_gelu_grad(x, _gelu(x)[1]), fd, rtol=1e-7, atol=1e-8)


def test_each_stage_back_is_the_adjoint_of_its_run():
    # <w, run(inputs + t u, params + t u_params)> differentiated along u at t = 0
    # must equal <back(w), u>, stage by stage, so a wrong back fails by name.
    cfg = ModelConfig(embed_dim=4, depth=2, n_heads=2, decoder_dim=4, decoder_depth=2,
                      decoder_heads=2, patch_size=4, grid_h=2, grid_w=2, proj_head=True)
    rng = np.random.default_rng(0)
    params = init_params(rng, cfg)
    params.flat += rng.normal(0.0, 0.05, params.n_params)  # no unit gain, no zero bias
    patches = rng.random((2, cfg.n_patches, cfg.patch_dim))
    vis = np.array([[3, 0], [1, 2]])
    masked = np.array([[2, 1], [3, 0]])  # plan order is not raster order
    stages = model.forward_stages(cfg)
    stops = [stage.start for stage in stages[1:]] + [params.n_params]
    acts = model.Activations(patches)
    wrong = []
    for stage, stop in zip(stages, stops):
        *outs, cache = stage.run(params, *acts, vis, masked)
        w = [None if out is None else rng.normal(size=out.shape) for out in outs]
        grad = np.zeros(params.n_params)
        d = stage.back(params, *w, cache, params.views(grad))
        # the patches are data: the embedding returns no gradient for them
        assert [g is None for g in d] == [a is None or stage.name == "patch_proj"
                                          for a in acts], stage.name
        u = [None if g is None else rng.normal(size=a.shape) for a, g in zip(acts, d)]
        u_params = np.zeros(params.n_params)
        u_params[stage.start:stop] = rng.normal(size=stop - stage.start)

        def value(t):
            moved = model.ModelParams(cfg, params.views(params.flat + t * u_params))
            inputs = [a if v is None else a + t * v for a, v in zip(acts, u)]
            outs = stage.run(moved, *inputs, vis, masked)[:3]
            return sum(float((o * s).sum()) for o, s in zip(outs, w) if s is not None)

        h = 1e-6
        fd = (value(h) - value(-h)) / (2 * h)
        analytic = float(grad @ u_params) + sum(float((g * v).sum())
                                                for g, v in zip(d, u) if g is not None)
        if abs(analytic - fd) > 1e-7 * max(abs(analytic), abs(fd), 1.0):
            wrong.append((stage.name, analytic, fd))
        acts = model.Activations(*outs)
    assert wrong == []
