"""Tiny plain-ViT masked autoencoder in numpy, with exact analytic gradients.

The encoder runs over visible patches plus a class token; the decoder fills
masked positions with a shared mask token and predicts all patch pixels.
Everything is float64 and deterministic. A forward pass given a tape dict
records its intermediates there; backward() replays that tape and adds the
view's gradients into a dict the caller owns, so a batch accumulates into one
set of arrays in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericsError
from .geometry import PatchGrid
from .mask_sampling import MaskPlan

LN_EPS = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    depth: int = 2
    n_heads: int = 2
    mlp_ratio: float = 4.0
    decoder_dim: int = 16
    decoder_depth: int = 1
    decoder_heads: int = 2
    patch_size: int = 8
    grid_h: int = 8
    grid_w: int = 4
    proj_head: bool = False  # 2-layer MLP on the class vector before normalization

    def __post_init__(self):
        for name in ("embed_dim", "depth", "n_heads", "decoder_dim", "decoder_depth",
                     "decoder_heads", "patch_size", "grid_h", "grid_w"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}")
        if self.decoder_dim % self.decoder_heads != 0:
            raise ConfigError(
                f"decoder_dim {self.decoder_dim} not divisible by decoder_heads "
                f"{self.decoder_heads}")
        if self.embed_dim % 4 != 0 or self.decoder_dim % 4 != 0:
            raise ConfigError("embed_dim and decoder_dim must be divisible by 4 "
                              "(2D sine-cosine position table)")
        if int(self.embed_dim * self.mlp_ratio) < 1:
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} collapses the MLP")

    @property
    def grid(self) -> PatchGrid:
        return PatchGrid(self.grid_h, self.grid_w, self.patch_size)

    @property
    def n_patches(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)

    @property
    def decoder_mlp_hidden(self) -> int:
        return int(self.decoder_dim * self.mlp_ratio)


def _block_shapes(prefix: str, dim: int, hidden: int) -> list[tuple[str, tuple, str]]:
    return [
        (prefix + "ln1_g", (dim,), "gain"),
        (prefix + "ln1_b", (dim,), "bias"),
        (prefix + "qkv_w", (dim, 3 * dim), "weight"),
        (prefix + "qkv_b", (3 * dim,), "bias"),
        (prefix + "attn_out_w", (dim, dim), "weight"),
        (prefix + "attn_out_b", (dim,), "bias"),
        (prefix + "ln2_g", (dim,), "gain"),
        (prefix + "ln2_b", (dim,), "bias"),
        (prefix + "mlp1_w", (dim, hidden), "weight"),
        (prefix + "mlp1_b", (hidden,), "bias"),
        (prefix + "mlp2_w", (hidden, dim), "weight"),
        (prefix + "mlp2_b", (dim,), "bias"),
    ]


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple, str]]:
    """Every parameter group as (name, shape, kind), in a fixed order.

    Kinds: weight (truncated normal), bias (zeros), gain (ones), token
    (truncated normal). The order fixes both initialization draws and
    checkpoint layout.
    """
    d, dd = cfg.embed_dim, cfg.decoder_dim
    shapes: list[tuple[str, tuple, str]] = [
        ("patch_proj_w", (cfg.patch_dim, d), "weight"),
        ("patch_proj_b", (d,), "bias"),
        ("cls_token", (d,), "token"),
    ]
    for i in range(cfg.depth):
        shapes += _block_shapes(f"enc{i}_", d, cfg.mlp_hidden)
    shapes += [
        ("enc_norm_g", (d,), "gain"),
        ("enc_norm_b", (d,), "bias"),
    ]
    if cfg.proj_head:
        shapes += [
            ("proj1_w", (d, d), "weight"),
            ("proj1_b", (d,), "bias"),
            ("proj2_w", (d, d), "weight"),
            ("proj2_b", (d,), "bias"),
        ]
    shapes += [
        ("dec_proj_w", (d, dd), "weight"),
        ("dec_proj_b", (dd,), "bias"),
        ("mask_token", (dd,), "token"),
    ]
    for i in range(cfg.decoder_depth):
        shapes += _block_shapes(f"dec{i}_", dd, cfg.decoder_mlp_hidden)
    shapes += [
        ("dec_norm_g", (dd,), "gain"),
        ("dec_norm_b", (dd,), "bias"),
        ("head_w", (dd, cfg.patch_dim), "weight"),
        ("head_b", (cfg.patch_dim,), "bias"),
    ]
    return shapes


@dataclass
class ModelParams:
    """Named float64 parameter arrays plus the config they were built for."""

    cfg: ModelConfig
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        expected = {name: shape for name, shape, _ in param_shapes(self.cfg)}
        if set(self.arrays) != set(expected):
            missing = sorted(set(expected) - set(self.arrays))
            extra = sorted(set(self.arrays) - set(expected))
            raise ConfigError(f"parameter name mismatch: missing {missing}, extra {extra}")
        for name, arr in self.arrays.items():
            if arr.shape != expected[name]:
                raise ConfigError(
                    f"parameter {name} has shape {arr.shape}, expected {expected[name]}")
            if not np.isfinite(arr).all():
                raise NumericsError(f"parameter {name} contains non-finite values")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, {k: v.copy() for k, v in self.arrays.items()})

    @property
    def n_params(self) -> int:
        return sum(v.size for v in self.arrays.values())


def _trunc_normal(rng: np.random.Generator, shape: tuple, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every value lies within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def init_params(rng: np.random.Generator, cfg: ModelConfig) -> ModelParams:
    """Truncated-normal weights and tokens (std 0.02), zero biases, unit gains."""
    arrays = {}
    for name, shape, kind in param_shapes(cfg):
        if kind in ("weight", "token"):
            arrays[name] = _trunc_normal(rng, shape)
        elif kind == "bias":
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = np.ones(shape)
    return ModelParams(cfg, arrays)


def sincos_pos_embed(grid: PatchGrid, dim: int) -> np.ndarray:
    """2D sine-cosine position table, (n_patches, dim), raster order.

    Half the channels encode the patch row, half the column; each half is
    sin then cos over dim/4 frequencies 10000^(-k/(dim/4)).
    """
    if dim % 4 != 0:
        raise ConfigError(f"position embedding dim must be divisible by 4, got {dim}")
    quarter = dim // 4
    omega = 10000.0 ** (-np.arange(quarter, dtype=np.float64) / quarter)
    rows = np.arange(grid.grid_h, dtype=np.float64)
    cols = np.arange(grid.grid_w, dtype=np.float64)
    r = np.repeat(rows, grid.grid_w)[:, None] * omega[None, :]  # (N, dim/4)
    c = np.tile(cols, grid.grid_h)[:, None] * omega[None, :]
    return np.concatenate([np.sin(r), np.cos(r), np.sin(c), np.cos(c)], axis=1)


def visible_indices(plan: MaskPlan) -> np.ndarray:
    """Sorted indices of unmasked patches."""
    return np.setdiff1d(np.arange(plan.grid.n_patches), np.asarray(plan.masked, dtype=np.intp))


# ---------------------------------------------------------------------------
# layer primitives (forward returns a cache tuple, backward consumes it)

def _layernorm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _layernorm_bwd(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x):
    return (0.5 * (1.0 + erf(x / math.sqrt(2.0)))
            + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))


def _attn_fwd(x, wqkv, bqkv, wo, bo, n_heads):
    n, d = x.shape
    dh = d // n_heads
    qkv = x @ wqkv + bqkv  # (n, 3d)
    q, k, v = [a.reshape(n, n_heads, dh).transpose(1, 0, 2)
               for a in np.split(qkv, 3, axis=1)]  # each (h, n, dh)
    scores = (q @ k.transpose(0, 2, 1)) / math.sqrt(dh)  # (h, n, n)
    scores = scores - scores.max(axis=2, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=2, keepdims=True)
    ctx = attn @ v  # (h, n, dh)
    merged = ctx.transpose(1, 0, 2).reshape(n, d)
    return merged @ wo + bo, (x, q, k, v, attn, merged)


def _attn_bwd(dout, wqkv, wo, cache, n_heads):
    x, q, k, v, attn, merged = cache
    n, d = x.shape
    dh = d // n_heads
    dwo = merged.T @ dout
    dbo = dout.sum(axis=0)
    dmerged = dout @ wo.T
    dctx = dmerged.reshape(n, n_heads, dh).transpose(1, 0, 2)
    dattn = dctx @ v.transpose(0, 2, 1)
    dv = attn.transpose(0, 2, 1) @ dctx
    ds = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
    ds = ds / math.sqrt(dh)
    dq = ds @ k
    dk = ds.transpose(0, 2, 1) @ q
    dqkv = np.concatenate(
        [a.transpose(1, 0, 2).reshape(n, d) for a in (dq, dk, dv)], axis=1)
    dwqkv = x.T @ dqkv
    dbqkv = dqkv.sum(axis=0)
    dx = dqkv @ wqkv.T
    return dx, dwqkv, dbqkv, dwo, dbo


def _mlp_fwd(x, w1, b1, w2, b2):
    h_pre = x @ w1 + b1
    h_act = _gelu(h_pre)
    return h_act @ w2 + b2, (x, h_pre, h_act)


def _mlp_bwd(dout, w1, w2, cache):
    x, h_pre, h_act = cache
    dw2 = h_act.T @ dout
    db2 = dout.sum(axis=0)
    dh_pre = (dout @ w2.T) * _gelu_grad(h_pre)
    dw1 = x.T @ dh_pre
    db1 = dh_pre.sum(axis=0)
    dx = dh_pre @ w1.T
    return dx, dw1, db1, dw2, db2


def _stack_fwd(params: ModelParams, prefix: str, depth: int, n_heads: int, x):
    """Pre-norm transformer blocks: x + attn(ln(x)), then x + mlp(ln(x))."""
    tapes = []
    for i in range(depth):
        p = f"{prefix}{i}_"
        n1, ln1c = _layernorm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        a, attnc = _attn_fwd(n1, params[p + "qkv_w"], params[p + "qkv_b"],
                             params[p + "attn_out_w"], params[p + "attn_out_b"], n_heads)
        x1 = x + a
        n2, ln2c = _layernorm_fwd(x1, params[p + "ln2_g"], params[p + "ln2_b"])
        m, mlpc = _mlp_fwd(n2, params[p + "mlp1_w"], params[p + "mlp1_b"],
                           params[p + "mlp2_w"], params[p + "mlp2_b"])
        x = x1 + m
        tapes.append({"ln1": ln1c, "attn": attnc, "ln2": ln2c, "mlp": mlpc})
    return x, tapes


def _stack_bwd(params: ModelParams, prefix: str, depth: int, n_heads: int,
               tapes, dy, grads):
    dx = dy
    for i in reversed(range(depth)):
        p = f"{prefix}{i}_"
        t = tapes[i]
        dn2, dw1, db1, dw2, db2 = _mlp_bwd(dx, params[p + "mlp1_w"],
                                           params[p + "mlp2_w"], t["mlp"])
        grads[p + "mlp1_w"] += dw1
        grads[p + "mlp1_b"] += db1
        grads[p + "mlp2_w"] += dw2
        grads[p + "mlp2_b"] += db2
        dln2_in, dg2, dbg2 = _layernorm_bwd(dn2, params[p + "ln2_g"], t["ln2"])
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += dbg2
        dx1 = dx + dln2_in
        dn1, dwqkv, dbqkv, dwo, dbo = _attn_bwd(dx1, params[p + "qkv_w"],
                                                params[p + "attn_out_w"],
                                                t["attn"], n_heads)
        grads[p + "qkv_w"] += dwqkv
        grads[p + "qkv_b"] += dbqkv
        grads[p + "attn_out_w"] += dwo
        grads[p + "attn_out_b"] += dbo
        dln1_in, dg1, dbg1 = _layernorm_bwd(dn1, params[p + "ln1_g"], t["ln1"])
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += dbg1
        dx = dx1 + dln1_in
    return dx


# ---------------------------------------------------------------------------
# model forward / backward

def _check_inputs(cfg: ModelConfig, patches: np.ndarray, plan: MaskPlan):
    if (plan.grid.grid_h, plan.grid.grid_w) != (cfg.grid_h, cfg.grid_w):
        raise ConfigError(
            f"plan grid {plan.grid.grid_h}x{plan.grid.grid_w} does not match "
            f"model grid {cfg.grid_h}x{cfg.grid_w}")
    if patches.shape != (cfg.n_patches, cfg.patch_dim):
        raise ConfigError(
            f"patches shape {patches.shape} does not match "
            f"({cfg.n_patches}, {cfg.patch_dim})")


def encode_tokens(params: ModelParams, tokens: np.ndarray, tape: dict | None = None):
    """Encoder over already-embedded tokens (any row order).

    Prepends the class token, runs the blocks and final norm, and returns
    (unit-norm cls vector, per-token outputs). Row order of `tokens` is
    preserved in the outputs.
    """
    cfg = params.cfg
    if tokens.ndim != 2 or tokens.shape[1] != cfg.embed_dim:
        raise ConfigError(f"tokens must be (n, {cfg.embed_dim}), got {tokens.shape}")
    seq = np.vstack([params["cls_token"][None, :], tokens])
    y, block_tapes = _stack_fwd(params, "enc", cfg.depth, cfg.n_heads, seq)
    z, lnc = _layernorm_fwd(y, params["enc_norm_g"], params["enc_norm_b"])
    pre_norm = z[0]
    proj_cache = None
    if cfg.proj_head:
        h_pre = pre_norm @ params["proj1_w"] + params["proj1_b"]
        h_act = _gelu(h_pre)
        proj_cache = (pre_norm, h_pre, h_act)
        pre_norm = h_act @ params["proj2_w"] + params["proj2_b"]
    nrm = float(np.linalg.norm(pre_norm))
    if not np.isfinite(nrm) or nrm < 1e-30:
        raise NumericsError(f"class token norm degenerate: {nrm}")
    cls = pre_norm / nrm
    if tape is not None:
        tape["enc_blocks"] = block_tapes
        tape["enc_ln"] = lnc
        tape["cls"] = cls
        tape["cls_nrm"] = nrm
        if proj_cache is not None:
            tape["proj"] = proj_cache
    return cls, z[1:]


def encode(params: ModelParams, patches: np.ndarray, plan: MaskPlan,
           tape: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Embed visible patches (projection + position); returns (unit cls, visible tokens)."""
    cfg = params.cfg
    _check_inputs(cfg, patches, plan)
    vis = visible_indices(plan)
    pos = sincos_pos_embed(plan.grid, cfg.embed_dim)
    tok = patches[vis] @ params["patch_proj_w"] + params["patch_proj_b"] + pos[vis]
    cls, tok_out = encode_tokens(params, tok, tape)
    if tape is not None:
        tape["visible"] = vis
        tape["patches_vis"] = patches[vis]
    return cls, tok_out


def decode(params: ModelParams, visible_tokens: np.ndarray, plan: MaskPlan,
           tape: dict | None = None) -> np.ndarray:
    """Project visible tokens, fill masked slots with the mask token; returns pixels."""
    cfg = params.cfg
    vis = visible_indices(plan)
    if visible_tokens.shape != (len(vis), cfg.embed_dim):
        raise ConfigError(
            f"visible tokens {visible_tokens.shape} do not match "
            f"({len(vis)}, {cfg.embed_dim})")
    v = visible_tokens @ params["dec_proj_w"] + params["dec_proj_b"]
    tokens = np.tile(params["mask_token"], (cfg.n_patches, 1))
    tokens[vis] = v
    x = tokens + sincos_pos_embed(plan.grid, cfg.decoder_dim)
    y, block_tapes = _stack_fwd(params, "dec", cfg.decoder_depth, cfg.decoder_heads, x)
    z, lnc = _layernorm_fwd(y, params["dec_norm_g"], params["dec_norm_b"])
    pred = z @ params["head_w"] + params["head_b"]
    if tape is not None:
        tape["dec_blocks"] = block_tapes
        tape["dec_ln"] = lnc
        tape["dec_head_in"] = z
        tape["visible"] = vis
        tape["masked"] = np.asarray(plan.masked, dtype=np.intp)
        tape["enc_visible_tokens"] = visible_tokens
    return pred


def forward_view(params: ModelParams, patches: np.ndarray, plan: MaskPlan,
                 tape: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode then decode one masked view; returns (cls vector, predictions)."""
    cls, visible_tokens = encode(params, patches, plan, tape)
    return cls, decode(params, visible_tokens, plan, tape)


def backward(params: ModelParams, tape: dict, d_pred: np.ndarray,
             d_cls: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Add one view's exact gradients into `grads`, given upstream seeds.

    d_pred is the loss gradient at the decoder predictions, d_cls at the
    normalized class vector. Requires the tape recorded by forward_view.
    `grads` holds one array per parameter group, and each group receives at
    most one in-place addition per view.
    """
    cfg = params.cfg
    vis = tape["visible"]
    masked = tape["masked"]

    # prediction head and decoder stack
    z = tape["dec_head_in"]
    grads["head_w"] += z.T @ d_pred
    grads["head_b"] += d_pred.sum(axis=0)
    dz = d_pred @ params["head_w"].T
    dy, dg, db = _layernorm_bwd(dz, params["dec_norm_g"], tape["dec_ln"])
    grads["dec_norm_g"] += dg
    grads["dec_norm_b"] += db
    dtokens = _stack_bwd(params, "dec", cfg.decoder_depth, cfg.decoder_heads,
                         tape["dec_blocks"], dy, grads)
    if len(masked):
        grads["mask_token"] += dtokens[masked].sum(axis=0)
    dv = dtokens[vis]
    grads["dec_proj_w"] += tape["enc_visible_tokens"].T @ dv
    grads["dec_proj_b"] += dv.sum(axis=0)
    d_vt = dv @ params["dec_proj_w"].T

    # class-vector normalization: cls = raw / |raw|
    cls = tape["cls"]
    d_raw = (d_cls - cls * float(cls @ d_cls)) / tape["cls_nrm"]
    if "proj" in tape:
        enc_cls, h_pre, h_act = tape["proj"]
        grads["proj2_w"] += np.outer(h_act, d_raw)
        grads["proj2_b"] += d_raw
        dh_pre = (params["proj2_w"] @ d_raw) * _gelu_grad(h_pre)
        grads["proj1_w"] += np.outer(enc_cls, dh_pre)
        grads["proj1_b"] += dh_pre
        d_raw = params["proj1_w"] @ dh_pre

    # encoder stack and embedding
    dz_enc = np.vstack([d_raw[None, :], d_vt])
    dy_enc, dg, db = _layernorm_bwd(dz_enc, params["enc_norm_g"], tape["enc_ln"])
    grads["enc_norm_g"] += dg
    grads["enc_norm_b"] += db
    dseq = _stack_bwd(params, "enc", cfg.depth, cfg.n_heads,
                      tape["enc_blocks"], dy_enc, grads)
    grads["cls_token"] += dseq[0]
    dtok = dseq[1:]
    grads["patch_proj_w"] += tape["patches_vis"].T @ dtok
    grads["patch_proj_b"] += dtok.sum(axis=0)


def attention_maps(params: ModelParams, patches: np.ndarray, plan: MaskPlan) -> np.ndarray:
    """Encoder attention weights, (depth, heads, seq, seq); row 0 is the class token."""
    tape: dict = {}
    encode(params, patches, plan, tape)
    return np.stack([t["attn"][4] for t in tape["enc_blocks"]])
