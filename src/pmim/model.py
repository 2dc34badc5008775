"""Tiny plain-ViT masked autoencoder in numpy, with exact analytic gradients.

The encoder runs over visible patches plus a class token; the decoder fills
masked positions with a shared mask token, and its final norm and pixel head
run only on the masked rows, the only ones the reconstruction loss reads.
Every layer is built from four primitives, each with its own backward:
linear, layernorm, attention and the GELU MLP. The optional projection head is
the block MLP run on the class row. Everything is float64 and deterministic.
GELU's normal CDF goes through _erf, a numpy port of the Cephes erf that
scipy.special wraps, so numpy is the only runtime dependency.

Views run together on a leading view axis, the only shape the model takes:
patches (V, N, P) with the (V, n) index arrays of MaskPlan.batch_indices (one
view is a batch of one), so the encoder runs on one (V, 1 + n_vis, d) tensor
and the decoder on one (V, N, d_dec) tensor. forward is the model's one entry;
given a tape dict it records the intermediates there, one cache per stage (a
GELU keeps its input and CDF, and backward recomputes their product);
backward() walks the stages in reverse, hands each its cache, and adds into a
flat gradient vector the caller owns. Each gradient is formed per view (a stacked
x^T @ dy in _linear_bwd, or a token-axis sum), then reduced with .sum(axis=0)
in view order: bit-identical to adding the views one by one, which folding the view
axis into one matrix product, or einsum, is not.

Predictions come in plan order, (V, n_masked, P), so the loss pairs them with
its targets row by row. The backs of the head and the final norm gather
their rows back into raster order before reducing their gradients over the token
axis: those sums then add the same nonzero terms in the same order as a head
run over the full grid with zero seeds on the visible rows, so every gradient
is bit-equal to it; summed in plan order they would differ in the last bits.

The forward pass is one ordered list of stages, forward_stages(cfg), one per
primitive: the patch embedding, the class token; per block ln1, attention,
ln2 and the MLP, each with its residual add; enc_norm, which splits the class
row off the token stream, the projection head, the class-vector normalization;
the decoder input (dec_proj, the mask token and the positions); the decoder
blocks, dec_norm on the masked rows and the head. Each stage is tagged with the
first index of params.flat that it reads, and since param_shapes lays the
groups out in forward order, the tags never decrease and what enters a stage
depends only on params.flat before its tag. forward runs all the stages
through run_stages, attention_maps the first _n_encoder_stages of them; the
finite-difference check in training resumes them at the stage whose
parameters moved. Each stage carries its own backward, and backward runs those
in reverse order, so the layer order is written once, in forward_stages.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

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
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.mlp_ratio) not in (int, float) or not math.isfinite(self.mlp_ratio):
            raise ConfigError(f"mlp_ratio must be a finite number, got {self.mlp_ratio!r}")
        if type(self.proj_head) is not bool:
            raise ConfigError(f"proj_head must be true or false, got {self.proj_head!r}")
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
        if int(self.decoder_dim * self.mlp_ratio) < 1:
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} collapses the decoder MLP")

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
    checkpoint layout. Groups come in the order the forward stages read them
    (see forward_stages), so every group that the encoder stages read, the
    projection head's included, comes before dec_proj_w.
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


@functools.lru_cache(maxsize=8)
def _layout(cfg: ModelConfig) -> tuple[tuple[str, int, int, tuple], ...]:
    """(name, start, stop, shape) of each group in the flat vector, in param_shapes order."""
    shapes = param_shapes(cfg)
    stops = itertools.accumulate(math.prod(shape) for _, shape, _ in shapes)
    return tuple((name, stop - math.prod(shape), stop, shape)
                 for (name, shape, _), stop in zip(shapes, stops))


class ModelParams:
    """Float64 parameters as one vector, `flat`, plus the config they were built for.

    `arrays[name]` is a reshaped view into `flat`, in param_shapes order, behind a
    read-only mapping: written in place, never rebound. `views(vec)` lays out any
    vector of that size (a gradient, an AdamW moment) the same way.
    """

    def __init__(self, cfg: ModelConfig, arrays):
        self.cfg = cfg
        self.flat = self.pack(arrays)
        bad = ~np.isfinite(self.flat)
        if bad.any():
            raise NumericsError(f"parameter {self.first_group(bad)} contains non-finite values")
        self.arrays = self.views(self.flat)
        self.grad = None  # the gradient buffer, made by training.batch_backward

    def views(self, vec: np.ndarray) -> MappingProxyType:
        """Read-only name -> reshaped view of `vec`, a vector laid out like `flat`."""
        if vec.shape != (self.n_params,):
            raise ConfigError(f"vector {vec.shape} does not fit {self.n_params} parameters")
        return MappingProxyType({name: vec[start:stop].reshape(shape)
                                 for name, start, stop, shape in _layout(self.cfg)})

    def pack(self, arrays, prefix: str = "") -> np.ndarray:
        """A new vector holding named arrays in this layout; names and shapes must match."""
        flat = np.empty(self.n_params)
        views = self.views(flat)
        if set(arrays) != set(views):
            missing = sorted(prefix + k for k in set(views) - set(arrays))
            extra = sorted(prefix + k for k in set(arrays) - set(views))
            raise ConfigError(f"parameter name mismatch: missing {missing}, extra {extra}")
        for name, view in views.items():
            if arrays[name].shape != view.shape:
                raise ConfigError(f"{prefix or 'parameter '}{name} has shape "
                                  f"{arrays[name].shape}, expected {view.shape}")
            view[...] = arrays[name]
        return flat

    def first_group(self, hits: np.ndarray) -> str:
        """Name of the first group in which the flat boolean vector `hits` is true."""
        return next(name for name, part in self.views(hits).items() if part.any())

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @property
    def n_params(self) -> int:
        return _layout(self.cfg)[-1][2]


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
    return ModelParams(cfg, {
        name: _trunc_normal(rng, shape) if kind in ("weight", "token")
        else np.full(shape, 0.0 if kind == "bias" else 1.0)
        for name, shape, kind in param_shapes(cfg)})


@functools.lru_cache(maxsize=8)
def sincos_pos_embed(grid: PatchGrid, dim: int) -> np.ndarray:
    """2D sine-cosine position table, (n_patches, dim), raster order.

    Half the channels carry the patch row, half the column; each half is
    sin then cos over dim/4 frequencies 10000^(-k/(dim/4)). The table depends
    only on (grid, dim), so it is built once per pair and returned read-only.
    """
    if dim % 4 != 0:
        raise ConfigError(f"position embedding dim must be divisible by 4, got {dim}")
    quarter = dim // 4
    omega = 10000.0 ** (-np.arange(quarter, dtype=np.float64) / quarter)
    rows = np.arange(grid.grid_h, dtype=np.float64)
    cols = np.arange(grid.grid_w, dtype=np.float64)
    r = np.repeat(rows, grid.grid_w)[:, None] * omega[None, :]  # (N, dim/4)
    c = np.tile(cols, grid.grid_h)[:, None] * omega[None, :]
    table = np.concatenate([np.sin(r), np.cos(r), np.sin(c), np.cos(c)], axis=1)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# layer primitives, named by their parameter prefix. They broadcast over
# leading axes; backward adds each parameter's per-view gradients into grads.

def _add(grads, name: str, per_view: np.ndarray):
    """grads[name] += per-view gradients, summed over the view axis in view order."""
    g = grads[name]
    g += per_view.reshape((-1,) + g.shape).sum(axis=0)


def _linear(x, params, name):
    return x @ params[name + "_w"] + params[name + "_b"]


def _linear_bwd(dy, x, params, name, grads):
    """Adds the gradients of name_w and name_b; returns the input gradient."""
    _add(grads, name + "_w", x.swapaxes(-1, -2) @ dy)
    _add(grads, name + "_b", dy.sum(axis=-2))
    return dy @ params[name + "_w"].T


# Means over the last axis are written as sum / n: the reduce and divide that
# ndarray.mean runs, bit for bit, without its Python-level wrapper.

def _layernorm_fwd(x, params, name):
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return params[name + "_g"] * xhat + params[name + "_b"], (xhat, inv)


def _layernorm_bwd(dy, params, name, cache, grads):
    xhat, inv = cache
    _add(grads, name + "_g", (dy * xhat).sum(axis=-2))
    _add(grads, name + "_b", dy.sum(axis=-2))
    dxhat = dy * params[name + "_g"]
    n = dxhat.shape[-1]
    return inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / n
                  - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / n)


# Coefficients of Cephes ndtr.c (S. L. Moshier): erf(x) = x T(x^2) / U(x^2) for
# |x| <= 1 and erf(x) = 1 - exp(-x^2) P(|x|) / Q(|x|) above, with the odd
# symmetry for x < 0. U and Q carry their implicit leading 1.0.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _polevl(x, coeffs):
    """Horner's rule in place, highest power first, in Cephes polevl's order."""
    out = x * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _erf(x):
    """The error function, as the Cephes routine scipy.special.erf wraps.

    One path: the |x| <= 1 rational runs on every element, then one indexed
    assignment overwrites the rest, NaN included; those are zeroed first, so
    the rational cannot overflow or warn on them. Each step is elementwise and
    in Cephes' order: bit-equal to scipy on |x| <= 1, within 2 ulp above, since
    numpy's exp is not the C library's. From |x| = 6 on, 1 - erfc(|x|) rounds
    to 1; clamping there also maps +-inf to +-1. A NaN stays NaN.
    """
    a = np.abs(x)
    small = a <= 1.0
    big = (~small).ravel().nonzero()[0]  # np.flatnonzero, without its per-call cost
    xs = np.where(small, x, 0.0) if big.size else x
    z = xs * xs
    out = np.asarray(xs * _polevl(z, _ERF_T) / _polevl(z, _ERF_U))  # else a 0-d x gives a scalar
    if big.size:
        ab = np.minimum(a.flat[big], 6.0)
        out.flat[big] = np.copysign(
            1.0 - np.exp(-ab * ab) * _polevl(ab, _ERFC_P) / _polevl(ab, _ERFC_Q), x.flat[big])
    return out


def _gelu(x):
    """x * Phi(x), plus the normal CDF Phi(x), which _gelu_grad reuses."""
    cdf = 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))
    return x * cdf, cdf


def _gelu_grad(x, cdf):
    return cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _attn_fwd(x, params, p, n_heads):
    *lead, n, d = x.shape
    dh = d // n_heads
    qkv = _linear(x, params, p + "qkv")  # (..., n, 3d)
    q, k, v = [qkv[..., i * d:(i + 1) * d].reshape(*lead, n, n_heads, dh).swapaxes(-2, -3)
               for i in range(3)]  # each (..., h, n, dh)
    scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(dh)  # (..., h, n, n)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = attn @ v  # (..., h, n, dh)
    merged = ctx.swapaxes(-2, -3).reshape(*lead, n, d)
    return _linear(merged, params, p + "attn_out"), (x, q, k, v, attn, merged)


def _attn_bwd(dout, params, p, cache, grads, n_heads):
    x, q, k, v, attn, merged = cache
    *lead, n, d = x.shape
    dh = d // n_heads
    dmerged = _linear_bwd(dout, merged, params, p + "attn_out", grads)
    dctx = dmerged.reshape(*lead, n, n_heads, dh).swapaxes(-2, -3)
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    ds = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    ds = ds / math.sqrt(dh)
    dq = ds @ k
    dk = ds.swapaxes(-1, -2) @ q
    dqkv = np.concatenate(
        [a.swapaxes(-2, -3).reshape(*lead, n, d) for a in (dq, dk, dv)], axis=-1)
    return _linear_bwd(dqkv, x, params, p + "qkv", grads)


def _mlp_fwd(x, params, p):
    """Linear p1, GELU, linear p2: p is a block's "enc0_mlp" or the head's "proj"."""
    h_pre = _linear(x, params, p + "1")
    h_act, cdf = _gelu(h_pre)
    return _linear(h_act, params, p + "2"), (x, h_pre, cdf)


def _mlp_bwd(dout, params, p, cache, grads):
    x, h_pre, cdf = cache
    dh_act = _linear_bwd(dout, h_pre * cdf, params, p + "2", grads)
    return _linear_bwd(dh_act * _gelu_grad(h_pre, cdf), x, params, p + "1", grads)


# ---------------------------------------------------------------------------
# the forward pass as stages (see the module docstring)

class Activations(NamedTuple):
    """What flows from one stage into the next, as run_stages takes and returns it."""

    x: np.ndarray  # the token stream; patches before the embedding, predictions after the head
    res: np.ndarray | None = None  # a block's residual stream, from its norm to its add
    cls: np.ndarray | None = None  # the class rows, (V, 1, d): raw, then unit-norm


class Stage(NamedTuple):
    """One step of the forward pass and its backward.

    run(params, x, res, cls, vis, masked) -> (x, res, cls, backward cache for tape[name]).
    back(params, dx, dres, dcls, cache, grads) -> (dx, dres, dcls): given the
    gradients at run's outputs and its cache, adds the stage's parameter
    gradients into grads, at most one in-place addition per group, and
    returns the gradients at run's inputs; None where an input is None or is
    the patches. From enc_norm on, the stream holds the visible rows only and
    cls the class rows: enc_norm splits its output into the two, and its back
    joins their gradients.

    The activations pass as plain values: building an Activations per stage
    cost about 2% of a full gradient-check evaluation.
    """

    name: str
    start: int  # the first index of params.flat that it reads
    run: Callable
    back: Callable


def _patch_embed(params, x, res, cls, vis, masked):
    patches_vis = x[MaskPlan.view_rows(vis)]
    pos = sincos_pos_embed(params.cfg.grid, params.cfg.embed_dim)[vis]
    return _linear(patches_vis, params, "patch_proj") + pos, None, None, patches_vis


def _patch_embed_bwd(params, dx, dres, dcls, patches_vis, grads):
    _add(grads, "patch_proj_w", patches_vis.swapaxes(-1, -2) @ dx)
    _add(grads, "patch_proj_b", dx.sum(axis=-2))
    return None, None, None


def _class_token(params, x, res, cls, vis, masked):
    cls_token = np.broadcast_to(params["cls_token"], x.shape[:-2] + (1, x.shape[-1]))
    return np.concatenate([cls_token, x], axis=-2), None, None, None


def _class_token_bwd(params, dx, dres, dcls, cache, grads):
    _add(grads, "cls_token", dx[..., 0, :])
    return dx[..., 1:, :], None, None


def _pre_norm(name, params, x, res, cls, vis, masked):
    """A block's ln1 or ln2; the stream it normed is kept for the residual add."""
    y, cache = _layernorm_fwd(x, params, name)
    return y, x, cls, cache


def _pre_norm_bwd(name, params, dx, dres, dcls, cache, grads):
    return dres + _layernorm_bwd(dx, params, name, cache, grads), None, dcls


def _residual(sublayer, name, params, x, res, cls, vis, masked):
    """A block's attention or MLP on the normed stream, added to the residual stream."""
    out, cache = sublayer(x, params, name)
    return res + out, None, cls, cache


def _residual_bwd(sublayer_bwd, name, params, dx, dres, dcls, cache, grads):
    return sublayer_bwd(dx, params, name, cache, grads), dx, dcls


def _enc_norm(params, x, res, cls, vis, masked):
    """The final norm; its visible rows go on as the stream, its class row as cls."""
    # The class row keeps its length-1 token axis, so the projection head is
    # the block MLP on a one-row sequence and the norm one dot product per view.
    z, cache = _layernorm_fwd(x, params, "enc_norm")
    return z[..., 1:, :], None, z[..., :1, :], cache


def _enc_norm_bwd(params, dx, dres, dcls, cache, grads):
    return _layernorm_bwd(np.concatenate([dcls, dx], axis=-2), params, "enc_norm", cache,
                          grads), None, None


def _proj_head(params, x, res, cls, vis, masked):
    raw, cache = _mlp_fwd(cls, params, "proj")
    return x, None, raw, cache


def _proj_head_bwd(params, dx, dres, dcls, cache, grads):
    return dx, None, _mlp_bwd(dcls, params, "proj", cache, grads)


def _cls_norm(params, x, res, cls, vis, masked):
    """Unit class rows."""
    nrm = np.sqrt(cls @ cls.swapaxes(-1, -2))  # (..., 1, 1)
    bad = ~(np.isfinite(nrm) & (nrm >= 1e-30))
    if bad.any():
        raise NumericsError(f"class token norm degenerate: {float(nrm[bad][0])}")
    cls = cls / nrm
    return x, None, cls, (cls, nrm)


def _cls_norm_bwd(params, dx, dres, dcls, cache, grads):
    cls, nrm = cache
    return dx, None, (dcls - cls * (cls @ dcls.swapaxes(-1, -2))) / nrm


def _decoder_input(params, x, res, cls, vis, masked):
    """Projected visible tokens in their slots, the mask token elsewhere, plus positions."""
    cfg = params.cfg
    tokens = np.tile(params["mask_token"], (len(vis), cfg.n_patches, 1))
    tokens[MaskPlan.view_rows(vis)] = _linear(x, params, "dec_proj")
    return tokens + sincos_pos_embed(cfg.grid, cfg.decoder_dim), None, cls, (x, vis, masked)


def _decoder_input_bwd(params, dx, dres, dcls, cache, grads):
    visible_tokens, vis, masked = cache
    if masked.shape[-1]:
        _add(grads, "mask_token", dx[MaskPlan.view_rows(masked)].sum(axis=-2))
    return _linear_bwd(dx[MaskPlan.view_rows(vis)], visible_tokens, params, "dec_proj",
                       grads), None, dcls


def _dec_norm(params, x, res, cls, vis, masked):
    """The final norm, on the masked rows only, in plan order."""
    z, (xhat, inv) = _layernorm_fwd(x[MaskPlan.view_rows(masked)], params, "dec_norm")
    return z, None, cls, (xhat, inv, masked)


def _dec_norm_bwd(params, dx, dres, dcls, cache, grads):
    """Reduced in raster order (see the module docstring); the visible rows get zeros."""
    xhat, inv, masked = cache
    raster = MaskPlan.view_rows(np.argsort(masked, axis=-1))
    dy_rows = _layernorm_bwd(dx[raster], params, "dec_norm", (xhat[raster], inv[raster]), grads)
    dy = np.zeros((len(masked), params.cfg.n_patches, params.cfg.decoder_dim))
    dy[MaskPlan.view_rows(masked[raster])] = dy_rows
    return dy, None, dcls


def _head(params, x, res, cls, vis, masked):
    return _linear(x, params, "head"), None, cls, (x, masked)


def _head_bwd(params, dx, dres, dcls, cache, grads):
    """Reduced in raster order (see the module docstring); the input gradient in plan order."""
    x, masked = cache
    raster = MaskPlan.view_rows(np.argsort(masked, axis=-1))
    dz = np.empty_like(x)
    dz[raster] = _linear_bwd(dx[raster], x[raster], params, "head", grads)
    return dz, None, dcls


def _block_stages(prefix: str, depth: int, n_heads: int, start: dict) -> list[Stage]:
    attention = functools.partial(_attn_fwd, n_heads=n_heads)
    attention_bwd = functools.partial(_attn_bwd, n_heads=n_heads)
    stages = []
    for i in range(depth):
        p = f"{prefix}{i}_"
        stages += [
            Stage(p + "ln1", start[p + "ln1_g"], functools.partial(_pre_norm, p + "ln1"),
                  functools.partial(_pre_norm_bwd, p + "ln1")),
            Stage(p + "attn", start[p + "qkv_w"], functools.partial(_residual, attention, p),
                  functools.partial(_residual_bwd, attention_bwd, p)),
            Stage(p + "ln2", start[p + "ln2_g"], functools.partial(_pre_norm, p + "ln2"),
                  functools.partial(_pre_norm_bwd, p + "ln2")),
            Stage(p + "mlp", start[p + "mlp1_w"],
                  functools.partial(_residual, _mlp_fwd, p + "mlp"),
                  functools.partial(_residual_bwd, _mlp_bwd, p + "mlp"))]
    return stages


@functools.lru_cache(maxsize=8)
def forward_stages(cfg: ModelConfig) -> tuple[Stage, ...]:
    """The forward pass of a config as stages, in order (see the module docstring).

    Each start is a group start of _layout, and a stage reads the elements
    from its start up to the next stage's. Starts never decrease: the
    class-vector normalization reads no parameter and shares its start,
    dec_proj_w's, with the decoder input.
    """
    start = {name: first for name, first, _, _ in _layout(cfg)}
    stages = [Stage("patch_proj", start["patch_proj_w"], _patch_embed, _patch_embed_bwd),
              Stage("cls_token", start["cls_token"], _class_token, _class_token_bwd),
              *_block_stages("enc", cfg.depth, cfg.n_heads, start),
              Stage("enc_norm", start["enc_norm_g"], _enc_norm, _enc_norm_bwd)]
    if cfg.proj_head:
        stages.append(Stage("proj", start["proj1_w"], _proj_head, _proj_head_bwd))
    stages += [Stage("cls_norm", start["dec_proj_w"], _cls_norm, _cls_norm_bwd),
               Stage("dec_proj", start["dec_proj_w"], _decoder_input, _decoder_input_bwd),
               *_block_stages("dec", cfg.decoder_depth, cfg.decoder_heads, start),
               Stage("dec_norm", start["dec_norm_g"], _dec_norm, _dec_norm_bwd),
               Stage("head", start["head_w"], _head, _head_bwd)]
    return tuple(stages)


@functools.lru_cache(maxsize=8)
def _n_encoder_stages(cfg: ModelConfig) -> int:
    """How many of forward_stages(cfg) make up the encoder: all before the decoder input."""
    return [stage.name for stage in forward_stages(cfg)].index("dec_proj")


def run_stages(params: ModelParams, stages, acts: Activations, vis: np.ndarray,
               masked: np.ndarray | None, tape: dict | None = None) -> Activations:
    """Run `stages` in order from `acts`, recording each one's cache in `tape` if given."""
    x, res, cls = acts
    for stage in stages:
        x, res, cls, cache = stage.run(params, x, res, cls, vis, masked)
        if tape is not None:
            tape[stage.name] = cache
    return Activations(x, res, cls)


# ---------------------------------------------------------------------------
# model forward / backward

def forward(params: ModelParams, patches: np.ndarray, vis: np.ndarray, masked: np.ndarray,
            tape: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The model on a batch of views; returns (unit cls, masked-patch predictions).

    patches is (V, N, P), vis and masked the (V, n_vis) and (V, n_masked)
    indices of MaskPlan.batch_indices. The outputs are (V, d) and
    (V, n_masked, P) in the order of `masked`: the decoder's final norm and
    head skip the visible rows.
    """
    cfg = params.cfg
    if (vis.ndim != 2 or masked.ndim != 2 or len(masked) != len(vis)
            or patches.shape != (len(vis), cfg.n_patches, cfg.patch_dim)):
        raise ConfigError(f"patches {patches.shape}, visible indices {vis.shape} and masked "
                          f"indices {masked.shape} are not (V, {cfg.n_patches}, "
                          f"{cfg.patch_dim}), (V, n) and (V, m)")
    acts = run_stages(params, forward_stages(cfg), Activations(patches), vis, masked, tape)
    return acts.cls[..., 0, :], acts.x


def backward(params: ModelParams, tape: dict, d_pred: np.ndarray,
             d_cls: np.ndarray, grad: np.ndarray) -> None:
    """Add the exact gradients of the taped views into `grad` (laid out like params.flat).

    d_pred is the loss gradient at the masked-patch predictions, d_cls at the
    normalized class vectors, shaped like forward's outputs. Requires the tape
    recorded by forward. Runs each stage's back in reverse stage order; each
    group receives one in-place addition per call.
    """
    grads = params.views(grad)
    d = d_pred, None, d_cls[..., None, :]
    for stage in reversed(forward_stages(params.cfg)):
        d = stage.back(params, *d, tape[stage.name], grads)


def attention_maps(params: ModelParams, patches: np.ndarray) -> np.ndarray:
    """One unmasked view's encoder attention, (depth, heads, 1 + N, 1 + N); row 0: class token.

    patches is the view's (N, P); only the encoder stages run.
    """
    cfg = params.cfg
    if patches.shape != (cfg.n_patches, cfg.patch_dim):
        raise ConfigError(f"patches {patches.shape} are not ({cfg.n_patches}, {cfg.patch_dim})")
    tape: dict = {}
    run_stages(params, forward_stages(cfg)[:_n_encoder_stages(cfg)], Activations(patches[None]),
               np.arange(cfg.n_patches)[None], None, tape)
    return np.stack([tape[f"enc{i}_attn"][4][0] for i in range(cfg.depth)])
