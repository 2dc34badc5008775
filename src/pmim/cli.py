"""Command-line entry point.

Subcommands: pretrain, mask-plan, visualize, stats, attn-map, grad-check.
Configuration comes from an optional JSON file plus repeatable --set
KEY=VALUE overrides (dotted paths, e.g. loss.align_weight=0; the shorthands
gamma, beta, tau and lr expand to the usual fields). Exit codes: 0 success,
2 usage, config or output error, 3 numerical failure, 141 (128 + SIGPIPE)
when stdout is a pipe whose reader has gone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import data_io
from .errors import ConfigError, NumericsError
from .geometry import (CropParams, ImageBuffer, KeypointSet, apply_crop, patchify,
                       target_moments, transform_keypoints, unpatchify)
from .losses import LossConfig
from .mask_sampling import (MaskPlan, all_part_patches, mask_stats, num_masked,
                            part_guided_mask, random_mask, stats_delta)
from .model import ModelConfig, attention_maps, forward, param_shapes
from .training import (TINY_CHECK_MODEL, TrainConfig, gradient_check, run_pretrain)

_SEED_PLAN = 5

ALIASES = {
    "gamma": "loss.align_weight",
    "beta": "train.masking_ratio",
    "tau": "loss.temperature",
    "lr": "train.base_lr",
}


def _section_defaults(cls, skip=()):
    return {f.name: getattr(cls(), f.name) for f in dataclasses.fields(cls)
            if f.name not in skip}


def _default_config() -> dict:
    return {
        "train": _section_defaults(TrainConfig, skip=("loss", "model")),
        "model": _section_defaults(ModelConfig),
        "loss": _section_defaults(LossConfig),
        "data": {"manifest": None},
    }


def _merge_file(cfg: dict, path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            loaded = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e.msg}, line {e.lineno})")
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: config must be a JSON object of sections")
    for section, values in loaded.items():
        if section not in cfg:
            raise ConfigError(f"{path}: unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        for key, value in values.items():
            if key not in cfg[section]:
                raise ConfigError(f"{path}: unknown config key {section}.{key}")
            cfg[section][key] = value


def _parse_value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("null", "none"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _apply_overrides(cfg: dict, overrides: list[str]):
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, raw = item.partition("=")
        key = ALIASES.get(key, key)
        if "." not in key:
            raise ConfigError(f"override key {key!r} needs a dotted path (section.field)")
        section, _, field = key.partition(".")
        if section not in cfg or field not in cfg[section]:
            raise ConfigError(f"unknown config key {section}.{field}")
        cfg[section][field] = _parse_value(raw)


def _load_config(args, model_default: ModelConfig | None = None) -> dict:
    cfg = _default_config()
    if model_default is not None:
        cfg["model"] = dataclasses.asdict(model_default)
    if args.config:
        _merge_file(cfg, args.config)
    _apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    return cfg


def _build_configs(cfg: dict) -> TrainConfig:
    manifest = cfg["data"]["manifest"]
    if manifest is not None and type(manifest) is not str:
        raise ConfigError(f"data.manifest must be a path string, got {manifest!r}")
    try:
        model = ModelConfig(**cfg["model"])
        loss = LossConfig(**cfg["loss"])
        train = TrainConfig(**cfg["train"], loss=loss, model=model)
    except TypeError as e:
        raise ConfigError(f"bad config value: {e}")
    return train


def _configs_and_manifest(args) -> tuple[TrainConfig, data_io.DatasetManifest]:
    """The built configs, and the manifest named by --manifest, else by data.manifest."""
    cfg = _load_config(args)
    train = _build_configs(cfg)
    path = args.manifest or cfg["data"]["manifest"]
    if not path:
        raise ConfigError("no manifest: pass --manifest or set data.manifest")
    return train, data_io.load_manifest(path)


def _load_params(checkpoint: str, model: ModelConfig):
    """Checkpoint parameters, which must be for the configured model."""
    params, _ = data_io.load_checkpoint(checkpoint)
    if params.cfg != model:
        raise ConfigError("checkpoint model config does not match configured model")
    return params


def _whole_frame(record, manifest) -> tuple[ImageBuffer, CropParams]:
    """The record's image and the crop that resizes all of it: no crop, no flip."""
    image = data_io.load_image(manifest.image_path(record))
    return image, CropParams(0, 0, image.width, image.height, flip=False)


def _frame_keypoints(record, manifest, model: ModelConfig) -> KeypointSet:
    """The record's keypoints mapped into the model frame by a whole-image resize.

    The image is read only for its size, so a missing or corrupt one is still
    a ConfigError; its pixels are not resized. A keypoint that overflows in
    the frame is a ConfigError naming the record.
    """
    _, crop = _whole_frame(record, manifest)
    try:
        return transform_keypoints(record.keypoints, crop, model.grid.image_h,
                                   model.grid.image_w)
    except ConfigError as e:
        raise ConfigError(f"record {record.sample_id!r}: {e} in the {model.grid.image_h}x"
                          f"{model.grid.image_w} model frame") from None


def _frame_image(record, manifest, model: ModelConfig) -> ImageBuffer:
    """The record's whole image resized into the model frame."""
    image, crop = _whole_frame(record, manifest)
    return apply_crop(image, crop, model.grid.image_h, model.grid.image_w)


# ---------------------------------------------------------------------------
# subcommands

def cmd_pretrain(args) -> int:
    train, manifest = _configs_and_manifest(args)
    out_dir = args.out or "run"
    if args.resume is None and os.path.isdir(out_dir):  # a fresh run would overwrite its log
        held = sorted(name for name in os.listdir(out_dir) if name == "metrics.jsonl"
                      or name.startswith("checkpoint") and name.endswith(".bin"))
        if held:
            raise ConfigError(f"{out_dir} holds a run ({', '.join(held)}): continue it with "
                              f"--resume, or choose another --out")
    params, opt, log = run_pretrain(train, manifest, out_dir=out_dir,
                                    resume_from=args.resume)
    summary = {"steps": opt.step, "out": out_dir}
    if log.records:
        summary["final"] = log.records[-1]
    print(json.dumps(summary))
    return 0


def cmd_mask_plan(args) -> int:
    train, manifest = _configs_and_manifest(args)
    out_path = args.out or "plans.jsonl"
    grid = train.model.grid
    n_masked = num_masked(train.masking_ratio, grid.n_patches)
    entries = []
    for i, record in enumerate(manifest.records):
        rng = np.random.default_rng(
            np.random.SeedSequence([train.seed, _SEED_PLAN, i]))
        kps = _frame_keypoints(record, manifest, train.model)
        for view in ("a", "b"):
            if args.strategy == "part":
                plan = part_guided_mask(rng, kps, grid, n_masked)
            else:
                plan = random_mask(rng, grid, n_masked)
            entries.append((record.sample_id, view, plan))
    data_io.write_mask_plan(entries, out_path)
    print(json.dumps({"plans": len(entries), "out": out_path}))
    return 0


def _paste_reconstruction(patches: np.ndarray, vis: np.ndarray, masked: np.ndarray,
                          params, loss: LossConfig) -> ImageBuffer:
    """One view's original pixels on visible patches, model output on masked ones."""
    _, pred = forward(params, patches[None], vis, masked)
    m = masked[0]
    rows = pred[0]  # the masked patches, in the plan's order
    if loss.normalize_targets:  # undo the per-patch standardization of the targets
        mean, std = target_moments(patches[m])
        rows = rows * std + mean
    out = patches.copy()
    out[m] = np.clip(rows, 0.0, 1.0)
    return unpatchify(out, params.cfg.grid)


def cmd_visualize(args) -> int:
    train, manifest = _configs_and_manifest(args)
    entries = data_io.read_mask_plan(args.plans, patch_size=train.model.patch_size)
    if not entries:
        raise ConfigError(f"empty plan file: {args.plans}")
    params = _load_params(args.checkpoint, train.model) if args.checkpoint else None
    out_dir = args.out or "viz"
    os.makedirs(out_dir, exist_ok=True)
    written = []
    grid = train.model.grid
    for sample_id, view, plan in entries:
        record = manifest.by_id(sample_id)
        vis, hidden = MaskPlan.batch_indices([plan], grid)  # rejects a plan made for another grid
        original = _frame_image(record, manifest, train.model)
        patches = patchify(original, grid)
        gray = patches.copy()
        gray[hidden[0]] = 0.5
        masked = unpatchify(gray, grid)
        recon = (masked if params is None
                 else _paste_reconstruction(patches, vis, hidden, params, train.loss))
        h, w = original.height, original.width
        strip = np.zeros((h, 3 * w + 2, 3))
        strip[:, 0:w] = original.data
        strip[:, w + 1:2 * w + 1] = masked.data
        strip[:, 2 * w + 2:] = recon.data
        name = f"{sample_id}_{view}.ppm"
        data_io.write_ppm(ImageBuffer(strip), os.path.join(out_dir, name))
        written.append(name)
    print(json.dumps({"written": written, "out": out_dir}))
    return 0


def cmd_stats(args) -> int:
    train, manifest = _configs_and_manifest(args)
    regions_by_id: dict[str, set[int]] = {}
    reports = {}
    order = []
    for path in args.plans:
        entries = data_io.read_mask_plan(path, patch_size=train.model.patch_size)
        if not entries:
            raise ConfigError(f"empty plan file: {path}")
        grid = (train.model.grid_h, train.model.grid_w)
        for _sample_id, _view, plan in entries:
            if (plan.grid.grid_h, plan.grid.grid_w) != grid:
                raise ConfigError(f"{path}: plans for a {plan.grid.grid_h}x{plan.grid.grid_w} "
                                  f"grid, the model grid is {grid[0]}x{grid[1]}")
        plans, regions = [], []
        for sample_id, _view, plan in entries:
            if sample_id not in regions_by_id:
                record = manifest.by_id(sample_id)
                kps = _frame_keypoints(record, manifest, train.model)
                regions_by_id[sample_id] = all_part_patches(kps, train.model.grid)
            plans.append(plan)
            regions.append(regions_by_id[sample_id])
        reports[path] = mask_stats(plans, regions)
        order.append(path)
    out = {"files": {p: dataclasses.asdict(r) for p, r in reports.items()}}
    if len(order) >= 2:
        out["delta"] = dict(stats_delta(reports[order[0]], reports[order[1]]),
                            a=order[0], b=order[1])
    print(json.dumps(out))
    return 0


def cmd_attn_map(args) -> int:
    train, manifest = _configs_and_manifest(args)
    params = _load_params(args.checkpoint, train.model)
    record = manifest.by_id(args.id)
    grid = train.model.grid
    if not (0 <= args.query < grid.n_patches):
        raise ConfigError(f"query index {args.query} outside [0, {grid.n_patches})")
    image = _frame_image(record, manifest, train.model)
    patches = patchify(image, grid)
    attn = attention_maps(params, patches)  # (depth, heads, S, S)
    weights = attn[-1].mean(axis=0)[1 + args.query]  # (S,), row of the query token
    patch_w = weights[1:]
    peak = float(patch_w.max())
    heat = patch_w / peak if peak > 0 else np.zeros_like(patch_w)
    out_dir = args.out or "attn"
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.id}_attn_q{args.query}")
    data_io.write_ppm(unpatchify(np.repeat(heat[:, None], train.model.patch_dim, axis=1), grid),
                      stem + ".ppm")
    dump = {"id": args.id, "query": args.query, "cls_weight": float(weights[0]),
            "self_weight": float(patch_w[args.query]),
            "weights": [float(v) for v in weights]}
    with data_io._replacing(stem + ".json") as f:  # a failed write keeps the old file whole
        f.write(json.dumps(dump).encode("utf-8"))
    print(json.dumps({"out": stem + ".ppm", "dump": stem + ".json"}))
    return 0


def cmd_grad_check(args) -> int:
    cfg = _load_config(args, model_default=TINY_CHECK_MODEL)
    train = _build_configs(cfg)
    n_params = sum(int(np.prod(shape)) for _, shape, _ in param_shapes(train.model))
    if n_params > 50_000:
        raise ConfigError(
            f"{n_params} parameters exceed the 50,000 cap for gradient checking")
    # The projection head roughly squares the curvature on the class path, so
    # its central differences need a smaller step to stay clear of truncation.
    h = 3e-6 if train.model.proj_head else 1e-5
    report = gradient_check(train.model, train.loss, seed=train.seed, h=h,
                            corrupt=args.corrupt)
    print(json.dumps(report))
    worst = max(report, key=lambda name: (math.isnan(report[name]), report[name]))
    if not report[worst] <= 1e-4:  # a NaN error fails too
        raise NumericsError(
            f"gradient mismatch in group {worst}: relative error {report[worst]:.3e}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmim",
        description="Part-prior masked image modeling at desk scale.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="global seed; overrides any configured train.seed")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, repeatable")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", parents=[common], help="run pre-training")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--resume", metavar="CKPT", help="continue from a checkpoint")
    p.add_argument("--out", metavar="DIR", help="run directory (default: run); without "
                   "--resume it must hold no metrics.jsonl or checkpoint*.bin")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("mask-plan", parents=[common],
                       help="emit two mask plans per sample")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--strategy", choices=("part", "random"), default="part")
    p.add_argument("--out", metavar="FILE", help="plan file (default: plans.jsonl)")
    p.set_defaults(func=cmd_mask_plan)

    p = sub.add_parser("visualize", parents=[common],
                       help="triptychs: original / masked / reconstruction")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--plans", required=True, metavar="FILE")
    p.add_argument("--checkpoint", metavar="CKPT")
    p.add_argument("--out", metavar="DIR", help="triptych directory (default: viz)")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("stats", parents=[common], help="mask/part-region statistics")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--plans", action="append", required=True, metavar="FILE")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("attn-map", parents=[common],
                       help="attention heat map for one query patch")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--checkpoint", required=True, metavar="CKPT")
    p.add_argument("--id", required=True, help="sample id")
    p.add_argument("--query", type=int, required=True, help="query patch index")
    p.add_argument("--out", metavar="DIR", help="heat map directory (default: attn)")
    p.set_defaults(func=cmd_attn_map)

    p = sub.add_parser("grad-check", parents=[common],
                       help="finite-difference check of the backward pass")
    p.add_argument("--corrupt", metavar="GROUP",
                   help="perturb one analytic gradient group (negative control)")
    p.set_defaults(func=cmd_grad_check)
    return parser


def _drop_stdout() -> None:
    """Point stdout at os.devnull, so the interpreter's flush at exit writes nowhere."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def entry(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except SystemExit as e:  # argparse errors already printed a message
        return int(e.code or 0)
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as a SIGPIPE would
        _drop_stdout()
        return 141
    except (ConfigError, OSError) as e:  # OSError: an output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself cannot be written (say, a full disk)
            _drop_stdout()
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())
