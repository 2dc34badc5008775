"""Command-line entry point.

Subcommands: pretrain, mask-plan, visualize, stats, attn-map, grad-check.
Configuration comes from an optional JSON file plus repeatable --set
KEY=VALUE overrides (dotted paths, e.g. loss.align_weight=0; the shorthands
gamma, beta, tau and lr expand to the usual fields). Exit codes: 0 success,
2 usage or config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import data_io
from .errors import ConfigError, NumericsError
from .geometry import (CropParams, ImageBuffer, apply_crop, patchify,
                       transform_keypoints, unpatchify)
from .losses import LossConfig
from .mask_sampling import (MaskPlan, all_part_patches, mask_stats, num_masked,
                            part_guided_mask, random_mask, stats_delta)
from .model import ModelConfig, attention_maps, forward_view, param_shapes
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
        "train": _section_defaults(TrainConfig, skip=("loss", "model", "dataset")),
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


def _build_configs(cfg: dict):
    try:
        model = ModelConfig(**cfg["model"])
        loss = LossConfig(**cfg["loss"])
        train = TrainConfig(**cfg["train"], loss=loss, model=model,
                            dataset=cfg["data"]["manifest"])
    except TypeError as e:
        raise ConfigError(f"bad config value: {e}")
    return train


def _full_frame_view(record, manifest, model: ModelConfig):
    """Deterministic mapping of a record into the model frame: resize only."""
    image = data_io.load_image(manifest.image_path(record))
    crop = CropParams(0, 0, image.width, image.height, flip=False)
    grid = model.grid
    resized = apply_crop(image, crop, grid.image_h, grid.image_w)
    kps = transform_keypoints(record.keypoints, crop, grid.image_h, grid.image_w)
    return resized, kps


# ---------------------------------------------------------------------------
# subcommands

def cmd_pretrain(args) -> int:
    train = _build_configs(_load_config(args))
    manifest_path = args.manifest or train.dataset
    if not manifest_path:
        raise ConfigError("no manifest: pass --manifest or set data.manifest")
    manifest = data_io.load_manifest(manifest_path)
    out_dir = args.out or "run"
    params, opt, log = run_pretrain(train, manifest, out_dir=out_dir,
                                    resume_from=args.resume)
    summary = {"steps": opt.step, "out": out_dir}
    if log.records:
        summary["final"] = log.records[-1]
    print(json.dumps(summary))
    return 0


def cmd_mask_plan(args) -> int:
    train = _build_configs(_load_config(args))
    manifest_path = args.manifest or train.dataset
    if not manifest_path:
        raise ConfigError("no manifest: pass --manifest or set data.manifest")
    manifest = data_io.load_manifest(manifest_path)
    out_path = args.out or "plans.jsonl"
    grid = train.model.grid
    scfg = train.sampler()
    entries = []
    for i, record in enumerate(manifest.records):
        rng = np.random.default_rng(
            np.random.SeedSequence([train.seed, _SEED_PLAN, i]))
        _, kps = _full_frame_view(record, manifest, train.model)
        for view in ("a", "b"):
            if args.strategy == "part":
                plan = part_guided_mask(rng, kps, grid, scfg)
            else:
                plan = random_mask(rng, grid, num_masked(scfg.masking_ratio, grid.n_patches))
            entries.append((record.sample_id, view, plan))
    data_io.write_mask_plan(entries, out_path)
    print(json.dumps({"plans": len(entries), "out": out_path}))
    return 0


def _gray_masked(image: ImageBuffer, plan: MaskPlan) -> ImageBuffer:
    out = image.data.copy()
    p = plan.grid.patch_size
    for idx in plan.masked:
        r, c = divmod(idx, plan.grid.grid_w)
        out[r * p:(r + 1) * p, c * p:(c + 1) * p, :] = 0.5
    return ImageBuffer(out)


def _paste_reconstruction(image: ImageBuffer, plan: MaskPlan, params, loss: LossConfig):
    """Original pixels on visible patches, model output on masked ones."""
    grid = plan.grid
    patches = patchify(image, grid)
    _, pred = forward_view(params, patches, plan)
    out = patches.copy()
    for idx in plan.masked:
        row = pred[idx]
        if loss.normalize_targets:
            mean = patches[idx].mean()
            std = np.sqrt(patches[idx].var() + 1e-6)
            row = row * std + mean
        out[idx] = np.clip(row, 0.0, 1.0)
    return unpatchify(out, grid)


def cmd_visualize(args) -> int:
    train = _build_configs(_load_config(args))
    manifest_path = args.manifest or train.dataset
    if not manifest_path:
        raise ConfigError("no manifest: pass --manifest or set data.manifest")
    manifest = data_io.load_manifest(manifest_path)
    entries = data_io.read_mask_plan(args.plans, patch_size=train.model.patch_size)
    if not entries:
        raise ConfigError(f"empty plan file: {args.plans}")
    params = None
    if args.checkpoint:
        params, _, _ = data_io.load_checkpoint(args.checkpoint)
        if params.cfg != train.model:
            raise ConfigError("checkpoint model config does not match configured model")
    out_dir = args.out or "viz"
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for sample_id, view, plan in entries:
        record = manifest.by_id(sample_id)
        original, _ = _full_frame_view(record, manifest, train.model)
        if (plan.grid.grid_h, plan.grid.grid_w) != (train.model.grid_h, train.model.grid_w):
            raise ConfigError(
                f"plan grid {plan.grid.grid_h}x{plan.grid.grid_w} does not match model")
        masked = _gray_masked(original, plan)
        if params is not None:
            recon = _paste_reconstruction(original, plan, params, train.loss)
        else:
            recon = masked
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
    train = _build_configs(_load_config(args))
    manifest_path = args.manifest or train.dataset
    if not manifest_path:
        raise ConfigError("no manifest: pass --manifest or set data.manifest")
    manifest = data_io.load_manifest(manifest_path)
    scfg = train.sampler()
    regions_by_id: dict[str, set[int]] = {}
    reports = {}
    order = []
    for path in args.plans:
        entries = data_io.read_mask_plan(path, patch_size=train.model.patch_size)
        if not entries:
            raise ConfigError(f"empty plan file: {path}")
        plans, regions = [], []
        for sample_id, _view, plan in entries:
            if sample_id not in regions_by_id:
                record = manifest.by_id(sample_id)
                _, kps = _full_frame_view(record, manifest, train.model)
                regions_by_id[sample_id] = all_part_patches(
                    kps, train.model.grid, scfg.keypoint_conf_threshold)
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
    train = _build_configs(_load_config(args))
    manifest_path = args.manifest or train.dataset
    if not manifest_path:
        raise ConfigError("no manifest: pass --manifest or set data.manifest")
    manifest = data_io.load_manifest(manifest_path)
    params, _, _ = data_io.load_checkpoint(args.checkpoint)
    if params.cfg != train.model:
        raise ConfigError("checkpoint model config does not match configured model")
    record = manifest.by_id(args.id)
    grid = train.model.grid
    if not (0 <= args.query < grid.n_patches):
        raise ConfigError(f"query index {args.query} outside [0, {grid.n_patches})")
    image, _ = _full_frame_view(record, manifest, train.model)
    patches = patchify(image, grid)
    empty = MaskPlan(grid, 0, [], [])
    attn = attention_maps(params, patches, empty)  # (depth, heads, S, S)
    weights = attn[-1].mean(axis=0)[1 + args.query]  # (S,), row of the query token
    patch_w = weights[1:]
    peak = float(patch_w.max())
    heat = np.zeros((grid.image_h, grid.image_w))
    p = grid.patch_size
    for idx in range(grid.n_patches):
        r, c = divmod(idx, grid.grid_w)
        heat[r * p:(r + 1) * p, c * p:(c + 1) * p] = patch_w[idx] / peak if peak > 0 else 0.0
    out_dir = args.out or "attn"
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.id}_attn_q{args.query}")
    data_io.write_ppm(ImageBuffer(np.repeat(heat[:, :, None], 3, axis=2)), stem + ".ppm")
    dump = {"id": args.id, "query": args.query, "cls_weight": float(weights[0]),
            "self_weight": float(patch_w[args.query]),
            "weights": [float(v) for v in weights]}
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(dump, f)
    print(json.dumps({"out": stem + ".ppm", "dump": stem + ".json"}))
    return 0


def cmd_grad_check(args) -> int:
    cfg = _load_config(args, model_default=TINY_CHECK_MODEL)
    train = _build_configs(cfg)
    n_params = sum(int(np.prod(shape)) for _, shape, _ in param_shapes(train.model))
    if n_params > 50_000:
        raise ConfigError(
            f"{n_params} parameters exceed the 50,000 cap for gradient checking")
    report = gradient_check(train.model, train.loss, seed=train.seed,
                            corrupt=args.corrupt)
    print(json.dumps(report))
    worst = max(report, key=report.get)
    if report[worst] > 1e-4:
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
    common.add_argument("--out", metavar="PATH", help="output file or directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", parents=[common], help="run pre-training")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--resume", metavar="CKPT", help="continue from a checkpoint")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("mask-plan", parents=[common],
                       help="emit two mask plans per sample")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--strategy", choices=("part", "random"), default="part")
    p.set_defaults(func=cmd_mask_plan)

    p = sub.add_parser("visualize", parents=[common],
                       help="triptychs: original / masked / reconstruction")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--plans", required=True, metavar="PATH")
    p.add_argument("--checkpoint", metavar="CKPT")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("stats", parents=[common], help="mask/part-region statistics")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--plans", action="append", required=True, metavar="PATH")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("attn-map", parents=[common],
                       help="attention heat map for one query patch")
    p.add_argument("--manifest", metavar="PATH")
    p.add_argument("--checkpoint", required=True, metavar="CKPT")
    p.add_argument("--id", required=True, help="sample id")
    p.add_argument("--query", type=int, required=True, help="query patch index")
    p.set_defaults(func=cmd_attn_map)

    p = sub.add_parser("grad-check", parents=[common],
                       help="finite-difference check of the backward pass")
    p.add_argument("--corrupt", metavar="GROUP",
                   help="perturb one analytic gradient group (negative control)")
    p.set_defaults(func=cmd_grad_check)
    return parser


def entry(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse errors already printed a message
        return int(e.code or 0)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())
