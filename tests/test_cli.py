"""Command-line interface: config merging, subcommands, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import pmim
from pmim import cli, data_io, training
from pmim.cli import entry
from pmim.data_io import DatasetManifest, SampleRecord, make_synthetic_dataset, read_mask_plan
from pmim.errors import ConfigError
from pmim.geometry import CropParams, KeypointSet, transform_keypoints
from pmim.mask_sampling import (all_part_patches, mask_stats, num_masked, part_guided_mask,
                                random_mask, stats_delta)
from pmim.training import TrainConfig

MICRO_SET = []
for kv in ("model.embed_dim=4", "model.n_heads=1", "model.decoder_dim=4",
           "model.decoder_heads=1", "model.patch_size=4", "model.grid_h=2",
           "model.grid_w=2"):
    MICRO_SET += ["--set", kv]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_figures"))
    make_synthetic_dataset(6, seed=1, out_dir=out)
    return os.path.join(out, "manifest.jsonl")


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory, manifest_path):
    out = str(tmp_path_factory.mktemp("cli_run"))
    code, stdout, stderr = run_cli(
        ["pretrain", "--manifest", manifest_path, "--out", out, *MICRO_SET,
         "--set", "train.batch_size=3", "--set", "train.total_epochs=2"])
    assert code == 0, stderr
    return {"out": out, "summary": json.loads(stdout)}


def test_help_screens():
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["pretrain", "--help"])[0] == 0
    assert run_cli([])[0] == 2
    assert run_cli(["pretrain", "--bogus"])[0] == 2


def test_pretrain_smoke(micro_run):
    summary = micro_run["summary"]
    assert summary["steps"] == 4  # 6 records / batch 3, two epochs
    assert summary["final"]["step"] == 4
    for name in ("checkpoint.bin", "checkpoint_ep1.bin", "metrics.jsonl"):
        assert os.path.exists(os.path.join(micro_run["out"], name))


def test_pretrain_requires_manifest():
    code, _, err = run_cli(["pretrain"])
    assert code == 2
    assert err.startswith("error:")


def test_pretrain_resume_reproduces(tmp_path, manifest_path, micro_run):
    out2 = str(tmp_path / "resumed")
    code, _, err = run_cli(
        ["pretrain", "--manifest", manifest_path, "--out", out2, *MICRO_SET,
         "--set", "train.batch_size=3", "--set", "train.total_epochs=2",
         "--resume", os.path.join(micro_run["out"], "checkpoint_ep1.bin")])
    assert code == 0, err
    final_a = open(os.path.join(micro_run["out"], "checkpoint.bin"), "rb").read()
    final_b = open(os.path.join(out2, "checkpoint.bin"), "rb").read()
    assert final_a == final_b


def test_pretrain_exits_3_on_a_non_finite_gradient(tmp_path, manifest_path, monkeypatch):
    real_backward = training.batch_backward

    def nan_gradient(params, tape):
        grad = real_backward(params, tape)
        grad[0] = np.nan
        return grad

    monkeypatch.setattr(training, "batch_backward", nan_gradient)
    code, stdout, err = run_cli(["pretrain", "--manifest", manifest_path, "--out",
                                 str(tmp_path / "run"), *MICRO_SET, "--set", "train.batch_size=3"])
    assert code == 3 and stdout == "", (code, stdout)
    assert err.startswith("numerical failure: non-finite gradient in ") and " at step 1;" in err, err


@pytest.mark.parametrize("overrides", [("lr=1e300", "train.weight_decay=1e300"), ("lr=1e308",)],
                         ids=["decay_overflow", "peak_lr_overflow"])
def test_pretrain_refuses_a_peak_lr_that_overflows(tmp_path, manifest_path, overrides):
    # A peak rate, or its product with the decay, that is inf is bad input:
    # refused before the run directory is made.
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    code, stdout, err = run_cli(["pretrain", "--manifest", manifest_path,
                                 "--out", str(tmp_path / "run"), *sets])
    assert code == 2 and stdout == "", (code, stdout)
    assert err.startswith("error: peak learning rate base_lr * batch_size / 256 = "), err
    assert not (tmp_path / "run").exists()


def test_pretrain_exits_3_on_a_step_that_overflows(tmp_path):
    # lr=1e306 passes the config check; step 1's update leaves finite parameters
    # near 1e304, and step 2's forward pass overflows. The run must stop there
    # without a numpy warning, keeping step 1's row and epoch checkpoint.
    make_synthetic_dataset(8, seed=0, out_dir=str(tmp_path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmim.__file__)))
    done = subprocess.run(  # a new interpreter, so numpy's warnings reach stderr
        [sys.executable, "-W", "default", "-m", "pmim.cli", "pretrain", "--manifest",
         str(tmp_path / "manifest.jsonl"), "--out", str(tmp_path / "run"),
         "--set", "train.total_epochs=2", "--set", "lr=1e306"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 3 and done.stdout == "", (done.returncode, done.stdout)
    assert done.stderr.startswith("numerical failure: "), done.stderr
    assert " at step 2;" in done.stderr, done.stderr  # a failure inside the model names its step
    assert done.stderr.count("\n") == 1 and "RuntimeWarning" not in done.stderr, done.stderr
    assert sorted(os.listdir(tmp_path / "run")) == ["checkpoint_ep1.bin", "metrics.jsonl"]
    rows = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(row)["step"] for row in rows] == [1]


def _tree(path):
    """Every file under path, by relative name, with its bytes."""
    return {os.path.relpath(os.path.join(d, f), path): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(path) for f in files}


def test_a_fresh_pretrain_refuses_an_out_that_holds_a_run(tmp_path, manifest_path, micro_run):
    # Without --resume, a run would truncate the old log and leave its checkpoints beside it.
    args = ["pretrain", "--manifest", manifest_path, *MICRO_SET, "--set", "train.batch_size=3",
            "--set", "train.total_epochs=2"]
    run_dir = tmp_path / "run"
    for keep in ("metrics.jsonl", "checkpoint_ep1.bin", "checkpoint.bin", None):
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(micro_run["out"], run_dir)
        for name in os.listdir(run_dir):
            if keep is not None and name != keep:
                os.remove(run_dir / name)
        before = _tree(run_dir)
        code, stdout, err = run_cli([*args, "--out", str(run_dir)])
        assert code == 2 and stdout == "", (keep, code, stdout)
        held = keep or "checkpoint.bin, checkpoint_ep1.bin, checkpoint_ep2.bin, metrics.jsonl"
        assert err == (f"error: {run_dir} holds a run ({held}): continue it with --resume, "
                       f"or choose another --out\n"), err
        assert _tree(run_dir) == before
    code, _, err = run_cli([*args, "--out", str(run_dir),
                            "--resume", str(run_dir / "checkpoint_ep1.bin")])
    assert code == 0, err
    assert (run_dir / "checkpoint.bin").read_bytes() == _tree(micro_run["out"])["checkpoint.bin"]
    shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    (run_dir / "notes.txt").write_text("")
    assert run_cli([*args, "--out", str(run_dir)])[0] == 0  # other files do not count


def test_config_file_and_seed_precedence(tmp_path, manifest_path):
    cfg = {
        "model": {"embed_dim": 4, "n_heads": 1, "decoder_dim": 4,
                  "decoder_heads": 1, "patch_size": 4, "grid_h": 2, "grid_w": 2},
        "train": {"seed": 7},
        "data": {"manifest": manifest_path},
    }
    cfg_path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(cfg_path, "w"))

    a = str(tmp_path / "a.jsonl")
    assert run_cli(["mask-plan", "--config", cfg_path, "--out", a])[0] == 0
    b = str(tmp_path / "b.jsonl")
    assert run_cli(["mask-plan", "--manifest", manifest_path, "--out", b,
                    *MICRO_SET, "--set", "train.seed=7"])[0] == 0
    assert open(a).read() == open(b).read()  # file seed == --set seed

    c = str(tmp_path / "c.jsonl")
    assert run_cli(["mask-plan", "--config", cfg_path, "--seed", "9",
                    "--out", c])[0] == 0
    assert open(a).read() != open(c).read()  # --seed outranks the file


def test_rejects_unknown_config(tmp_path, manifest_path):
    assert run_cli(["mask-plan", "--manifest", manifest_path,
                    "--set", "train.nope=1"])[0] == 2
    assert run_cli(["mask-plan", "--manifest", manifest_path,
                    "--set", "flat=1"])[0] == 2
    bad = str(tmp_path / "bad.json")
    json.dump({"optimizer": {}}, open(bad, "w"))
    code, _, err = run_cli(["mask-plan", "--config", bad,
                            "--manifest", manifest_path])
    assert code == 2 and "optimizer" in err
    for section, key in (("loss", "align_mode"), ("loss", "negatives"), ("loss", "symmetrize"),
                         ("train", "independent_crops"), ("train", "checkpoint_every")):
        message = f"unknown config key {section}.{key}"
        code, _, err = run_cli(["grad-check", "--set", f"{section}.{key}=1"])
        assert code == 2 and message in err, err
        json.dump({section: {key: 1}}, open(bad, "w"))
        code, _, err = run_cli(["grad-check", "--config", bad])
        assert code == 2 and message in err, err


def test_mask_plan_output(tmp_path, manifest_path):
    out = str(tmp_path / "plans.jsonl")
    code, stdout, _ = run_cli(["mask-plan", "--manifest", manifest_path,
                               "--out", out])
    assert code == 0
    assert json.loads(stdout) == {"plans": 12, "out": out}
    entries = read_mask_plan(out, patch_size=8)
    assert len(entries) == 12
    assert [v for _, v, _ in entries[:2]] == ["a", "b"]
    for _, _, plan in entries:
        assert plan.n_masked == 16  # half of the 8x4 grid
        assert (plan.grid.grid_h, plan.grid.grid_w) == (8, 4)

    again = str(tmp_path / "again.jsonl")
    run_cli(["mask-plan", "--manifest", manifest_path, "--out", again])
    assert open(out).read() == open(again).read()


def test_mask_plan_random_strategy_and_alias(tmp_path, manifest_path):
    out = str(tmp_path / "rand.jsonl")
    code, _, _ = run_cli(["mask-plan", "--manifest", manifest_path, "--out", out,
                          "--strategy", "random", "--set", "beta=0.25"])
    assert code == 0
    for _, _, plan in read_mask_plan(out, patch_size=8):
        assert plan.n_masked == 8  # quarter of 32, via the beta alias
        assert plan.provenance == ["fill"] * 8


def test_stats_compares_strategies(tmp_path, manifest_path):
    part = str(tmp_path / "part.jsonl")
    rand = str(tmp_path / "rand.jsonl")
    run_cli(["mask-plan", "--manifest", manifest_path, "--out", part])
    run_cli(["mask-plan", "--manifest", manifest_path, "--out", rand,
             "--strategy", "random"])
    code, stdout, _ = run_cli(["stats", "--manifest", manifest_path,
                               "--plans", part, "--plans", rand])
    assert code == 0
    report = json.loads(stdout)
    assert set(report["files"]) == {part, rand}
    assert report["files"][part]["n_plans"] == 12
    delta = report["delta"]
    assert delta["a"] == part and delta["b"] == rand
    assert delta["part_overlap_delta"] > 0.0


def _stats_into(stdout, manifest_path, plans, buffered):
    """Run `pmim stats` in a new interpreter with the given stdout file descriptor."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "pmim.cli", "stats", "--manifest",
                           manifest_path, "--plans", plans],
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_141_quietly(tmp_path, manifest_path, buffered):
    plans = str(tmp_path / "plans.jsonl")
    assert run_cli(["mask-plan", "--manifest", manifest_path, "--out", plans])[0] == 0
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = _stats_into(write_end, manifest_path, plans, buffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b"", proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
def test_full_stdout_exits_2_with_one_error_line(tmp_path, manifest_path, buffered):
    plans = str(tmp_path / "plans.jsonl")
    assert run_cli(["mask-plan", "--manifest", manifest_path, "--out", plans])[0] == 0
    with open("/dev/full", "wb") as full:
        proc = _stats_into(full, manifest_path, plans, buffered)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_stats_rejects_plans_for_another_grid(tmp_path, manifest_path):
    good = str(tmp_path / "good.jsonl")
    short = str(tmp_path / "short.jsonl")
    assert run_cli(["mask-plan", "--manifest", manifest_path, "--out", good])[0] == 0
    assert run_cli(["mask-plan", "--manifest", manifest_path, "--out", short,
                    "--set", "model.grid_h=4"])[0] == 0
    code, stdout, err = run_cli(["stats", "--manifest", manifest_path,
                                 "--plans", good, "--plans", short])
    assert code == 2 and stdout == "", stdout
    assert f"{short}: plans for a 4x4 grid, the model grid is 8x4" in err, err


@pytest.mark.parametrize("command", ["mask-plan", "pretrain", "visualize"])
def test_unwritable_output_exits_2(tmp_path, manifest_path, command):
    plans = str(tmp_path / "plans.jsonl")
    assert run_cli(["mask-plan", "--manifest", manifest_path, "--out", plans])[0] == 0
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out, extra = {
        "mask-plan": (tmp_path / "missing" / "plans.jsonl", []),
        "pretrain": (blocker / "run", [*MICRO_SET, "--set", "train.batch_size=3"]),
        "visualize": (blocker / "viz", ["--plans", plans]),
    }[command]
    code, stdout, err = run_cli([command, "--manifest", manifest_path, "--out", str(out), *extra])
    assert code == 2 and stdout == "", (code, stdout)
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err, err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [["stats", "--plans", "p.jsonl"], ["grad-check"]])
def test_out_is_refused_where_nothing_is_written(argv):
    code, stdout, err = run_cli([*argv, "--out", "out.json"])
    assert code == 2 and stdout == ""
    assert "unrecognized arguments: --out out.json" in err, err


def _off_frame_manifest(tmp_path):
    """Two records whose images are not the 64x32 model frame: a 128x64 P6 and a 32x16 P5."""
    root = tmp_path / "off_frame"
    root.mkdir()
    big, big_images = make_synthetic_dataset(1, seed=2, canvas_h=128, canvas_w=64)
    small, small_images = make_synthetic_dataset(1, seed=3, canvas_h=32, canvas_w=16)
    data_io.write_ppm(big_images[0], str(root / "big.ppm"))
    gray = np.round(small_images[0].data.mean(axis=2) * 255.0).astype(np.uint8)
    (root / "small.pgm").write_bytes(b"P5\n16 32\n255\n" + gray.tobytes())
    records = [SampleRecord("big", "big.ppm", big.records[0].keypoints),
               SampleRecord("small", "small.pgm", small.records[0].keypoints)]
    path = str(root / "manifest.jsonl")
    data_io.write_manifest(DatasetManifest(records, root=str(root)), path)
    return path, records


def test_mask_plan_and_stats_map_keypoints_of_off_frame_images(tmp_path):
    manifest, records = _off_frame_manifest(tmp_path)
    train = TrainConfig()
    grid = train.model.grid
    n_masked = num_masked(train.masking_ratio, grid.n_patches)
    kps = [transform_keypoints(r.keypoints, CropParams(0, 0, w, h, False), 64, 32)
           for r, (h, w) in zip(records, ((128, 64), (32, 16)))]
    seed = 4
    paths = {}
    for strategy in ("part", "random"):
        paths[strategy] = str(tmp_path / f"{strategy}.jsonl")
        code, _, err = run_cli(["mask-plan", "--manifest", manifest, "--seed", str(seed),
                                "--strategy", strategy, "--out", paths[strategy]])
        assert code == 0, err
        want = []
        for i, (record, k) in enumerate(zip(records, kps)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, cli._SEED_PLAN, i]))
            for view in ("a", "b"):
                plan = (part_guided_mask(rng, k, grid, n_masked) if strategy == "part"
                        else random_mask(rng, grid, n_masked))
                want.append((record.sample_id, view, plan.masked, plan.provenance))
        got = [(sample_id, view, plan.masked, plan.provenance)
               for sample_id, view, plan in read_mask_plan(paths[strategy])]
        assert got == want, strategy

    code, stdout, err = run_cli(["stats", "--manifest", manifest, "--seed", str(seed),
                                 "--plans", paths["part"], "--plans", paths["random"]])
    assert code == 0, err
    regions = {r.sample_id: all_part_patches(k, grid)
               for r, k in zip(records, kps)}
    reports = []
    for path in paths.values():
        entries = read_mask_plan(path)
        reports.append(mask_stats([plan for _, _, plan in entries],
                                  [regions[sample_id] for sample_id, _, _ in entries]))
    want = {"files": {path: dataclasses.asdict(r) for path, r in zip(paths.values(), reports)},
            "delta": dict(stats_delta(*reports), a=paths["part"], b=paths["random"])}
    assert json.loads(stdout) == json.loads(json.dumps(want))


def test_a_keypoint_overflowing_the_frame_names_its_record(tmp_path):
    # The 32x16 image is scaled up 2x into the 64x32 frame, where x = 1e308 overflows.
    manifest, records = _off_frame_manifest(tmp_path)
    pts = records[1].keypoints.pts.copy()
    pts[0, 0] = 1e308
    records[1] = SampleRecord("small", "small.pgm", KeypointSet(pts))
    data_io.write_manifest(DatasetManifest(records, root=os.path.dirname(manifest)), manifest)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):  # a new interpreter, so numpy's warnings reach stderr
        return subprocess.run([sys.executable, "-W", "default", "-m", "pmim.cli", *argv,
                               "--manifest", manifest], capture_output=True, text=True,
                              env=env, timeout=120)

    for strategy in ("part", "random"):
        done = run("mask-plan", "--strategy", strategy, "--out", str(tmp_path / "plans.jsonl"))
        assert done.returncode == 2 and "'small'" in done.stderr, (strategy, done.stderr)
        assert "RuntimeWarning" not in done.stderr, done.stderr
    done = run("pretrain", "--out", str(tmp_path / "run"), "--set", "train.total_epochs=1",
               "--set", "train.batch_size=2")
    assert done.returncode == 0 and "skipping sample small" in done.stderr, done.stderr
    assert "RuntimeWarning" not in done.stderr, done.stderr


def test_mask_plan_and_stats_exit_2_on_a_missing_or_truncated_image(tmp_path):
    manifest, _ = _off_frame_manifest(tmp_path)
    plans = str(tmp_path / "plans.jsonl")
    assert run_cli(["mask-plan", "--manifest", manifest, "--out", plans])[0] == 0
    big = os.path.join(os.path.dirname(manifest), "big.ppm")
    raw = open(big, "rb").read()
    for damage, message in ((lambda: open(big, "wb").write(raw[:-1]), "truncated pixel data"),
                            (lambda: os.remove(big), "cannot read image")):
        damage()
        for argv in (["mask-plan", "--out", str(tmp_path / "again.jsonl")],
                     ["mask-plan", "--strategy", "random", "--out", str(tmp_path / "again.jsonl")],
                     ["stats", "--plans", plans]):
            code, _, err = run_cli([*argv, "--manifest", manifest])
            assert code == 2 and big in err and message in err, (argv, err)


def test_mask_plan_exits_2_on_a_nan_or_non_numeric_keypoint(tmp_path, manifest_path):
    lines = open(manifest_path).read().splitlines()
    path = str(tmp_path / "manifest.jsonl")
    for value in (float("nan"), "0.5", True):
        row = json.loads(lines[1])
        row["keypoints"][4][2] = value  # json.dumps writes the float as NaN
        open(path, "w").write("\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n")
        code, stdout, err = run_cli(["mask-plan", "--manifest", path,
                                     "--out", str(tmp_path / "plans.jsonl")])
        assert code == 2 and stdout == "" and f"{path}:2:" in err, (value, err)


def test_visualize_writes_triptychs(tmp_path, manifest_path):
    plans = str(tmp_path / "plans.jsonl")
    run_cli(["mask-plan", "--manifest", manifest_path, "--out", plans])
    out = str(tmp_path / "viz")
    code, stdout, _ = run_cli(["visualize", "--manifest", manifest_path,
                               "--plans", plans, "--out", out])
    assert code == 0
    written = json.loads(stdout)["written"]
    assert "synth0000_a.ppm" in written and len(written) == 12
    raw = open(os.path.join(out, "synth0000_a.ppm"), "rb").read()
    assert raw.startswith(b"P6\n98 64\n255\n")  # three 32-wide panes + gaps

    # plans of the default 8x4 grid against a 2x2 model
    code, _, err = run_cli(["visualize", "--manifest", manifest_path, "--plans", plans,
                            "--out", out, *MICRO_SET])
    assert code == 2 and "do not match 2x2" in err


def test_visualize_with_checkpoint(tmp_path, manifest_path, micro_run):
    plans = str(tmp_path / "p.jsonl")
    run_cli(["mask-plan", "--manifest", manifest_path, "--out", plans, *MICRO_SET])
    out = str(tmp_path / "viz")
    ckpt = os.path.join(micro_run["out"], "checkpoint.bin")
    code, _, err = run_cli(["visualize", "--manifest", manifest_path,
                            "--plans", plans, "--out", out, *MICRO_SET,
                            "--checkpoint", ckpt])
    assert code == 0, err
    raw = open(os.path.join(out, "synth0000_a.ppm"), "rb").read()
    assert raw.startswith(b"P6\n26 8\n255\n")

    # model mismatch between checkpoint and configured model
    code, _, err = run_cli(["visualize", "--manifest", manifest_path,
                            "--plans", plans, "--checkpoint", ckpt])
    assert code == 2 and "model" in err


def test_attn_map(tmp_path, manifest_path, micro_run):
    ckpt = os.path.join(micro_run["out"], "checkpoint.bin")
    out = str(tmp_path / "attn")
    code, stdout, err = run_cli(["attn-map", "--manifest", manifest_path,
                                 "--checkpoint", ckpt, "--id", "synth0001",
                                 "--query", "2", "--out", out, *MICRO_SET])
    assert code == 0, err
    paths = json.loads(stdout)
    assert os.path.exists(paths["out"])
    dump = json.load(open(paths["dump"]))
    assert dump["id"] == "synth0001" and dump["query"] == 2
    weights = np.array(dump["weights"])
    assert weights.shape == (5,)  # class token + four patches
    assert abs(weights.sum() - 1.0) < 1e-6
    assert dump["cls_weight"] == weights[0]
    assert dump["self_weight"] == weights[3]

    assert run_cli(["attn-map", "--manifest", manifest_path, "--checkpoint",
                    ckpt, "--id", "synth0001", "--query", "99", "--out", out,
                    *MICRO_SET])[0] == 2
    assert run_cli(["attn-map", "--manifest", manifest_path, "--checkpoint",
                    ckpt, "--id", "ghost", "--query", "0", "--out", out,
                    *MICRO_SET])[0] == 2


def test_malformed_files_exit_2(tmp_path, manifest_path, micro_run, monkeypatch):
    plans = str(tmp_path / "plans.jsonl")
    open(plans, "w").write("5\n")
    code, _, err = run_cli(["stats", "--manifest", manifest_path, "--plans", plans])
    assert code == 2 and f"{plans}:1:" in err

    ckpt = str(tmp_path / "ck.bin")

    def attn_map_on(echo, arrays=struct.pack("<I", 0)):
        blob = json.dumps(echo).encode("utf-8")
        open(ckpt, "wb").write(b"PMIM" + struct.pack("<II", 1, len(blob)) + blob + arrays)
        return run_cli(["attn-map", "--manifest", manifest_path, "--checkpoint",
                        ckpt, "--id", "synth0001", "--query", "0"])

    code, _, err = attn_map_on({"format": 1, "step": 0})
    assert code == 2 and ckpt in err and "model" in err

    # values of the wrong type in a real checkpoint's config echo
    raw = open(os.path.join(micro_run["out"], "checkpoint.bin"), "rb").read()
    (n,) = struct.unpack("<I", raw[8:12])
    echo, arrays = json.loads(raw[12:12 + n]), raw[12 + n:]
    model, opt = echo["model"], echo["optimizer"]
    for bad in (dict(echo, model=dict(model, embed_dim="x")),
                dict(echo, model=dict(model, depth=None)),
                dict(echo, optimizer=dict(opt, beta1="x")), dict(echo, step="x")):
        code, _, err = attn_map_on(bad, arrays)
        assert code == 2 and ckpt in err, err

    code, _, err = run_cli(["grad-check", "--set", "model.mlp_ratio=abc"])
    assert code == 2 and "mlp_ratio" in err
    # int(4 * 0.2) = 0: the encoder MLP (width 8 * 0.2) survives, the decoder's does not
    code, _, err = run_cli(["grad-check", "--set", "model.decoder_dim=4",
                            "--set", "model.mlp_ratio=0.2"])
    assert code == 2 and "decoder MLP" in err, err

    for bad in ("loss.temperature=nan", "loss.align_weight=inf",
                "loss.normalize_targets=1", "model.proj_head=x", "train.seed=abc",
                "train.seed=-1", "train.batch_size=2.5", "train.base_lr=nan",
                "train.scale_min=2", "train.total_steps=1.5", "data.manifest=7"):
        code, _, err = run_cli(["grad-check", "--set", bad])
        assert code == 2 and err.startswith("error:"), (bad, err)

    # a checkpoint path that does not exist
    missing = str(tmp_path / "missing.bin")
    plan_file = str(tmp_path / "micro_plans.jsonl")
    assert run_cli(["mask-plan", "--manifest", manifest_path, "--out", plan_file,
                    *MICRO_SET])[0] == 0
    for argv in (["attn-map", "--checkpoint", missing, "--id", "synth0001", "--query", "0"],
                 ["visualize", "--plans", plan_file, "--checkpoint", missing,
                  "--out", str(tmp_path / "viz")],
                 ["pretrain", "--resume", missing, "--out", str(tmp_path / "run"),
                  "--set", "train.batch_size=3"]):
        code, _, err = run_cli([*argv, "--manifest", manifest_path, *MICRO_SET])
        assert code == 2 and f"cannot read checkpoint {missing}" in err, (argv, err)

    # resume over a metrics log whose row lacks its step
    run_dir = str(tmp_path / "resumed")
    os.makedirs(run_dir)
    open(os.path.join(run_dir, "metrics.jsonl"), "w").write('{"lr": 1}\n')
    code, _, err = run_cli(
        ["pretrain", "--manifest", manifest_path, "--out", run_dir, *MICRO_SET,
         "--resume", os.path.join(micro_run["out"], "checkpoint_ep1.bin"),
         "--set", "train.batch_size=3", "--set", "train.total_epochs=2"])
    assert code == 2 and "metrics.jsonl:1:" in err, err

    # resume from optimizer moments AdamW cannot use, written by a real save
    ep1 = os.path.join(micro_run["out"], "checkpoint_ep1.bin")
    params, opt = data_io.load_checkpoint(ep1)
    write_array = data_io._write_array
    bad = str(tmp_path / "bad_moments.bin")
    for record, arr in (("m.head_b", np.zeros(3)), ("v.head_b", np.full(48, np.nan)),
                        ("v.enc0_qkv_b", np.full(12, -1.0))):
        monkeypatch.setattr(data_io, "_write_array", lambda f, name, a: write_array(
            f, name, arr if name == record else a))
        data_io.save_checkpoint(params, opt, bad)
        monkeypatch.undo()
        code, _, err = run_cli(
            ["pretrain", "--manifest", manifest_path, "--out", str(tmp_path / "bad_run"),
             *MICRO_SET, "--resume", bad, "--set", "train.batch_size=3",
             "--set", "train.total_epochs=2"])
        assert code == 2 and f"{bad}: {record} has " in err, (record, err)


def test_resume_rejects_an_optimizer_step_off_the_checkpoint_step(tmp_path, manifest_path,
                                                                   micro_run):
    # A one-epoch checkpoint (6 figures, batch 3: step 2) whose echo is edited.
    ep1 = os.path.join(micro_run["out"], "checkpoint_ep1.bin")
    raw = open(ep1, "rb").read()
    (n,) = struct.unpack("<I", raw[8:12])
    echo, arrays = json.loads(raw[12:12 + n]), raw[12 + n:]
    assert echo["step"] == echo["optimizer"]["step"] == 2
    bad = str(tmp_path / "edited.bin")
    for step, opt_step, message in ((2, 1_000_000, "optimizer step 1000000 differs from "
                                                   "checkpoint step 2"),
                                    (2, -1, "optimizer step -1 differs"),
                                    (-1, -1, "checkpoint step must be >= 0, got -1")):
        blob = json.dumps(dict(echo, step=step,
                               optimizer=dict(echo["optimizer"], step=opt_step))).encode()
        open(bad, "wb").write(raw[:8] + struct.pack("<I", len(blob)) + blob + arrays)
        with pytest.raises(ConfigError, match="^" + re.escape(f"{bad}: {message}")):
            data_io.load_checkpoint(bad)
        code, _, err = run_cli(
            ["pretrain", "--manifest", manifest_path, "--out", str(tmp_path / "run"),
             *MICRO_SET, "--resume", bad, "--set", "train.batch_size=3",
             "--set", "train.total_epochs=2"])
        assert code == 2 and f"{bad}: {message}" in err, (step, opt_step, err)


def test_grad_check_cli(monkeypatch):
    code, stdout, _ = run_cli(["grad-check", *MICRO_SET])
    assert code == 0
    report = json.loads(stdout)
    assert max(report.values()) < 1e-4

    code, _, err = run_cli(["grad-check", *MICRO_SET, "--corrupt", "head_b"])
    assert code == 3
    assert err.startswith("numerical failure:")
    assert "head_b" in err

    code, _, err = run_cli(["grad-check", "--set", "model.embed_dim=128"])
    assert code == 2 and "50,000" in err

    # a NaN error fails whichever group holds it
    report = {"ok_a": 1e-9, "nan_group": float("nan"), "ok_b": 1e-8}
    monkeypatch.setattr("pmim.cli.gradient_check", lambda *args, **kwargs: report)
    code, _, err = run_cli(["grad-check", *MICRO_SET])
    assert code == 3 and "nan_group" in err


def test_grad_check_cli_projection_head():
    # TINY_CHECK_MODEL with the head; at the default step h=1e-5, proj2_b reads
    # 1.5e-4 on a correct backward pass, so the command picks a smaller step.
    code, stdout, err = run_cli(["grad-check", "--set", "model.proj_head=true"])
    assert code == 0, err
    assert {"proj1_w", "proj2_b"} <= set(json.loads(stdout))
    code, _, err = run_cli(["grad-check", "--set", "model.proj_head=true",
                            "--corrupt", "proj2_b"])
    assert code == 3 and "proj2_b" in err


def test_runtime_needs_numpy_only():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, pmim, pmim.cli; sys.exit('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr or "import pmim loaded scipy"


def test_console_script_installed():
    exe = shutil.which("pmim")
    assert exe, "pmim entry point not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mask-plan" in proc.stdout
