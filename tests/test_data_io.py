"""Manifests, pixmaps, synthetic figures, checkpoints, and mask-plan files."""

import dataclasses
import json
import os

import numpy as np
import pytest

from pmim import data_io
from pmim.data_io import (
    DatasetManifest,
    SampleRecord,
    SyntheticSpec,
    load_checkpoint,
    load_image,
    load_manifest,
    make_synthetic_dataset,
    random_spec,
    read_mask_plan,
    render_stick_figure,
    save_checkpoint,
    write_manifest,
    write_mask_plan,
    write_ppm,
)
from pmim.errors import ConfigError
from pmim.geometry import COCO_KEYPOINT_NAMES, ImageBuffer, KeypointSet, make_patch_grid
from pmim.mask_sampling import MaskPlan
from pmim.model import ModelConfig, init_params
from pmim.training import init_optimizer


def test_ppm_quantization(tmp_path):
    data = np.zeros((1, 3, 3))
    data[0, 0] = 0.0
    data[0, 1] = 0.5
    data[0, 2] = 1.0
    path = str(tmp_path / "q.ppm")
    write_ppm(ImageBuffer(data), path)
    raw = open(path, "rb").read()
    assert raw.startswith(b"P6\n3 1\n255\n")
    assert raw[-9:] == bytes([0, 0, 0, 128, 128, 128, 255, 255, 255])
    back = load_image(path)
    np.testing.assert_allclose(back.data[0, 1], 128 / 255)


def test_ppm_round_trip_is_idempotent(tmp_path):
    rng = np.random.default_rng(0)
    img = ImageBuffer(rng.random((8, 6, 3)))
    p1 = str(tmp_path / "a.ppm")
    p2 = str(tmp_path / "b.ppm")
    write_ppm(img, p1)
    write_ppm(load_image(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_load_image_graymap_broadcasts(tmp_path):
    path = str(tmp_path / "g.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n4 2\n255\n" + bytes(range(8)))
    img = load_image(path)
    assert img.data.shape == (2, 4, 3)
    np.testing.assert_array_equal(img.data[..., 0], img.data[..., 1])
    np.testing.assert_allclose(img.data[1, 3, 2], 7 / 255)


def test_load_image_header_comment(tmp_path):
    path = str(tmp_path / "c.ppm")
    with open(path, "wb") as f:
        f.write(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
    assert load_image(path).data.shape == (1, 2, 3)


def test_load_image_rejects_bad_files(tmp_path):
    bad_magic = str(tmp_path / "bad.ppm")
    with open(bad_magic, "wb") as f:
        f.write(b"P3\n2 2\n255\n")
    with pytest.raises(ConfigError, match="P6"):
        load_image(bad_magic)

    short = str(tmp_path / "short.ppm")
    with open(short, "wb") as f:
        f.write(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(ConfigError, match="truncated"):
        load_image(short)

    deep = str(tmp_path / "deep.ppm")
    with open(deep, "wb") as f:
        f.write(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(ConfigError, match="maxval"):
        load_image(deep)


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    records = []
    for i in range(3):
        pts = np.column_stack([rng.uniform(0, 32, 17), rng.uniform(0, 64, 17),
                               np.ones(17)])
        records.append(SampleRecord(f"s{i}", f"s{i}.ppm", KeypointSet(pts)))
    path = str(tmp_path / "manifest.jsonl")
    write_manifest(DatasetManifest(records), path)
    back = load_manifest(path)
    assert len(back) == 3
    assert back.root == str(tmp_path)
    for orig, got in zip(records, back.records):
        assert got.sample_id == orig.sample_id
        np.testing.assert_array_equal(got.keypoints.pts, orig.keypoints.pts)
    assert back.by_id("s1").image == "s1.ppm"
    with pytest.raises(ConfigError):
        back.by_id("nope")


def test_manifest_error_reporting(tmp_path):
    path = str(tmp_path / "m.jsonl")
    good = json.dumps({"id": "a", "image": "a.ppm",
                       "keypoints": [[0.0, 0.0, 1.0]] * 17})

    open(path, "w").write("{not json\n")
    with pytest.raises(ConfigError, match=":1"):
        load_manifest(path)

    open(path, "w").write(good + "\n" + good + "\n")
    with pytest.raises(ConfigError, match="duplicate id"):
        load_manifest(path)

    open(path, "w").write(json.dumps({"id": "a", "image": "a.ppm"}) + "\n")
    with pytest.raises(ConfigError, match="keypoints"):
        load_manifest(path)

    open(path, "w").write(json.dumps(
        {"id": "a", "image": "a.ppm", "keypoints": [[0, 0, 1]] * 16}) + "\n")
    with pytest.raises(ConfigError, match="17"):
        load_manifest(path)

    open(path, "w").write("\n")
    with pytest.raises(ConfigError, match="empty"):
        load_manifest(path)


def test_stick_figure_two_tone_and_labelled():
    img, kps = render_stick_figure(SyntheticSpec())
    assert img.data.shape == (64, 32, 3)
    values = np.unique(img.data)
    assert set(values) == {0.15, 0.85}
    assert (kps.pts[:, 2] == 1.0).all()
    # figure-left lands at larger screen x
    assert kps.get("left_shoulder")[0] > kps.get("right_shoulder")[0]
    assert kps.get("left_ankle")[1] > kps.get("left_knee")[1]


def test_stick_figure_symmetric_pose_mirrors():
    spec = SyntheticSpec()
    _, kps = render_stick_figure(spec)
    cx = spec.center_x * spec.canvas_w
    for name in COCO_KEYPOINT_NAMES:
        if not name.startswith("left_"):
            continue
        twin = name.replace("left_", "right_")
        np.testing.assert_allclose(kps.get(name)[0] - cx,
                                   cx - kps.get(twin)[0], atol=1e-9)
        np.testing.assert_allclose(kps.get(name)[1], kps.get(twin)[1], atol=1e-9)


def test_stick_figure_rejects_oversized():
    with pytest.raises(ConfigError, match="synth0000"):
        render_stick_figure(SyntheticSpec(height_frac=1.2))


def test_stick_figure_noise_is_seeded():
    spec = SyntheticSpec(noise=0.1, seed=42)
    a, _ = render_stick_figure(spec)
    b, _ = render_stick_figure(spec)
    np.testing.assert_array_equal(a.data, b.data)
    assert a.data.min() >= 0.0 and a.data.max() <= 1.0
    clean, _ = render_stick_figure(dataclasses.replace(spec, noise=0.0))
    assert not np.array_equal(a.data, clean.data)


def test_stick_figure_keypoint_dropout():
    spec = SyntheticSpec(kp_dropout=1.0)
    _, kps = render_stick_figure(spec)
    assert (kps.pts[:, 2] == 0.0).all()
    half = SyntheticSpec(kp_dropout=0.5, seed=3)
    _, a = render_stick_figure(half)
    _, b = render_stick_figure(half)
    np.testing.assert_array_equal(a.pts, b.pts)
    assert 0 < a.pts[:, 2].sum() < 17


def test_random_spec_stays_in_ranges():
    rng = np.random.default_rng(5)
    for i in range(20):
        spec = random_spec(rng, f"s{i}", noise=0.02)
        assert 0.78 <= spec.height_frac <= 0.83
        assert 0.08 <= spec.bg <= 0.22
        assert 0.78 <= spec.fg <= 0.92
        assert spec.noise == 0.02
        render_stick_figure(dataclasses.replace(spec, noise=0.0))  # must fit


def test_synthetic_dataset_deterministic():
    man_a, imgs_a = make_synthetic_dataset(4, seed=9)
    man_b, imgs_b = make_synthetic_dataset(4, seed=9)
    assert [r.sample_id for r in man_a.records] == [f"synth{i:04d}" for i in range(4)]
    for a, b in zip(imgs_a, imgs_b):
        np.testing.assert_array_equal(a.data, b.data)
    for ra, rb in zip(man_a.records, man_b.records):
        np.testing.assert_array_equal(ra.keypoints.pts, rb.keypoints.pts)
    _, imgs_c = make_synthetic_dataset(4, seed=10)
    assert not np.array_equal(imgs_a[0].data, imgs_c[0].data)


def test_synthetic_dataset_on_disk(tmp_path):
    out = str(tmp_path / "ds")
    manifest, images = make_synthetic_dataset(3, seed=2, out_dir=out)
    assert os.path.exists(os.path.join(out, "manifest.jsonl"))
    back = load_manifest(os.path.join(out, "manifest.jsonl"))
    assert back.image_size == (64, 32)
    for record, img in zip(back.records, images):
        loaded = load_image(back.image_path(record))
        assert np.abs(loaded.data - img.data).max() <= 0.5 / 255
        np.testing.assert_array_equal(
            record.keypoints.pts,
            manifest.by_id(record.sample_id).keypoints.pts)


def test_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig()
    params = init_params(np.random.default_rng(0), cfg)
    opt = init_optimizer(params)
    rng = np.random.default_rng(1)
    for k in opt.m:
        opt.m[k] = rng.normal(size=opt.m[k].shape)
        opt.v[k] = rng.random(opt.v[k].shape)
    opt.step = 7
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, opt, 21, path)
    assert os.path.getsize(path) < 2_000_000

    params2, opt2, step = load_checkpoint(path)
    assert step == 21
    assert params2.cfg == cfg
    assert opt2.step == 7
    assert (opt2.beta1, opt2.beta2, opt2.eps) == (0.9, 0.95, 1e-8)
    for k in params.arrays:
        np.testing.assert_array_equal(params2[k], params[k])
        np.testing.assert_array_equal(opt2.m[k], opt.m[k])
        np.testing.assert_array_equal(opt2.v[k], opt.v[k])


def test_checkpoint_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.bin")
    open(path, "wb").write(b"MIMP" + bytes(64))
    with pytest.raises(ConfigError, match="magic"):
        load_checkpoint(path)

    cfg = ModelConfig(embed_dim=8, depth=1, decoder_dim=8, grid_h=2, grid_w=2)
    params = init_params(np.random.default_rng(0), cfg)
    good = str(tmp_path / "ck.bin")
    save_checkpoint(params, init_optimizer(params), 0, good)
    cut = str(tmp_path / "cut.bin")
    open(cut, "wb").write(open(good, "rb").read()[:200])
    with pytest.raises(ConfigError, match="truncated"):
        load_checkpoint(cut)


def test_checkpoint_crash_keeps_previous_file(tmp_path, monkeypatch):
    cfg = ModelConfig(embed_dim=8, depth=1, decoder_dim=8, grid_h=2, grid_w=2)
    params = init_params(np.random.default_rng(0), cfg)
    opt = init_optimizer(params)
    path = str(tmp_path / "checkpoint.bin")
    save_checkpoint(params, opt, 0, path)
    before = open(path, "rb").read()

    real_write = data_io._write_array
    written = []

    def crash_on_fifth(f, name, arr):
        written.append(name)
        if len(written) == 5:
            raise OSError("disk full")
        real_write(f, name, arr)

    monkeypatch.setattr(data_io, "_write_array", crash_on_fifth)
    params.arrays["head_b"] += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, opt, 1, path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["checkpoint.bin"]


def test_mask_plan_round_trip(tmp_path):
    grid = make_patch_grid(64, 32, 8)
    entries = [
        ("s0", "a", MaskPlan(grid, 3, [0, 9, 17], ["head", "block", "fill"])),
        ("s0", "b", MaskPlan(grid, 1, [31], ["left_leg"])),
    ]
    path = str(tmp_path / "plans.jsonl")
    write_mask_plan(entries, path)
    back = read_mask_plan(path, patch_size=8)
    assert len(back) == 2
    for (eid, eview, eplan), (gid, gview, gplan) in zip(entries, back):
        assert (gid, gview) == (eid, eview)
        assert gplan.masked == eplan.masked
        assert gplan.provenance == eplan.provenance
        assert gplan.grid == eplan.grid


def test_mask_plan_read_errors(tmp_path):
    path = str(tmp_path / "p.jsonl")
    open(path, "w").write(json.dumps(
        {"id": "x", "view": "a", "grid": [2, 2], "masked": [0, 9],
         "provenance": ["fill", "fill"]}) + "\n")
    with pytest.raises(ConfigError, match="outside"):
        read_mask_plan(path)

    open(path, "w").write(json.dumps(
        {"id": "x", "view": "a", "grid": [2, 2], "masked": [0],
         "provenance": []}) + "\n")
    with pytest.raises(ConfigError, match="provenance"):
        read_mask_plan(path)

    open(path, "w").write(json.dumps(
        {"id": "x", "view": "a", "grid": [0, 2], "masked": [],
         "provenance": []}) + "\n")
    with pytest.raises(ConfigError, match="grid"):
        read_mask_plan(path)

    open(path, "w").write(json.dumps({"id": "x", "view": "a"}) + "\n")
    with pytest.raises(ConfigError, match="missing field"):
        read_mask_plan(path)
