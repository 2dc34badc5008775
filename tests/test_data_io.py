"""Manifests, pixmaps, synthetic figures, checkpoints, and mask-plan files."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct

import numpy as np
import pytest

from pmim import cli, data_io
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

    with pytest.raises(ConfigError, match="cannot read image"):
        load_image(str(tmp_path / "missing.ppm"))


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
    with pytest.raises(ConfigError, match="'nope'"):
        back.by_id("nope")


def test_manifest_by_id_reads_an_index():
    class CountingList(list):
        scans = 0

        def __iter__(self):
            CountingList.scans += 1
            return super().__iter__()

    kps = KeypointSet(np.ones((17, 3)))
    records = CountingList(SampleRecord(f"s{i}", f"s{i}.ppm", kps) for i in range(512))
    records.append(SampleRecord("s7", "again.ppm", kps))
    manifest = DatasetManifest(records)
    assert CountingList.scans == 1  # the index is built once
    for i in range(512):
        assert manifest.by_id(f"s{i}") is records[i]  # a repeated id finds its first record
    assert CountingList.scans == 1
    with pytest.raises(ConfigError, match="'s512' not in manifest"):
        manifest.by_id("s512")


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

    # json reads NaN; a string, a bool or an integer beyond float range is no coordinate
    for value, message in (("NaN", "confidences"), ('"0.5"', "non-numeric"),
                           ("true", "non-numeric"), ("1" + "0" * 400, "out of range")):
        row = ", ".join(["[1.0, 2.0, 1.0]"] * 16 + [f"[1.0, 2.0, {value}]"])
        open(path, "w").write(f'{{"id": "a", "image": "a.ppm", "keypoints": [{row}]}}\n')
        with pytest.raises(ConfigError, match=re.escape(f"{path}:1:") + ".*" + message):
            load_manifest(path)

    open(path, "wb").write(good.encode() + b"\n\xff\xfe\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2:")):
        load_manifest(path)


def _per_row_keypoints(raw, where):
    """The manifest reader's keypoint parse as it was, one numpy row per triple: an oracle."""
    if not isinstance(raw, list) or len(raw) != 17:
        n = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ConfigError(f"{where}: keypoints must be a list of 17 triples, got {n}")
    pts = np.zeros((17, 3))
    for j, trip in enumerate(raw):
        if not isinstance(trip, list) or len(trip) != 3:
            raise ConfigError(f"{where}: keypoints[{j}] must be [x, y, confidence]")
        if any(type(v) not in (int, float) for v in trip):
            raise ConfigError(f"{where}: keypoints[{j}] holds a non-numeric value")
        try:
            pts[j] = [float(v) for v in trip]
        except OverflowError:
            raise ConfigError(f"{where}: keypoints[{j}] holds a value out of range")
    try:
        return KeypointSet(pts)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}")


def _read_both(path, monkeypatch):
    """load_manifest's outcome, (pts bytes per record) or the error text, with each parser."""
    outcomes = []
    for parse in (data_io._parse_keypoints, _per_row_keypoints):
        with monkeypatch.context() as m:
            m.setattr(data_io, "_parse_keypoints", parse)
            try:
                outcomes.append([r.keypoints.pts.tobytes() for r in load_manifest(path).records])
            except ConfigError as e:
                outcomes.append(str(e))
    return outcomes


def test_manifest_reader_matches_the_per_row_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(1909)
    path = str(tmp_path / "m.jsonl")
    corruptions = [
        lambda trip, k: trip.__setitem__(k, True),
        lambda trip, k: trip.__setitem__(k, "0.5"),
        lambda trip, k: trip.__setitem__(k, float("nan")),
        lambda trip, k: trip.__setitem__(k, int("9" * 400)),
        lambda trip, k: trip.pop(),
    ]

    def keypoints():
        # floats, with ints in random places: small, past 2**53 and near the top of float range
        rows = [[float(rng.uniform(-5, 70)), float(rng.uniform(-5, 70)), float(rng.uniform())]
                for _ in range(17)]
        for _ in range(int(rng.integers(0, 6))):
            j, k = int(rng.integers(17)), int(rng.integers(3))
            rows[j][k] = (int(rng.integers(0, 2)) if k == 2
                          else int(rng.choice([7, 2 ** 53 + 1, -(2 ** 70) - 3, 10 ** 300])))
        return rows

    n_errors = 0
    for trial in range(60):
        records = [{"id": f"s{i}", "image": f"s{i}.ppm", "keypoints": keypoints()}
                   for i in range(int(rng.integers(1, 5)))]
        fault = int(rng.integers(-1, len(corruptions) + 1))  # -1: valid; the last: 16 triples
        for _ in range(int(rng.integers(1, 3)) if fault >= 0 else 0):
            rec = records[int(rng.integers(len(records)))]
            if fault == len(corruptions):
                rec["keypoints"].pop(int(rng.integers(17)))
            else:
                j, k = int(rng.integers(len(rec["keypoints"]))), int(rng.integers(3))
                if len(rec["keypoints"][j]) == 3:
                    corruptions[fault](rec["keypoints"][j], k)
        open(path, "w").write("".join(json.dumps(r) + "\n" for r in records))
        new, old = _read_both(path, monkeypatch)
        assert new == old, (trial, new, old)
        n_errors += isinstance(new, str)
    assert 0 < n_errors < 60  # both outcomes were exercised


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


def test_random_spec_stays_in_ranges():
    rng = np.random.default_rng(5)
    for i in range(20):
        spec = random_spec(rng, f"s{i}")
        assert 0.78 <= spec.height_frac <= 0.83
        assert 0.08 <= spec.bg <= 0.22
        assert 0.78 <= spec.fg <= 0.92
        render_stick_figure(spec)  # must fit


def test_random_spec_still_draws_the_retired_noise_seed():
    # 13 pose and tone draws, then the integer that once seeded pixel noise: dropping
    # it would shift every later figure of a synthetic dataset
    rng, replay = np.random.default_rng(8), np.random.default_rng(8)
    random_spec(rng, "s0")
    replay.uniform(size=13)
    replay.integers(0, 2 ** 31)
    assert rng.bit_generator.state == replay.bit_generator.state


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
    opt.m[:] = rng.normal(size=opt.m.shape)
    opt.v[:] = rng.random(opt.v.shape)
    opt.step = 21
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, opt, path)
    assert os.path.getsize(path) < 2_000_000

    params2, opt2 = load_checkpoint(path)
    assert params2.cfg == cfg
    assert opt2.step == 21
    assert (opt2.beta1, opt2.beta2, opt2.eps) == (0.9, 0.95, 1e-8)
    for k in params.arrays:
        np.testing.assert_array_equal(params2[k], params[k])
    np.testing.assert_array_equal(params2.flat, params.flat)
    np.testing.assert_array_equal(opt2.m, opt.m)
    np.testing.assert_array_equal(opt2.v, opt.v)


def test_checkpoint_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.bin")
    open(path, "wb").write(b"MIMP" + bytes(64))
    with pytest.raises(ConfigError, match="magic"):
        load_checkpoint(path)

    cfg = ModelConfig(embed_dim=8, depth=1, decoder_dim=8, grid_h=2, grid_w=2)
    params = init_params(np.random.default_rng(0), cfg)
    good = str(tmp_path / "ck.bin")
    save_checkpoint(params, init_optimizer(params), good)
    cut = str(tmp_path / "cut.bin")
    open(cut, "wb").write(open(good, "rb").read()[:200])
    with pytest.raises(ConfigError, match="truncated"):
        load_checkpoint(cut)

    # moments AdamW cannot use: a wrong shape, a NaN, a negative second moment
    bad = str(tmp_path / "bad.bin")
    for record, arr in (("m.head_b", np.zeros(3)), ("m.cls_token", np.full(4, np.inf)),
                        ("v.head_b", np.full(48, np.nan)), ("v.enc0_qkv_b", np.full(12, -1.0))):
        open(bad, "wb").write(_checkpoint_bytes(SMALL_ECHO, _arrays_bytes(SMALL, {record: arr})))
        with pytest.raises(ConfigError, match=re.escape(f"{bad}: {record} has ")):
            load_checkpoint(bad)
    open(bad, "wb").write(_checkpoint_bytes(SMALL_ECHO, _arrays_bytes(
        SMALL, {"p.head_b": np.full(48, np.nan)})))
    with pytest.raises(ConfigError, match=re.escape(f"{bad}: parameter head_b ")):
        load_checkpoint(bad)
    open(bad, "wb").write(_checkpoint_bytes(SMALL_ECHO, _arrays_bytes(SMALL)))
    assert load_checkpoint(bad)[0].cfg == SMALL


def test_checkpoint_crash_keeps_previous_file(tmp_path, monkeypatch):
    cfg = ModelConfig(embed_dim=8, depth=1, decoder_dim=8, grid_h=2, grid_w=2)
    params = init_params(np.random.default_rng(0), cfg)
    opt = init_optimizer(params)
    path = str(tmp_path / "checkpoint.bin")
    save_checkpoint(params, opt, path)
    before = open(path, "rb").read()

    real_write = data_io._write_array
    written = []

    def crash_on_fifth(f, name, arr):
        written.append(name)
        if len(written) == 5:
            raise OSError("disk full")
        real_write(f, name, arr)

    monkeypatch.setattr(data_io, "_write_array", crash_on_fifth)
    params["head_b"][...] += 1.0
    opt.step = 1
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, opt, path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["checkpoint.bin"]


def test_saved_checkpoint_loads_with_its_one_step(tmp_path):
    params = init_params(np.random.default_rng(0), SMALL)
    opt = init_optimizer(params)
    path = str(tmp_path / "ck.bin")
    for step in (0, 1, 7):
        opt.step = step
        save_checkpoint(params, opt, path)
        raw = open(path, "rb").read()
        (n,) = struct.unpack("<I", raw[8:12])
        echo = json.loads(raw[12:12 + n])
        assert echo["step"] == echo["optimizer"]["step"] == step
        params2, opt2 = load_checkpoint(path)
        assert opt2.step == step
        np.testing.assert_array_equal(params2.flat, params.flat)


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


def test_mask_plan_write_failing_partway_keeps_the_old_file(tmp_path):
    grid = make_patch_grid(64, 32, 8)
    path = str(tmp_path / "plans.jsonl")
    write_mask_plan([("s0", "a", MaskPlan(grid, 1, [5], ["head"]))], path)
    before = open(path, "rb").read()
    unwritable = MaskPlan(grid, 1, [np.int64(7)], ["fill"])  # json cannot serialize a numpy integer
    entries = [("s0", "a", MaskPlan(grid, 1, [9], ["block"])), ("s1", "a", unwritable)]
    with pytest.raises(TypeError):
        write_mask_plan(entries, path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["plans.jsonl"]


class _TornFile:
    """A file open for writing whose first write stops after half its bytes, as on a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        self.f.flush()
        raise OSError("disk full")


@pytest.mark.parametrize("kind", ["manifest", "ppm", "attn_json"])
def test_a_write_failing_partway_keeps_the_old_file(tmp_path, monkeypatch, kind):
    out = tmp_path / "out"
    out.mkdir()
    if kind == "manifest":
        manifest, _ = make_synthetic_dataset(2, seed=0)
        path = str(out / "manifest.jsonl")

        def write():
            write_manifest(manifest, path)
    elif kind == "ppm":
        image = ImageBuffer(np.random.default_rng(0).random((4, 2, 3)))
        path = str(out / "image.ppm")

        def write():
            write_ppm(image, path)
    else:  # the JSON dump of pmim attn-map
        data = str(tmp_path / "data")
        make_synthetic_dataset(1, seed=0, out_dir=data)
        params = init_params(np.random.default_rng(0), SMALL)
        ckpt = str(tmp_path / "checkpoint.bin")
        save_checkpoint(params, init_optimizer(params), ckpt)
        argv = ["attn-map", "--manifest", os.path.join(data, "manifest.jsonl"),
                "--checkpoint", ckpt, "--id", "synth0000", "--query", "0", "--out", str(out)]
        for name in ("embed_dim", "n_heads", "decoder_dim", "decoder_heads", "patch_size",
                     "grid_h", "grid_w"):
            argv += ["--set", f"model.{name}={getattr(SMALL, name)}"]
        path = str(out / "synth0000_attn_q0.json")

        def write():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if cli.entry(argv) != 0:
                    raise OSError(err.getvalue())

    write()
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert os.path.basename(path) in before
    real_open = open

    def torn_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _TornFile(f) if file == path + ".tmp" else f

    monkeypatch.setattr(data_io, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write()
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


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


def _plan_line(**fields):
    line = {"id": "x", "view": "a", "grid": [2, 2], "masked": [0], "provenance": ["fill"]}
    return json.dumps({**line, **fields})


def _checkpoint_bytes(echo, arrays=struct.pack("<I", 0)):
    blob = json.dumps(echo).encode("utf-8")
    return (data_io.CHECKPOINT_MAGIC + struct.pack("<I", data_io.CHECKPOINT_VERSION)
            + struct.pack("<I", len(blob)) + blob + arrays)


MODEL_ECHO = dataclasses.asdict(ModelConfig())
OPT_ECHO = {"beta1": 0.9, "beta2": 0.95, "eps": 1e-8, "step": 0}
GOOD_ECHO = {"format": 1, "step": 0, "optimizer": OPT_ECHO, "model": MODEL_ECHO}
SMALL = ModelConfig(embed_dim=4, n_heads=1, decoder_dim=4, decoder_heads=1, patch_size=4,
                    grid_h=2, grid_w=2)
SMALL_ECHO = dict(GOOD_ECHO, model=dataclasses.asdict(SMALL))


def _arrays_bytes(cfg, replace=None):
    """The array section of a checkpoint of freshly initialized `cfg` parameters.

    `replace` maps record names such as "m.head_b" to the arrays written instead.
    """
    replace = replace or {}
    params = init_params(np.random.default_rng(0), cfg)
    opt = init_optimizer(params)
    f = io.BytesIO()
    f.write(struct.pack("<I", 3 * len(params.arrays)))
    for prefix, vec in (("p", params.flat), ("m", opt.m), ("v", opt.v)):
        for name, arr in params.views(vec).items():
            record = f"{prefix}.{name}"
            data_io._write_array(f, record, replace.get(record, arr))
    return f.getvalue()


SMALL_ARRAYS = _arrays_bytes(SMALL)


@pytest.mark.parametrize("kind, body", [
    ("plan", "5"),
    ("plan", _plan_line(provenance=5)),
    ("plan", _plan_line(grid=[True, 2])),
    ("plan", _plan_line(masked=[True])),
    ("plan", "\udcff"),  # written as the lone byte 0xff
    ("checkpoint", _checkpoint_bytes([1])),
    ("checkpoint", _checkpoint_bytes({"format": 1, "step": 0, "optimizer": OPT_ECHO})),
    ("checkpoint", _checkpoint_bytes(dict(GOOD_ECHO, model=dict(MODEL_ECHO, bogus=1)))),
    ("checkpoint", _checkpoint_bytes(GOOD_ECHO, struct.pack("<II", 1, 1) + b"\xff")),
    ("checkpoint", _checkpoint_bytes(GOOD_ECHO, struct.pack("<II", 1, 3) + b"p.x"
                                     + struct.pack("<III", 2, 2**31, 2**31))),
    ("checkpoint", _checkpoint_bytes(GOOD_ECHO)),
    ("checkpoint", _checkpoint_bytes(dict(GOOD_ECHO, model=dict(MODEL_ECHO, embed_dim="x")))),
    ("checkpoint", _checkpoint_bytes(dict(GOOD_ECHO, model=dict(MODEL_ECHO, depth=None)))),
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, optimizer=dict(OPT_ECHO, beta1="x")),
                                     SMALL_ARRAYS)),
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, step="x"), SMALL_ARRAYS)),
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, optimizer=dict(OPT_ECHO, beta1=math.nan)),
                                     SMALL_ARRAYS)),
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, optimizer=dict(OPT_ECHO, beta1=5)),
                                     SMALL_ARRAYS)),
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, optimizer=dict(OPT_ECHO, beta2=1.0)),
                                     SMALL_ARRAYS)),
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, optimizer=dict(OPT_ECHO, eps=-1)),
                                     SMALL_ARRAYS)),
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, optimizer=dict(OPT_ECHO, eps=math.inf)),
                                     SMALL_ARRAYS)),
    # settings AdamW can use, but not the fixed ones a run trains with
    ("checkpoint", _checkpoint_bytes(dict(SMALL_ECHO, optimizer=dict(OPT_ECHO, beta2=0.999)),
                                     SMALL_ARRAYS)),
    # n_heads changes no array shape, so only the echo can tell 1 from the default 2
    ("checkpoint", _checkpoint_bytes(
        dict(SMALL_ECHO, model={k: v for k, v in SMALL_ECHO["model"].items() if k != "n_heads"}),
        SMALL_ARRAYS)),
], ids=["plan-not-object", "plan-provenance-int", "plan-grid-bool", "plan-index-bool",
        "plan-not-utf8", "echo-list", "echo-no-model", "echo-unknown-key", "array-name-not-utf8",
        "array-dims-oversized", "no-arrays", "echo-embed-dim-str", "echo-depth-null",
        "echo-beta1-str", "echo-step-str", "echo-beta1-nan", "echo-beta1-five",
        "echo-beta2-one", "echo-eps-negative", "echo-eps-inf", "echo-beta2-other",
        "echo-model-key-missing"])
def test_malformed_files_name_the_file(tmp_path, kind, body):
    if kind == "plan":
        path = str(tmp_path / "plans.jsonl")
        open(path, "w", encoding="utf-8", errors="surrogateescape").write(
            _plan_line() + "\n" + body + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2:")):
            read_mask_plan(path)
    else:
        path = str(tmp_path / "ck.bin")
        open(path, "wb").write(body)
        with pytest.raises(ConfigError, match=re.escape(path)):
            load_checkpoint(path)
