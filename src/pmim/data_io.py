"""Dataset manifests, portable pixmap I/O, synthetic stick figures, checkpoints.

All file formats are deliberately plain: JSON lines for manifests, plans and
metrics, binary P6/P5 pixmaps for images, and a small self-describing binary
container for checkpoints.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError
from .geometry import ImageBuffer, KeypointSet, PatchGrid
from .mask_sampling import MaskPlan

CHECKPOINT_MAGIC = b"PMIM"
CHECKPOINT_VERSION = 1


@dataclass
class SampleRecord:
    sample_id: str
    image: str  # path, relative to the manifest root
    keypoints: KeypointSet


@dataclass
class DatasetManifest:
    records: list[SampleRecord]
    root: str = "."
    _index: dict[str, SampleRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {}
        for r in self.records:  # an id's first record, as a scan would find it
            self._index.setdefault(r.sample_id, r)

    def __len__(self):
        return len(self.records)

    def image_path(self, record: SampleRecord) -> str:
        return os.path.join(self.root, record.image)

    def by_id(self, sample_id: str) -> SampleRecord:
        if sample_id not in self._index:
            raise ConfigError(f"sample id {sample_id!r} not in manifest")
        return self._index[sample_id]


# ---------------------------------------------------------------------------
# manifests

_NUMBER = (int, float)  # a JSON number: not a bool, nor a string


def _parse_keypoints(raw, where: str) -> KeypointSet:
    """Check the 17 triples in one pass, first fault first; then convert them in one call."""
    if not isinstance(raw, list) or len(raw) != 17:
        n = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ConfigError(f"{where}: keypoints must be a list of 17 triples, got {n}")
    for j, trip in enumerate(raw):
        if not isinstance(trip, list) or len(trip) != 3:
            raise ConfigError(f"{where}: keypoints[{j}] must be [x, y, confidence]")
        x, y, c = trip
        if type(x) not in _NUMBER or type(y) not in _NUMBER or type(c) not in _NUMBER:
            raise ConfigError(f"{where}: keypoints[{j}] holds a non-numeric value")
        try:
            float(x), float(y), float(c)
        except OverflowError:  # an integer beyond float range
            raise ConfigError(f"{where}: keypoints[{j}] holds a value out of range")
    try:
        return KeypointSet(np.array(raw, dtype=np.float64))
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}")


def _read_file(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}")


def _json_objects(lines: list[bytes], path: str, what: str, fields=()):
    """Yield ("path:line", obj) for each non-blank line of `lines`, read from `path`."""
    for ln, raw in enumerate(lines, 1):
        where = f"{path}:{ln}"
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{where}: not UTF-8 ({e.reason} at byte {e.start})")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{where}: invalid JSON ({e.msg})")
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: {what} line must be a JSON object")
        for key in fields:
            if key not in obj:
                raise ConfigError(f"{where}: missing field {key!r}")
        yield where, obj


def read_json_lines(path: str, what: str, fields=()):
    """Yield ("path:line", obj) for each non-blank line of a JSON-lines file.

    An unreadable file, a line that is not UTF-8 or not JSON, a value that is
    not an object and a missing one of `fields` fail as ConfigError.
    """
    return _json_objects(_read_file(path, what).splitlines(), path, what, fields)


def load_manifest(path: str) -> DatasetManifest:
    """Parse a JSON-lines manifest: {id, image, keypoints:[[x,y,c] x17]} per line."""
    records = []
    seen_ids: dict[str, str] = {}
    for where, obj in read_json_lines(path, "manifest", ("id", "image", "keypoints")):
        if not isinstance(obj["id"], str) or not obj["id"]:
            raise ConfigError(f"{where}: field 'id' must be a non-empty string")
        if not isinstance(obj["image"], str):
            raise ConfigError(f"{where}: field 'image' must be a path string")
        if obj["id"] in seen_ids:
            raise ConfigError(
                f"{where}: duplicate id {obj['id']!r} (first seen at {seen_ids[obj['id']]})")
        seen_ids[obj["id"]] = where
        kps = _parse_keypoints(obj["keypoints"], where + ": field 'keypoints'")
        records.append(SampleRecord(obj["id"], obj["image"], kps))
    if not records:
        raise ConfigError(f"empty manifest: {path}")
    return DatasetManifest(records, root=os.path.dirname(path) or ".")


def write_manifest(manifest: DatasetManifest, path: str):
    """JSON lines of (id, image, keypoints).

    Written through _replacing, so a failed write leaves any earlier file whole.
    """
    with _replacing(path) as f:
        for r in manifest.records:
            f.write((json.dumps({"id": r.sample_id, "image": r.image,
                                 "keypoints": r.keypoints.pts.tolist()}) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# portable pixmaps

def load_image(path: str) -> ImageBuffer:
    """Read a binary P6 pixmap (or P5 graymap, broadcast to RGB) into [0, 1]."""
    data = _read_file(path, "image")
    magic = data[:2]
    if magic not in (b"P6", b"P5"):
        raise ConfigError(
            f"{path}: unsupported magic {magic!r}; supported formats: P6 (pixmap), P5 (graymap)")
    fields, i = [], 2
    while len(fields) < 3:
        if i >= len(data):
            raise ConfigError(f"{path}: truncated header")
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isdigit():
            j = i
            while j < len(data) and data[j:j + 1].isdigit():
                j += 1
            fields.append(int(data[i:j]))
            i = j
        else:
            raise ConfigError(f"{path}: malformed header byte {c!r}")
    w, h, maxval = fields
    if maxval != 255:
        raise ConfigError(f"{path}: maxval {maxval} unsupported (only 255)")
    if h < 1 or w < 1:
        raise ConfigError(f"{path}: degenerate dimensions {h}x{w}")
    channels = 3 if magic == b"P6" else 1
    need = h * w * channels
    raw = data[i + 1:i + 1 + need]  # i + 1 skips the single whitespace byte
    if len(raw) < need:
        raise ConfigError(f"{path}: truncated pixel data ({len(raw)} of {need} bytes)")
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        arr = np.repeat(arr.reshape(h, w, 1), 3, axis=2)
    else:
        arr = arr.reshape(h, w, 3)
    return ImageBuffer(arr)


def write_ppm(image: ImageBuffer, path: str):
    """Binary P6, maxval 255; values clamped then rounded half away from zero.

    Written through _replacing, so a failed write leaves any earlier file whole.
    """
    clamped = np.clip(image.data, 0.0, 1.0)
    q = np.floor(clamped * 255.0 + 0.5).astype(np.uint8)
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    with _replacing(path) as f:
        f.write(header + q.tobytes())


# ---------------------------------------------------------------------------
# synthetic stick figures

LINE_RADIUS = 1.1  # pixels


@dataclass
class SyntheticSpec:
    """Pose and rendering parameters for one stick figure.

    Angles are radians measured from straight down; each side mirrors its
    sign so equal left/right values give a symmetric pose.
    """

    sample_id: str = "synth0000"
    canvas_h: int = 64
    canvas_w: int = 32
    height_frac: float = 0.8  # figure height / canvas height
    center_x: float = 0.5  # of canvas width
    center_y: float = 0.5
    l_shoulder_angle: float = 0.2
    l_elbow_angle: float = 0.19
    r_shoulder_angle: float = 0.2
    r_elbow_angle: float = 0.19
    l_hip_angle: float = 0.115
    l_knee_angle: float = 0.07
    r_hip_angle: float = 0.115
    r_knee_angle: float = 0.07
    bg: float = 0.15
    fg: float = 0.85


def _figure_joints(spec: SyntheticSpec) -> dict[str, np.ndarray]:
    """Joint positions in pixels, once every joint and the head disc fit the canvas."""
    s = spec.height_frac * spec.canvas_h
    cx = spec.center_x * spec.canvas_w
    y0 = spec.center_y * spec.canvas_h - 0.5 * s

    def down(origin, length, angle, side):
        # side +1 swings toward larger x (the figure's left on screen)
        return origin + length * np.array([side * math.sin(angle), math.cos(angle)])

    head = np.array([cx, y0 + 0.09 * s])
    j = {
        "nose": np.array([cx, y0 + 0.11 * s]),
        "left_eye": head + [0.030 * s, -0.015 * s],
        "right_eye": head + [-0.030 * s, -0.015 * s],
        "left_ear": head + [0.055 * s, 0.005 * s],
        "right_ear": head + [-0.055 * s, 0.005 * s],
        "left_shoulder": np.array([cx + 0.11 * s, y0 + 0.22 * s]),
        "right_shoulder": np.array([cx - 0.11 * s, y0 + 0.22 * s]),
        "left_hip": np.array([cx + 0.08 * s, y0 + 0.55 * s]),
        "right_hip": np.array([cx - 0.08 * s, y0 + 0.55 * s]),
    }
    j["left_elbow"] = down(j["left_shoulder"], 0.15 * s, spec.l_shoulder_angle, +1)
    j["left_wrist"] = down(j["left_elbow"], 0.14 * s,
                           spec.l_shoulder_angle + spec.l_elbow_angle, +1)
    j["right_elbow"] = down(j["right_shoulder"], 0.15 * s, spec.r_shoulder_angle, -1)
    j["right_wrist"] = down(j["right_elbow"], 0.14 * s,
                            spec.r_shoulder_angle + spec.r_elbow_angle, -1)
    j["left_knee"] = down(j["left_hip"], 0.205 * s, spec.l_hip_angle, +1)
    j["left_ankle"] = down(j["left_knee"], 0.205 * s,
                           spec.l_hip_angle + spec.l_knee_angle, +1)
    j["right_knee"] = down(j["right_hip"], 0.205 * s, spec.r_hip_angle, -1)
    j["right_ankle"] = down(j["right_knee"], 0.205 * s,
                            spec.r_hip_angle + spec.r_knee_angle, -1)
    margin = LINE_RADIUS + 0.5
    for name, pt in j.items():
        if not (margin <= pt[0] < spec.canvas_w - margin
                and margin <= pt[1] < spec.canvas_h - margin):
            raise ConfigError(
                f"{spec.sample_id}: joint {name} at ({pt[0]:.1f}, {pt[1]:.1f}) "
                f"leaves the {spec.canvas_h}x{spec.canvas_w} canvas")
    radius = 0.085 * s
    if not (margin + radius <= head[0] < spec.canvas_w - margin - radius
            and margin + radius <= head[1] < spec.canvas_h - margin - radius):
        raise ConfigError(f"{spec.sample_id}: head disc leaves the canvas")
    j["_head_center"] = head
    j["_head_radius"] = np.array([radius])
    return j


_FIGURE_SEGMENTS = (
    ("left_shoulder", "right_shoulder"),
    ("left_hip", "right_hip"),
    ("left_shoulder", "left_hip"),
    ("right_shoulder", "right_hip"),
    ("left_shoulder", "left_elbow"),
    ("left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow"),
    ("right_elbow", "right_wrist"),
    ("left_hip", "left_knee"),
    ("left_knee", "left_ankle"),
    ("right_hip", "right_knee"),
    ("right_knee", "right_ankle"),
    ("nose", "left_shoulder"),
    ("nose", "right_shoulder"),
)


def render_stick_figure(spec: SyntheticSpec) -> tuple[ImageBuffer, KeypointSet]:
    """Rasterize one figure; every keypoint confidence is 1.0."""
    from .geometry import COCO_KEYPOINT_NAMES

    joints = _figure_joints(spec)
    radius = float(joints["_head_radius"][0])
    hc = joints["_head_center"]

    ys, xs = np.mgrid[0:spec.canvas_h, 0:spec.canvas_w]
    px = xs + 0.5
    py = ys + 0.5
    img = np.full((spec.canvas_h, spec.canvas_w), spec.bg)
    for a_name, b_name in _FIGURE_SEGMENTS:
        a, b = joints[a_name], joints[b_name]
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-12:
            d2 = (px - a[0]) ** 2 + (py - a[1]) ** 2
        else:
            t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
            d2 = (px - (a[0] + t * ab[0])) ** 2 + (py - (a[1] + t * ab[1])) ** 2
        img[d2 <= LINE_RADIUS ** 2] = spec.fg
    img[(px - hc[0]) ** 2 + (py - hc[1]) ** 2 <= radius ** 2] = spec.fg

    pts = np.ones((17, 3))
    for i, name in enumerate(COCO_KEYPOINT_NAMES):
        pts[i, :2] = joints[name]
    return ImageBuffer(np.repeat(img[:, :, None], 3, axis=2)), KeypointSet(pts)


def random_spec(rng: np.random.Generator, sample_id: str, canvas_h: int = 64,
                canvas_w: int = 32) -> SyntheticSpec:
    """Draw a plausible in-canvas pose; retries until the figure fits."""
    for _ in range(100):
        spec = SyntheticSpec(
            sample_id=sample_id,
            canvas_h=canvas_h,
            canvas_w=canvas_w,
            height_frac=float(rng.uniform(0.78, 0.83)),
            center_x=float(rng.uniform(0.49, 0.51)),
            center_y=float(rng.uniform(0.49, 0.51)),
            l_shoulder_angle=float(rng.uniform(0.12, 0.28)),
            l_elbow_angle=float(rng.uniform(0.08, 0.30)),
            r_shoulder_angle=float(rng.uniform(0.12, 0.28)),
            r_elbow_angle=float(rng.uniform(0.08, 0.30)),
            l_hip_angle=float(rng.uniform(0.05, 0.18)),
            l_knee_angle=float(rng.uniform(0.02, 0.12)),
            r_hip_angle=float(rng.uniform(0.05, 0.18)),
            r_knee_angle=float(rng.uniform(0.02, 0.12)),
            bg=float(rng.uniform(0.08, 0.22)),
            fg=float(rng.uniform(0.78, 0.92)),
        )
        # This draw once seeded optional pixel noise. It is still made, and thrown away,
        # so the draws after it, and with them every synthetic dataset, stay byte-identical.
        rng.integers(0, 2 ** 31)
        try:
            _figure_joints(spec)
        except ConfigError:
            continue
        return spec
    raise ConfigError("could not place a figure inside the canvas after 100 tries")


def make_synthetic_dataset(n: int, seed: int, out_dir: str | None = None, canvas_h: int = 64,
                           canvas_w: int = 32) -> tuple[DatasetManifest, list[ImageBuffer]]:
    """Render n random figures from one seed; optionally write images plus manifest.jsonl."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    records, images = [], []
    for i in range(n):
        spec = random_spec(rng, f"synth{i:04d}", canvas_h, canvas_w)
        img, kps = render_stick_figure(spec)
        records.append(SampleRecord(spec.sample_id, spec.sample_id + ".ppm", kps))
        images.append(img)
    manifest = DatasetManifest(records, root=out_dir or ".")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for record, img in zip(records, images):
            write_ppm(img, os.path.join(out_dir, record.image))
        write_manifest(manifest, os.path.join(out_dir, "manifest.jsonl"))
    return manifest, images


# ---------------------------------------------------------------------------
# checkpoints

def _write_array(f, name: str, arr: np.ndarray):
    enc = name.encode("utf-8")
    f.write(struct.pack("<I", len(enc)))
    f.write(enc)
    f.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<I", d))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f, n: int, path: str) -> bytes:
    # a header may claim any size: check it against the file before reading
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise ConfigError(f"truncated checkpoint: {path}")
    return f.read(n)


def _read_array(f, path: str) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(f, 4, path))
    try:
        name = _read_exact(f, name_len, path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: unreadable array name ({e})")
    (rank,) = struct.unpack("<I", _read_exact(f, 4, path))
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, path))
    data = np.frombuffer(_read_exact(f, 8 * math.prod(dims), path), dtype="<f8")
    return name, data.reshape(dims).astype(np.float64)


@contextlib.contextmanager
def _replacing(path: str):
    """A binary file at path + ".tmp", renamed over `path` once the block completes.

    A crash partway through leaves any earlier file at `path` intact, and no .tmp file.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(params, opt, path: str):
    """Self-describing binary: magic, version, JSON config echo, named arrays.

    The echo holds opt.step in both step slots. Written through _replacing.
    """
    meta = {
        "format": CHECKPOINT_VERSION,
        "step": opt.step,
        "model": dataclasses.asdict(params.cfg),
        "optimizer": {"beta1": opt.beta1, "beta2": opt.beta2, "eps": opt.eps,
                      "step": opt.step},
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with _replacing(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", 3 * len(params.arrays)))
        for prefix, vec in (("p.", params.flat), ("m.", opt.m), ("v.", opt.v)):
            for name, arr in params.views(vec).items():
                _write_array(f, prefix + name, arr)


def load_checkpoint(path: str):
    """Returns (ModelParams, OptimizerState); values round-trip bit-exactly."""
    from .model import ModelConfig, ModelParams
    from .training import OptimizerState

    try:
        f = open(path, "rb")
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}")
    with f:
        magic = _read_exact(f, 4, path)
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}, not a checkpoint")
        (version,) = struct.unpack("<I", _read_exact(f, 4, path))
        if version != CHECKPOINT_VERSION:
            raise ConfigError(
                f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})")
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, path))
        try:
            meta = json.loads(_read_exact(f, meta_len, path).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"{path}: unreadable config echo ({e})")
        (n_arrays,) = struct.unpack("<I", _read_exact(f, 4, path))
        groups: dict[str, dict[str, np.ndarray]] = {"p": {}, "m": {}, "v": {}}
        for _ in range(n_arrays):
            name, arr = _read_array(f, path)
            prefix, _, base = name.partition(".")
            if prefix not in groups or not base:
                raise ConfigError(f"{path}: unexpected array {name!r}")
            groups[prefix][base] = arr

    if not (isinstance(meta, dict) and "step" in meta and isinstance(meta.get("model"), dict)
            and isinstance(meta.get("optimizer"), dict)
            and {"step", "beta1", "beta2", "eps"} <= set(meta["optimizer"])):
        raise ConfigError(f"{path}: config echo lacks step, model or optimizer fields")
    hyper = meta["optimizer"]
    if any(type(v) is not int for v in (meta["step"], hyper["step"])):
        raise ConfigError(f"{path}: config echo step is not an integer")
    # AdamW's bias corrections run on the optimizer's step, the schedule on the checkpoint's
    if hyper["step"] != meta["step"]:
        raise ConfigError(f"{path}: optimizer step {hyper['step']} differs from "
                          f"checkpoint step {meta['step']}")
    if meta["step"] < 0:
        raise ConfigError(f"{path}: checkpoint step must be >= 0, got {meta['step']}")
    fixed = {k: getattr(OptimizerState, k) for k in ("beta1", "beta2", "eps")}
    saved = {k: hyper[k] for k in fixed}
    if saved != fixed:
        raise ConfigError(f"{path}: optimizer settings {saved} differ from AdamW's fixed {fixed}")
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = set(meta["model"]) - fields
    if unknown:
        raise ConfigError(f"{path}: unknown model config keys {sorted(unknown)}")
    missing = fields - set(meta["model"])
    if missing:  # a default would silently stand in for the saved value
        raise ConfigError(f"{path}: config echo lacks model keys {sorted(missing)}")
    try:
        params = ModelParams(ModelConfig(**meta["model"]), groups["p"])
        m, v = params.pack(groups["m"], "m."), params.pack(groups["v"], "v.")
    except (ConfigError, NumericsError) as e:
        raise ConfigError(f"{path}: {e}")
    # moments AdamW cannot use would poison the parameters one step after loading
    for prefix, bad, what in (("m.", ~np.isfinite(m), "non-finite"),
                              ("v.", ~(np.isfinite(v) & (v >= 0.0)), "negative or non-finite")):
        if bad.any():
            raise ConfigError(f"{path}: {prefix}{params.first_group(bad)} has {what} values")
    return params, OptimizerState(m=m, v=v, step=hyper["step"])


# ---------------------------------------------------------------------------
# mask plans

def write_mask_plan(entries: list[tuple[str, str, MaskPlan]], path: str):
    """JSON lines of (sample id, view tag, plan); grid stored as [rows, cols].

    Written through _replacing, so a failed write leaves any earlier file whole.
    """
    with _replacing(path) as f:
        for sample_id, view, plan in entries:
            f.write((json.dumps({
                "id": sample_id,
                "view": view,
                "grid": [plan.grid.grid_h, plan.grid.grid_w],
                "masked": list(plan.masked),
                "provenance": list(plan.provenance),
            }) + "\n").encode("utf-8"))


def read_mask_plan(path: str, patch_size: int = 1) -> list[tuple[str, str, MaskPlan]]:
    """Inverse of write_mask_plan.

    The file does not carry a pixel patch size, so pass one if the plans
    must line up with a pixel-frame grid.
    """
    out = []
    for where, obj in read_json_lines(path, "mask plan",
                                      ("id", "view", "grid", "masked", "provenance")):
        grid_field = obj["grid"]
        if (not isinstance(grid_field, list) or len(grid_field) != 2
                or not all(type(g) is int and g >= 1 for g in grid_field)):
            raise ConfigError(f"{where}: field 'grid' must be [rows, cols]")
        grid = PatchGrid(grid_field[0], grid_field[1], patch_size)
        masked = obj["masked"]
        provenance = obj["provenance"]
        if not isinstance(masked, list) or not all(type(i) is int for i in masked):
            raise ConfigError(f"{where}: field 'masked' must be a list of indices")
        if not isinstance(provenance, list):
            raise ConfigError(f"{where}: field 'provenance' must be a list of tags")
        try:  # MaskPlan checks the lengths and the index range
            plan = MaskPlan(grid, len(masked), masked, [str(t) for t in provenance])
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}")
        out.append((str(obj["id"]), str(obj["view"]), plan))
    return out
