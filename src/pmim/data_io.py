"""Dataset manifests, portable pixmap I/O, synthetic stick figures, checkpoints.

All file formats are deliberately plain: JSON lines for manifests, plans and
metrics, binary P6/P5 pixmaps for images, and a small self-describing binary
container for checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
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
    image_size: tuple[int, int] | None = None  # (h, w) of the first probed image
    version: int = 1

    def __len__(self):
        return len(self.records)

    def image_path(self, record: SampleRecord) -> str:
        return os.path.join(self.root, record.image)

    def by_id(self, sample_id: str) -> SampleRecord:
        for r in self.records:
            if r.sample_id == sample_id:
                return r
        raise ConfigError(f"sample id {sample_id!r} not in manifest")


# ---------------------------------------------------------------------------
# manifests

def _parse_keypoints(raw, where: str) -> KeypointSet:
    if not isinstance(raw, list) or len(raw) != 17:
        n = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ConfigError(f"{where}: keypoints must be a list of 17 triples, got {n}")
    pts = np.zeros((17, 3))
    for j, trip in enumerate(raw):
        if not isinstance(trip, list) or len(trip) != 3:
            raise ConfigError(f"{where}: keypoints[{j}] must be [x, y, confidence]")
        try:
            pts[j] = [float(v) for v in trip]
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: keypoints[{j}] holds a non-numeric value")
    try:
        return KeypointSet(pts)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}")


def load_manifest(path: str) -> DatasetManifest:
    """Parse a JSON-lines manifest: {id, image, keypoints:[[x,y,c] x17]} per line."""
    try:
        with open(path, "rb") as f:
            raw_lines = f.read().decode("utf-8").splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read manifest {path}: {e}")
    records = []
    seen_ids: dict[str, int] = {}
    for ln, line in enumerate(raw_lines, 1):
        if not line.strip():
            continue
        where = f"{path}:{ln}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{where}: invalid JSON ({e.msg})")
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: record must be a JSON object")
        for key in ("id", "image", "keypoints"):
            if key not in obj:
                raise ConfigError(f"{where}: missing field {key!r}")
        if not isinstance(obj["id"], str) or not obj["id"]:
            raise ConfigError(f"{where}: field 'id' must be a non-empty string")
        if not isinstance(obj["image"], str):
            raise ConfigError(f"{where}: field 'image' must be a path string")
        if obj["id"] in seen_ids:
            raise ConfigError(
                f"{where}: duplicate id {obj['id']!r} (first seen on line {seen_ids[obj['id']]})")
        seen_ids[obj["id"]] = ln
        kps = _parse_keypoints(obj["keypoints"], where + ": field 'keypoints'")
        records.append(SampleRecord(obj["id"], obj["image"], kps))
    if not records:
        raise ConfigError(f"empty manifest: {path}")
    manifest = DatasetManifest(records, root=os.path.dirname(path) or ".")
    try:
        h, w, _ = _read_pnm_header(manifest.image_path(records[0]))
        manifest.image_size = (h, w)
    except (ConfigError, OSError):
        pass  # dimensions are advisory; loading stays lazy
    return manifest


def write_manifest(manifest: DatasetManifest, path: str):
    with open(path, "w", encoding="utf-8") as f:
        for r in manifest.records:
            f.write(json.dumps({"id": r.sample_id, "image": r.image,
                                "keypoints": r.keypoints.pts.tolist()}) + "\n")


# ---------------------------------------------------------------------------
# portable pixmaps

def _read_pnm_header(path: str):
    with open(path, "rb") as f:
        data = f.read(512)
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
    return h, w, (magic, maxval, i + 1)  # i+1 skips the single whitespace byte


def load_image(path: str) -> ImageBuffer:
    """Read a binary P6 pixmap (or P5 graymap, broadcast to RGB) into [0, 1]."""
    h, w, (magic, maxval, offset) = _read_pnm_header(path)
    if maxval != 255:
        raise ConfigError(f"{path}: maxval {maxval} unsupported (only 255)")
    if h < 1 or w < 1:
        raise ConfigError(f"{path}: degenerate dimensions {h}x{w}")
    channels = 3 if magic == b"P6" else 1
    need = h * w * channels
    with open(path, "rb") as f:
        f.seek(offset)
        raw = f.read(need)
    if len(raw) < need:
        raise ConfigError(f"{path}: truncated pixel data ({len(raw)} of {need} bytes)")
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        arr = np.repeat(arr.reshape(h, w, 1), 3, axis=2)
    else:
        arr = arr.reshape(h, w, 3)
    return ImageBuffer(arr)


def write_ppm(image: ImageBuffer, path: str):
    """Binary P6, maxval 255; values clamped then rounded half away from zero."""
    clamped = np.clip(image.data, 0.0, 1.0)
    q = np.floor(clamped * 255.0 + 0.5).astype(np.uint8)
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + q.tobytes())


# ---------------------------------------------------------------------------
# synthetic stick figures

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
    noise: float = 0.0
    kp_dropout: float = 0.0  # chance of zeroing each keypoint's confidence
    seed: int = 0
    line_radius: float = 1.1  # pixels


def _figure_joints(spec: SyntheticSpec) -> dict[str, np.ndarray]:
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
    j["_head_center"] = head
    j["_head_radius"] = np.array([0.085 * s])
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
    """Rasterize one figure.

    Keypoint confidences are 1.0, except that kp_dropout > 0 zeroes each
    confidence independently with that probability (keypoints stay rendered;
    only the labels degrade, which exercises the confidence threshold).
    """
    from .geometry import COCO_KEYPOINT_NAMES

    joints = _figure_joints(spec)
    margin = spec.line_radius + 0.5
    radius = float(joints["_head_radius"][0])
    for name, pt in joints.items():
        if name.startswith("_"):
            continue
        if not (margin <= pt[0] < spec.canvas_w - margin
                and margin <= pt[1] < spec.canvas_h - margin):
            raise ConfigError(
                f"{spec.sample_id}: joint {name} at ({pt[0]:.1f}, {pt[1]:.1f}) "
                f"leaves the {spec.canvas_h}x{spec.canvas_w} canvas")
    hc = joints["_head_center"]
    if not (margin + radius <= hc[0] < spec.canvas_w - margin - radius
            and margin + radius <= hc[1] < spec.canvas_h - margin - radius):
        raise ConfigError(f"{spec.sample_id}: head disc leaves the canvas")

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
        img[d2 <= spec.line_radius ** 2] = spec.fg
    img[(px - hc[0]) ** 2 + (py - hc[1]) ** 2 <= radius ** 2] = spec.fg

    if spec.noise > 0.0:
        rng = np.random.default_rng(spec.seed)
        img = np.clip(img + rng.normal(0.0, spec.noise, img.shape), 0.0, 1.0)

    pts = np.ones((17, 3))
    for i, name in enumerate(COCO_KEYPOINT_NAMES):
        pts[i, :2] = joints[name]
    if spec.kp_dropout > 0.0:
        drop_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
        pts[drop_rng.random(17) < spec.kp_dropout, 2] = 0.0
    return ImageBuffer(np.repeat(img[:, :, None], 3, axis=2)), KeypointSet(pts)


def random_spec(rng: np.random.Generator, sample_id: str, canvas_h: int = 64,
                canvas_w: int = 32, noise: float = 0.0) -> SyntheticSpec:
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
            noise=noise,
            seed=int(rng.integers(0, 2 ** 31)),
        )
        try:
            render_stick_figure(dataclasses.replace(spec, noise=0.0))
        except ConfigError:
            continue
        return spec
    raise ConfigError("could not place a figure inside the canvas after 100 tries")


def generate_synthetic(specs: list[SyntheticSpec],
                       out_dir: str | None = None) -> tuple[DatasetManifest, list[ImageBuffer]]:
    """Render a batch of figures; optionally write images plus manifest.jsonl."""
    records, images = [], []
    for spec in specs:
        img, kps = render_stick_figure(spec)
        records.append(SampleRecord(spec.sample_id, spec.sample_id + ".ppm", kps))
        images.append(img)
    ids = [r.sample_id for r in records]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate sample ids in synthetic specs")
    manifest = DatasetManifest(records, root=out_dir or ".")
    if records:
        manifest.image_size = (specs[0].canvas_h, specs[0].canvas_w)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for record, img in zip(records, images):
            write_ppm(img, os.path.join(out_dir, record.image))
        write_manifest(manifest, os.path.join(out_dir, "manifest.jsonl"))
    return manifest, images


def make_synthetic_dataset(n: int, seed: int, out_dir: str | None = None,
                           canvas_h: int = 64, canvas_w: int = 32,
                           noise: float = 0.0) -> tuple[DatasetManifest, list[ImageBuffer]]:
    """Convenience wrapper: n random figures from one seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    specs = [random_spec(rng, f"synth{i:04d}", canvas_h, canvas_w, noise)
             for i in range(n)]
    return generate_synthetic(specs, out_dir)


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
    buf = f.read(n)
    if len(buf) != n:
        raise ConfigError(f"truncated checkpoint: {path}")
    return buf


def _read_array(f, path: str) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(f, 4, path))
    name = _read_exact(f, name_len, path).decode("utf-8")
    (rank,) = struct.unpack("<I", _read_exact(f, 4, path))
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, path))
    count = int(np.prod(dims)) if rank else 1
    data = np.frombuffer(_read_exact(f, 8 * count, path), dtype="<f8")
    return name, data.reshape(dims).astype(np.float64)


def save_checkpoint(params, opt_state, step: int, path: str):
    """Self-describing binary: magic, version, JSON config echo, named arrays.

    Written to path + ".tmp" and renamed over `path` once complete, so a crash
    partway through leaves any earlier file at `path` intact.
    """
    meta = {
        "format": CHECKPOINT_VERSION,
        "step": int(step),
        "model": dataclasses.asdict(params.cfg),
        "optimizer": {"beta1": opt_state.beta1, "beta2": opt_state.beta2,
                      "eps": opt_state.eps, "step": opt_state.step},
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    names = list(params.arrays)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", 3 * len(names)))
            for name in names:
                _write_array(f, "p." + name, params.arrays[name])
            for name in names:
                _write_array(f, "m." + name, opt_state.m[name])
            for name in names:
                _write_array(f, "v." + name, opt_state.v[name])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str):
    """Returns (ModelParams, OptimizerState, step); values round-trip bit-exactly."""
    from .model import ModelConfig, ModelParams
    from .training import OptimizerState

    with open(path, "rb") as f:
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

    cfg = ModelConfig(**meta["model"])
    params = ModelParams(cfg, groups["p"])
    hyper = meta["optimizer"]
    opt = OptimizerState(m=groups["m"], v=groups["v"], step=int(hyper["step"]),
                         beta1=float(hyper["beta1"]), beta2=float(hyper["beta2"]),
                         eps=float(hyper["eps"]))
    if set(opt.m) != set(params.arrays) or set(opt.v) != set(params.arrays):
        raise ConfigError(f"{path}: optimizer arrays do not mirror parameters")
    return params, opt, int(meta["step"])


# ---------------------------------------------------------------------------
# mask plans

def write_mask_plan(entries: list[tuple[str, str, MaskPlan]], path: str):
    """JSON lines of (sample id, view tag, plan); grid stored as [rows, cols]."""
    with open(path, "w", encoding="utf-8") as f:
        for sample_id, view, plan in entries:
            f.write(json.dumps({
                "id": sample_id,
                "view": view,
                "grid": [plan.grid.grid_h, plan.grid.grid_w],
                "masked": list(plan.masked),
                "provenance": list(plan.provenance),
            }) + "\n")


def read_mask_plan(path: str, patch_size: int = 1) -> list[tuple[str, str, MaskPlan]]:
    """Inverse of write_mask_plan.

    The file does not carry a pixel patch size, so pass one if the plans
    must line up with a pixel-frame grid.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read mask plans {path}: {e}")
    out = []
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{path}:{ln}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{where}: invalid JSON ({e.msg})")
        for key in ("id", "view", "grid", "masked", "provenance"):
            if key not in obj:
                raise ConfigError(f"{where}: missing field {key!r}")
        grid_field = obj["grid"]
        if (not isinstance(grid_field, list) or len(grid_field) != 2
                or not all(isinstance(g, int) and g >= 1 for g in grid_field)):
            raise ConfigError(f"{where}: field 'grid' must be [rows, cols]")
        grid = PatchGrid(grid_field[0], grid_field[1], patch_size)
        masked = obj["masked"]
        provenance = obj["provenance"]
        if not isinstance(masked, list) or not all(isinstance(i, int) for i in masked):
            raise ConfigError(f"{where}: field 'masked' must be a list of indices")
        if len(provenance) != len(masked):
            raise ConfigError(
                f"{where}: provenance length {len(provenance)} != mask length {len(masked)}")
        for i in masked:
            if not (0 <= i < grid.n_patches):
                raise ConfigError(
                    f"{where}: index {i} outside the {grid.grid_h}x{grid.grid_w} grid")
        try:
            plan = MaskPlan(grid, len(masked), masked, [str(t) for t in provenance])
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}")
        out.append((str(obj["id"]), str(obj["view"]), plan))
    return out
