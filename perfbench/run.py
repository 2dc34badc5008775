"""pmim benchmark: three closed-loop workloads driven from outside the package.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  pretrain   training.run_pretrain on the default config, 64 synthetic figures
  gradcheck  training.gradient_check() on TINY_CHECK_MODEL
  maskplan   `pmim mask-plan` (part), `mask-plan --strategy random`, `stats`,
             through pmim.cli.entry in-process, on 512 synthetic records
  all        each of the above in turn, in its own process

One caller issues one call at a time; BLAS is pinned to one thread. All inputs
come from --seed. Every output is checked; a failed check counts the call's
ops as failed. The last stdout line is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0; per-layer metrics from
a traced run with --trace 1). Run outputs go to perfbench/out/.
"""

import time

T_START = time.perf_counter()  # setup_s runs from here, before pmim is imported

import argparse
import contextlib
import functools
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads BLAS; inherited by child processes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("pretrain", "gradcheck", "maskplan")
SETUP_REPEATS = 3  # setups per run (this process plus fresh child processes); median reported
PRETRAIN_RECORDS = 64
MASKPLAN_RECORDS = 512
GRAD_TOL = 1e-4
GRAD_WINDOW = 32  # loss evaluations per gradcheck latency and throughput sample

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "items_per_s": "1/s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "model.self_ms_per_op": "ms/op", "model.calls_per_op": "calls/op",
    "losses.self_ms_per_op": "ms/op", "losses.calls_per_op": "calls/op",
    "geometry.self_ms_per_op": "ms/op", "geometry.calls_per_op": "calls/op",
    "mask_sampling.self_ms_per_op": "ms/op", "mask_sampling.calls_per_op": "calls/op",
    "mask_sampling.part_share": "ratio", "mask_sampling.fill_share": "ratio",
    "data_io.self_ms_per_op": "ms/op", "data_io.calls_per_op": "calls/op",
    "data_io.checkpoint_ms": "ms", "data_io.bytes_written": "B/op",
    "training.self_ms_per_op": "ms/op", "training.optimizer_ms_per_op": "ms/op",
    "cli.self_ms_per_op": "ms/op", "cli.calls_per_op": "calls/op",
    "trace.overhead_pct": "%",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}

clock = time.perf_counter


def import_pmim():
    """Import pmim from this checkout's src/, or exit with an error if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import pmim
    except ImportError as e:
        sys.exit(f"cannot import pmim from {SRC}: {e}")
    if Path(pmim.__file__).resolve().parent.parent != SRC:
        sys.exit(f"pmim was imported from {pmim.__file__}, not from {SRC}")


@dataclass
class Call:
    """Outcome of one headline call.

    `windows` holds (items, seconds) pairs for the throughput median; by
    default the whole call is one window.
    """
    seconds: float
    latencies_ms: list
    ops: int
    items: int
    failed: int
    windows: list = None

    def __post_init__(self):
        if self.windows is None:
            self.windows = [(self.items, self.seconds)]


def report_crash(what):
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc()


# ---------------------------------------------------------------------------
# workloads

class Pretrain:
    """One call is run_pretrain on the default config (2 epochs, 16 steps).

    Every call repeats the same seed, so each is checked against the first:
    identical metrics rows apart from `secs`, byte-identical final checkpoint.
    Op: one optimizer step, timed by the clock passed as `timer`.
    """

    def __init__(self, seed, work):
        from pmim import data_io, training
        self.training = training
        data = work / "data"
        data_io.make_synthetic_dataset(PRETRAIN_RECORDS, seed=seed, out_dir=str(data))
        self.manifest = data_io.load_manifest(str(data / "manifest.jsonl"))
        self.cfg = training.TrainConfig(seed=seed)
        resolved, _ = training.resolve_schedule(self.cfg, len(self.manifest))
        self.steps = resolved.total_steps
        self.items = self.steps * self.cfg.batch_size
        self.out = work / "run"
        self.reference = None
        self.loss_final = None

    def call(self):
        t0 = clock()
        try:
            self.training.run_pretrain(self.cfg, self.manifest, out_dir=str(self.out), timer=clock)
        except Exception:
            report_crash("run_pretrain")
            return Call(clock() - t0, [], self.steps, self.items, self.steps)
        seconds = clock() - t0
        with open(self.out / "metrics.jsonl", encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        latencies = [r["secs"] * 1000.0 for r in records]
        rows = [{k: v for k, v in r.items() if k != "secs"} for r in records]
        checkpoint = (self.out / "checkpoint.bin").read_bytes()
        ok = len(rows) == self.steps and all(
            math.isfinite(r[k]) for r in rows for k in ("recon", "align", "total"))
        if self.reference is None:
            self.reference = (rows, checkpoint)
            self.loss_final = rows[-1]["total"] if rows else float("nan")
        ok = ok and (rows, checkpoint) == self.reference
        return Call(seconds, latencies, self.steps, self.items, 0 if ok else self.steps)

    def named(self, m):
        return {"step_ms_p50": (m["op_ms_p50"], "ms"), "step_ms_p90": (m["op_ms_p90"], "ms"),
                "samples_per_s": (m["items_per_s"], "1/s"), "loss_final": (self.loss_final, "")}


class GradCheck:
    """One call is gradient_check(seed) on TINY_CHECK_MODEL; every group must be <= 1e-4.

    Op: one loss evaluation (two per parameter element). The loss function
    that gradient_check hands to training.finite_difference_grads is
    wrapped to note when each evaluation starts. An evaluation takes a few
    milliseconds, shorter than the swings in CPU speed on a shared machine, so each
    latency and throughput sample covers GRAD_WINDOW consecutive evaluations,
    start to start, which also counts the finite-difference loop between them.
    """

    def __init__(self, seed, work):
        from pmim import model, training
        self.training = training
        self.seed = seed
        shapes = model.param_shapes(training.TINY_CHECK_MODEL)
        self.groups = {name for name, _, _ in shapes}
        self.evals = 2 * sum(math.prod(shape) for _, shape, _ in shapes)
        self.starts: list[float] = []
        self.call_seconds: list[float] = []

    def observe(self, fn, layer):
        """Patch wrap: note the start of each loss evaluation made by finite_difference_grads."""
        if layer != "training" or fn.__name__ != "finite_difference_grads":
            return fn
        starts = self.starts

        @functools.wraps(fn)
        def finite_difference_grads(loss_fn, *args, **kwargs):
            def timed_loss(params):
                starts.append(clock())
                return loss_fn(params)
            return fn(timed_loss, *args, **kwargs)
        return finite_difference_grads

    def call(self):
        del self.starts[:]
        t0 = clock()
        try:
            report = self.training.gradient_check(seed=self.seed)
        except Exception:
            report_crash("gradient_check")
            return Call(clock() - t0, [], self.evals, self.evals, self.evals)
        t1 = clock()
        self.call_seconds.append(t1 - t0)
        ok = set(report) == self.groups and all(
            math.isfinite(v) and v <= GRAD_TOL for v in report.values())
        failed = 0 if ok else self.evals
        if not self.starts:  # loss evaluations not observable: whole-call figures
            return Call(t1 - t0, [1000.0 * (t1 - t0) / self.evals], self.evals, self.evals, failed)
        n = max(len(self.starts) // GRAD_WINDOW, 1)
        edges = [t0] + [self.starts[k * GRAD_WINDOW] for k in range(1, n)] + [t1]
        sizes = [GRAD_WINDOW] * (n - 1) + [len(self.starts) - GRAD_WINDOW * (n - 1)]
        windows = [(size, end - start) for size, start, end in zip(sizes, edges, edges[1:])]
        latencies = [1000.0 * seconds / size for size, seconds in windows]
        return Call(t1 - t0, latencies, self.evals, self.evals, failed, windows)

    def named(self, m):
        return {"gradcheck_s": (statistics.median(self.call_seconds), "s")}


class MaskPlanPipeline:
    """One call is the pipeline mask-plan (part), mask-plan (random), stats.

    Checks: every exit code is 0; every plan masks exactly floor(beta * N)
    distinct in-grid patches; plans read back from each file equal the ones
    passed to data_io.write_mask_plan; plan files are byte-identical across
    calls; stats reports part_overlap_delta > 0.
    Op: one manifest record; its latency is the time between successive
    data_io.load_image calls inside one command (the last record of each
    command also carries the file write and is left out).
    """

    def __init__(self, seed, work):
        from pmim import cli, data_io, model, training
        self.cli, self.data_io = cli, data_io
        data = work / "data"
        data_io.make_synthetic_dataset(MASKPLAN_RECORDS, seed=seed, out_dir=str(data))
        manifest_path = str(data / "manifest.jsonl")
        self.manifest = data_io.load_manifest(manifest_path)
        self.ids = [r.sample_id for r in self.manifest.records]
        grid = model.ModelConfig().grid
        self.n_patches = grid.n_patches
        beta = Fraction(str(training.TrainConfig().masking_ratio))
        self.budget = math.floor(beta * grid.n_patches)
        self.part, self.rand = work / "part.jsonl", work / "rand.jsonl"
        common = ["--manifest", manifest_path, "--seed", str(seed)]
        self.commands = [
            ["mask-plan", *common, "--out", str(self.part)],
            ["mask-plan", *common, "--out", str(self.rand), "--strategy", "random"],
            ["stats", *common, "--plans", str(self.part), "--plans", str(self.rand)],
        ]
        self.items = 4 * len(self.ids)
        self.ticks: list[float] = []
        self.written: dict[str, list] = {}
        self.reference = None
        self.delta = None

    def observe(self, fn, layer):
        """Patch wrap: tick at each image load, keep what is passed to write_mask_plan."""
        if layer != "data_io" or fn.__name__ not in ("load_image", "write_mask_plan"):
            return fn
        ticks, written = self.ticks, self.written

        if fn.__name__ == "load_image":
            @functools.wraps(fn)
            def load_image(*args, **kwargs):
                ticks.append(clock())
                return fn(*args, **kwargs)
            return load_image

        @functools.wraps(fn)
        def write_mask_plan(entries, path, *args, **kwargs):
            written[str(path)] = list(entries)
            return fn(entries, path, *args, **kwargs)
        return write_mask_plan

    def call(self):
        n = len(self.ids)
        self.written.clear()
        latencies, codes, outputs = [], [], []
        t0 = clock()
        try:
            for argv in self.commands:
                del self.ticks[:]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(self.cli.entry(argv))
                outputs.append(buf.getvalue())
                latencies += [1000.0 * (b - a) for a, b in zip(self.ticks, self.ticks[1:])]
        except Exception:
            report_crash("cli.entry")
            return Call(clock() - t0, [], n, self.items, n)
        seconds = clock() - t0
        if codes != [0, 0, 0]:
            print(f"maskplan exit codes {codes}", file=sys.stderr)
            return Call(seconds, latencies, n, self.items, n)
        bad = self._check_plans()
        files = (self.part.read_bytes(), self.rand.read_bytes())
        if self.reference is None:
            self.reference = files
        try:
            self.delta = json.loads(outputs[2].splitlines()[-1])["delta"]["part_overlap_delta"]
        except (ValueError, KeyError, IndexError):
            self.delta = None
        if files != self.reference or self.delta is None or not self.delta > 0:
            bad = set(self.ids)
        return Call(seconds, latencies, n, self.items, len(bad))

    def _check_plans(self):
        """Ids of records with a plan that breaks the budget or does not read back."""
        def key(sample_id, view, plan):
            return (sample_id, view, list(plan.masked), list(plan.provenance),
                    plan.grid.grid_h, plan.grid.grid_w)

        bad = set()
        for path in (self.part, self.rand):
            entries = self.written.get(str(path), [])
            back = self.data_io.read_mask_plan(str(path))
            if len(back) != len(entries):
                return set(self.ids)
            views = {}
            for entry, entry_back in zip(entries, back):
                sample_id, view, plan = entry
                views.setdefault(sample_id, []).append(view)
                masked = set(plan.masked)
                if (len(plan.masked) != self.budget or len(masked) != self.budget
                        or not masked <= set(range(self.n_patches))
                        or key(*entry) != key(*entry_back)):
                    bad.add(sample_id)
            bad.update(i for i in self.ids if sorted(views.get(i, [])) != ["a", "b"])
        return bad

    def named(self, m):
        return {"plans_per_s": (m["items_per_s"], "1/s"),
                "part_overlap_delta": (self.delta, "")}


WORKLOAD_CLASSES = {"pretrain": Pretrain, "gradcheck": GradCheck, "maskplan": MaskPlanPipeline}


# ---------------------------------------------------------------------------
# measurement

def measure(workload, budget_s):
    """Closed loop: whole calls, one after another, while the next fits the budget.

    At least one call is made.
    """
    calls = []
    t0 = clock()
    while True:
        calls.append(workload.call())
        if clock() - t0 + calls[-1].seconds > budget_s:
            return calls


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(calls, setup_s):
    latencies = [x for c in calls for x in c.latencies_ms]
    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    if not latencies:  # every call crashed; fall back to wall time per op
        latencies = [1000.0 * c.seconds / c.ops for c in calls]
    return {
        "setup_s": setup_s,
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p90": percentile(latencies, 90),
        "items_per_s": statistics.median(n / s for c in calls for n, s in c.windows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }, attempted, failed, len(latencies)


def per_layer(tracer, ops, overhead_pct):
    summary = tracer.summary()
    metrics = {}
    for layer in tracing.LAYERS:
        lay = summary["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.self_ms_per_op"] = 1000.0 * lay["self_s"] / ops
        metrics[f"{layer}.calls_per_op"] = lay["calls"] / ops
    functions = summary["functions"]
    tags = tracer.tag_counts
    checkpoints = functions.get("data_io.save_checkpoint", {"calls": 0, "total_s": 0.0})
    optimizer = functions.get("training.adamw_update", {"total_s": 0.0})
    metrics.update({
        "mask_sampling.part_share": tags["part"] / tags["all"] if tags["all"] else 0.0,
        "mask_sampling.fill_share": tags["fill"] / tags["all"] if tags["all"] else 0.0,
        "data_io.checkpoint_ms": (1000.0 * checkpoints["total_s"] / checkpoints["calls"]
                                  if checkpoints["calls"] else 0.0),
        "data_io.bytes_written": tracer.bytes_written / ops,
        "training.optimizer_ms_per_op": 1000.0 * optimizer["total_s"] / ops,
        "trace.overhead_pct": overhead_pct,
    })
    return {k: metrics[k] for k in PER_LAYER_UNITS}, summary


# ---------------------------------------------------------------------------
# environment

def blas_threads(packages):
    """Thread count of the OpenBLAS bundled with each package (numpy.libs, scipy.libs)."""
    import ctypes
    out = {}
    for package in packages:
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))  # already loaded: returns the same handle
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def environment(seed):
    import platform
    import numpy
    packages = [numpy]
    try:
        import scipy
        packages.append(scipy)
    except ImportError:
        scipy = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    sources = sorted((SRC / "pmim").glob("*.py"))
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy and scipy.__version__,
        "blas": blas_name, "blas_threads": blas_threads(packages), "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "seed": seed, "git_commit": commit, "src_pmim_lines": lines,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# entry point

def setup(workload_name, seed):
    """Fresh work directory plus the workload's inputs; returns (workload, work dir)."""
    import_pmim()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT))
    return WORKLOAD_CLASSES[workload_name](seed, work), work


def child_setup_seconds(args):
    """setup_s of fresh processes, each doing the whole set-up once."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_all(args):
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--inject-delay", args.inject_delay] if args.inject_delay else []),
            timeout=600)
        status = status or done.returncode
    return status


def print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {text:>14s} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-delay", metavar="LAYER:MS",
                        help="add a fixed delay to every call entering LAYER (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    delay = None
    if args.inject_delay:
        layer, _, ms = args.inject_delay.partition(":")
        if layer not in tracing.LAYERS:
            parser.error(f"unknown layer {layer!r}")
        delay = tracing.delay_at(layer, float(ms) / 1000.0)
    if args.workload == "all":
        return run_all(args)

    workload, work = setup(args.workload, args.seed)
    setup_s = clock() - T_START
    try:
        if args.setup_only:
            print(setup_s)
            return 0
        with contextlib.ExitStack() as patches:
            if delay is not None:
                patches.enter_context(tracing.Patch(delay))
            if hasattr(workload, "observe"):
                patches.enter_context(tracing.Patch(workload.observe))
            if args.trace:
                result = traced_run(args, workload)
            else:
                setup_times = [setup_s] + child_setup_seconds(args)
                result = untraced_run(args, workload, statistics.median(setup_times))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced_run(args, workload, setup_s):
    calls = measure(workload, args.seconds)
    metrics, attempted, failed, samples = end_to_end(calls, setup_s)
    print(json.dumps({"env": environment(args.seed)}))
    named = {"setup_s": (metrics["setup_s"], "s"), **workload.named(metrics),
             "fail_ratio": (failed / attempted, ""), "peak_rss_mb": (metrics["peak_rss_mb"], "MB")}
    print_table(f"{args.workload}: {len(calls)} calls, {samples} op samples, "
                f"{attempted} ops attempted, {failed} failed", named)
    return result_line(metrics, attempted, failed)


def traced_run(args, workload):
    from pmim import mask_sampling
    plain = measure(workload, args.seconds / 2)
    tracer = tracing.Tracer(part_tags=mask_sampling.PART_IDS)
    with tracing.Patch(tracer.wrap):
        traced = measure(workload, args.seconds / 2)
    plain_p50 = end_to_end(plain, 0.0)[0]["op_ms_p50"]
    traced_p50 = end_to_end(traced, 0.0)[0]["op_ms_p50"]
    ops = sum(c.ops for c in traced)
    overhead = 100.0 * (traced_p50 - plain_p50) / plain_p50
    metrics, summary = per_layer(tracer, ops, overhead)
    env = environment(args.seed)
    print(json.dumps({"env": env}))
    functions = {name: dict(f, self_ms_per_op=1000.0 * f["self_s"] / ops)
                 for name, f in sorted(summary["functions"].items(),
                                       key=lambda kv: -kv[1]["self_s"])}
    span_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(str(span_file), {"workload": args.workload, "seed": args.seed, "ops": ops,
                                  "env": env, "per_layer": metrics, "functions": functions})
    print_table(f"{args.workload} traced: {len(traced)} calls, {ops} ops, "
                f"{len(tracer.start)} spans -> {span_file.relative_to(ROOT)}",
                {k: (v, UNITS[k]) for k, v in metrics.items()})
    attempted = sum(c.ops for c in plain + traced)
    failed = sum(c.failed for c in plain + traced)
    return result_line(metrics, attempted, failed)


def result_line(metrics, attempted, failed):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
