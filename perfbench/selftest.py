"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py           # everything, a few minutes
    python3 perfbench/selftest.py --quick   # span arithmetic and patching only

The slow test checks one row of the prediction map in predictions.json: a
fixed delay injected at the mask_sampling boundary (from the benchmark's
code, never from src/) must raise mask_sampling self time by about
calls x delay, move the end-to-end metrics the map names, and leave the
workloads and layers the map calls unchanged within bounds.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

DELAY_MS = 2.0
SECONDS = 8


def test_self_time_excludes_other_layers_only():
    # a.outer [0,10] -> b.mid [2,6] -> b.inner [3,4]; a.outer -> a.nested [7,8]
    names = ["a.outer", "b.mid", "b.inner", "a.nested"]
    summary = tracing.summarize(names, name_of=[0, 1, 2, 3], parent=[-1, 0, 1, 0],
                                start=[0.0, 2.0, 3.0, 7.0], end=[10.0, 6.0, 4.0, 8.0])
    layers, functions = summary["layers"], summary["functions"]
    assert layers["a"] == {"calls": 1, "self_s": 6.0}, layers  # 10 - 4 in layer b
    assert layers["b"] == {"calls": 1, "self_s": 4.0}, layers  # inner call not counted twice
    assert functions["a.outer"]["self_s"] == 5.0
    assert functions["b.mid"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}


def test_patch_covers_every_public_function_and_restores():
    modules = tracing.layer_modules()
    before = {(layer, name): value for layer, module in modules.items()
              for name, value in vars(module).items()}
    tracer = tracing.Tracer()
    with tracing.Patch(tracer.wrap):
        changed = {key for key, value in before.items()
                   if vars(modules[key[0]])[key[1]] is not value}
    assert changed, "nothing was patched"
    for layer, module in modules.items():
        public = {f"{layer}.{name}" for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and fn.__module__ == module.__name__
                  and not name.startswith("_")}
        assert public <= set(tracer.names), public - set(tracer.names)
    after = {(layer, name): value for layer, module in modules.items()
             for name, value in vars(module).items()}
    assert after == before


def run(workload, trace, delay=None, seconds=SECONDS, seed=3):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if delay is not None:
        argv += ["--inject-delay", f"mask_sampling:{delay}"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_injected_delay_follows_the_prediction_map():
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    row = json.loads((HERE / "predictions.json").read_text())["layers"]["mask_sampling"]

    # traced pretrain: the delay lands in mask_sampling self time, calls x delay
    base, slow = run("pretrain", 1), run("pretrain", 1, DELAY_MS)
    expected = base["mask_sampling.calls_per_op"] * DELAY_MS
    gained = slow["mask_sampling.self_ms_per_op"] - base["mask_sampling.self_ms_per_op"]
    print(f"      mask_sampling self time +{gained:.2f} ms/op, expected +{expected:.2f}")
    assert abs(gained - expected) < 0.15 * expected, (gained, expected)
    others = [f"{layer}.self_ms_per_op" for layer in tracing.LAYERS if layer != "mask_sampling"]
    # machine speed drifts between runs, so compare each other layer's share
    # of the time outside mask_sampling
    for runs in (base, slow):
        total = sum(runs[k] for k in others)
        runs["shares"] = {k: runs[k] / total for k in others}
    for k in others:
        assert abs(slow["shares"][k] - base["shares"][k]) < 0.05, (k, base["shares"], slow["shares"])

    # end-to-end: each metric the map names gets worse by more than its
    # bound; on the workloads the map calls unchanged, it stays within it
    def change(metric, base, slow):
        ratio = slow[metric] / base[metric]
        return ratio - 1.0 if spec[metric]["better"] == "lower" else 1.0 - ratio

    for workload, metrics in row["moves"].items():
        base, slow = run(workload, 0), run(workload, 0, DELAY_MS)
        for metric in metrics:
            assert change(metric, base, slow) > spec[metric]["bound"], (workload, metric, base, slow)
    for workload in row["unchanged_on"]:
        base, slow = run(workload, 0), run(workload, 0, DELAY_MS)
        for metric in ("op_ms_p50", "items_per_s"):
            assert abs(change(metric, base, slow)) <= spec[metric]["bound"], (workload, metric, base, slow)


def main():
    quick = "--quick" in sys.argv[1:]
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        if quick and name == "test_injected_delay_follows_the_prediction_map":
            continue
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL  {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
