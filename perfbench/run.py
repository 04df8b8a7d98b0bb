#!/usr/bin/env python3
"""Layered benchmark for pgcones.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

One process runs one workload (see workloads.py) against the checkout's
src/ tree.  With --trace 0 it runs passes over the workload's task list,
with set-ups between them, until the passes have taken --seconds, and reports
the end-to-end metrics of BENCHMARK.json: set-up time (import plus the
median set-up), the median pass time and the peak RSS.  With --trace 1
it sets up once under the tracer, alternates untraced and traced passes,
and reports the per-layer metrics of BENCHMARK.json from the spans, plus
the traced over untraced pass time.  Every task's result is checked
(checks.py); `failed` counts tasks that raised, were refused by the memory
guard or gave a wrong result.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it list every
metric by name and unit, the per-part times and the run metadata; the full
record, with the spans of a traced run, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUPS = 3              # least set-ups per untraced run; setup_s takes their median
SHOWN_FAILURES = 5      # failure messages echoed to stderr


def import_program() -> float:
    """Import pgcones from the checkout's src/ and return the seconds it took."""
    init = SRC / "pgcones" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no pgcones source tree at {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "2")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import pgcones.cli  # noqa: F401  (the CLI imports every other module)
    elapsed = time.perf_counter() - start
    if Path(sys.modules["pgcones"].__file__).resolve() != init.resolve():
        raise ImportError(f"pgcones was imported from {sys.modules['pgcones'].__file__}, not {SRC}")
    return elapsed


def run_metadata(workload: str, seed: int, trace: int, smoke: bool) -> dict:
    import numpy
    from pgcones import kernels
    return {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "kernel_path": "numba" if kernels.USE_NUMBA else "numpy",
        "PGCONES_NO_NUMBA": os.environ.get("PGCONES_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(workload, state, index: int, tracer=None) -> dict:
    """One pass over the task list: seconds per part, tasks attempted and
    the failure messages.  Only the program call is timed, not the check."""
    import checks
    import workloads
    parts = dict.fromkeys(workload.parts, 0.0)
    attempted, failures = 0, []
    for task in workload.tasks(state, index):
        attempted += 1
        if tracer is not None:
            tracer.task = task.label
        try:
            workloads.require_fits(task.geometries)
            start = time.perf_counter()
            result = task.call()
            parts[task.part] += time.perf_counter() - start
            task.check(result)
        except (checks.Mismatch, workloads.OverBudget) as exc:
            failures.append(f"{task.label}: {exc}")
        except Exception:  # a task that raises is a failure; the run goes on
            failures.append(f"{task.label}: {traceback.format_exc()}")
    return {"parts": parts, "wall_s": sum(parts.values()),
            "attempted": attempted, "failures": failures}


def measure(workload, seed: int, seconds: float, smoke: bool, import_s: float) -> dict:
    """Passes until they have taken `seconds`, with a set-up before every
    other pass so that the set-up median samples the whole run, and more
    set-ups at the end if there were fewer than SETUPS."""
    setups, passes, busy = [], [], 0.0
    state = None

    def set_up():
        nonlocal state
        state = None  # release the previous set-up before building the next
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, smoke)
        workload.warm_up(state)
        setups.append(time.perf_counter() - start)

    while not passes or busy < seconds:
        if len(passes) % 2 == 0:
            set_up()
        start = time.perf_counter()
        passes.append(run_pass(workload, state, len(passes)))
        busy += time.perf_counter() - start
    while len(setups) < SETUPS:
        set_up()
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    parts = {name: statistics.median(p["parts"][name] for p in passes)
             for name in workload.parts}
    return {"metrics": metrics, "parts": parts, "passes": passes,
            "setups_s": setups, "import_s": import_s}


def measure_traced(workload, seed: int, seconds: float, smoke: bool, per_layer) -> dict:
    """One set-up under the tracer, then untraced and traced passes in
    turn until the passes have taken `seconds`."""
    from spans import Tracer
    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.phase = tracer.task = "setup"
    with tracer.installed():
        state = workload.setup(seed, smoke)
    workload.warm_up(state)
    tracer.phase = "pass"
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(workload, state, len(traced)))
        with tracer.installed():
            traced.append(run_pass(workload, state, len(traced), tracer))

    metrics = layer_metrics(tracer, len(traced), per_layer)
    if hasattr(workload, "plane_scan_speedup"):
        metrics["kernels.subspace_scan.speedup_2w"] = workload.plane_scan_speedup(state)
    metrics["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                       / statistics.median(p["wall_s"] for p in plain))
    parts = {name: statistics.median(p["parts"][name] for p in traced)
             for name in workload.parts}
    return {"metrics": metrics, "parts": parts, "passes": plain + traced,
            "spans": tracer.dump(t0)}


def layer_metrics(tracer, traced_passes: int, per_layer) -> dict:
    """Per-layer values: the traced set-up plus the mean traced pass.

    `<span>.s` is the inclusive time of a span name, `<span>.calls` its
    count and `<span>.self_s` its time outside child spans; any other name
    is a counter recorded at the span boundary.
    """
    values = dict.fromkeys(per_layer, 0.0)
    passed = 0.0
    for phase, weight in (("setup", 1.0), ("pass", 1.0 / traced_passes)):
        inclusive, calls, self_s = tracer.totals(phase)
        counters = tracer.counters[phase]
        for name in per_layer:
            span, _, kind = name.rpartition(".")
            value = {"s": inclusive, "calls": calls, "self_s": self_s}.get(kind, counters)
            key = name if value is counters else span
            values[name] += value.get(key, 0) * weight
        passed += counters.get("counting.k_passed", 0) * weight
    scan_s = values["kernels.subspace_scan.s"]
    values["kernels.subspace_scan.subspaces_per_s"] = (
        values["kernels.subspace_scan.subspaces"] / scan_s if scan_s else 0.0)
    screened = values["counting.k_screened"]
    values["counting.congruence_pass_ratio"] = passed / screened if screened else 0.0
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description="Layered benchmark for pgcones.")
    ap.add_argument("--workload", required=True,
                    choices=("verify-suite", "spectra-batch", "k-screen"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_s = import_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        run = measure_traced(workload, args.seed, args.seconds, args.smoke, list(units))
    else:
        run = measure(workload, args.seed, args.seconds, args.smoke, import_s)
    failures = [f for p in run["passes"] for f in p["failures"]]
    attempted = sum(p["attempted"] for p in run["passes"])
    fail_ratio = len(failures) / attempted
    meta = run_metadata(args.workload, args.seed, args.trace, args.smoke)
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()}

    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "parts_s": run["parts"],
              "fail_ratio": fail_ratio, "failures": failures,
              **{k: v for k, v in run.items() if k not in ("metrics", "parts")}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for msg in failures[:SHOWN_FAILURES]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# meta {json.dumps(meta)}")
    print(f"# passes {len(run['passes'])}, record in {OUT_DIR.name}/{stem}.json")
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>16.6f} {m['unit']}")
    for name, value in run["parts"].items():
        print(f"{name:<42} {value:>16.6f} s (median per pass)")
    print(f"{'fail_ratio':<42} {fail_ratio:>16.6f} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
