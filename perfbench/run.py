"""The repository benchmark: one workload, its metrics, checked results.

    python3 perfbench/run.py --workload cold-suite --seed 0 --seconds 12 --trace 0

Run from the root of a checkout.  ``--trace 0`` sets up ``SETUP_REPEATS``
times (a fresh interpreter importing the toolchain, then the workload's
compile, boot and load), warms up untimed, then runs passes for
``--seconds`` and prints every end-to-end metric.  ``--trace 1`` runs
set-up, warm-up and one pass untraced and then again with layer spans
on, and prints every per-layer metric (``spans.py``).  Every program
result is checked against the reference engine's anchors
(``anchors.json``); the last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is
1 if any check failed.  Results and spans are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit.  Host-clock metrics are medians over the
#: run's passes; modeled metrics repeat exactly for one seed.
E2E_UNITS = {
    "setup_s": "s",
    "sim_mips": "MIPS",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "overhead_x": "x",
    "op_p50_cycles": "cycles",
    "op_p95_cycles": "cycles",
    "ops_per_kcycle": "1/kcycle",
    "ok_share": "share",
}
MODELED = ("overhead_x", "op_p50_cycles", "op_p95_cycles", "ops_per_kcycle")

#: What each generic metric is on each workload (printed with the value).
MEANING = {
    "ops_per_s": {
        "cold-suite": "cold_programs_per_s: compiled from source and run",
        "hpc-warm": "warm programs per second",
        "kv-soak": "requests_per_s: requests served per second",
        "safety-dma": "warm safety-mode programs per second",
    },
    "overhead_x": {
        "cold-suite": "carat_overhead_x: CARAT / baseline cycles, geomean",
        "hpc-warm": "carat_overhead_x: CARAT / baseline cycles, geomean",
        "kv-soak": "soak tenant cycles / baseline cycles, geomean",
        "safety-dma": "safety_overhead_x: safety / plain cycles, geomean",
    },
    "op_p50_cycles": {"kv-soak": "req_p50_cycles: per-request latency"},
    "op_p95_cycles": {"kv-soak": "req_p95_cycles: per-request latency"},
    "ops_per_kcycle": {"kv-soak": "rpkc: requests per thousand cycles"},
    "ok_share": {"": "1 - failed_share"},
}

SETUP_REPEATS = 5
#: Calibration slices after each set-up (passes take one per program).
SETUP_SLICES = 5


def provenance(workload, seed: int, variant: int, engine: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "scale": workload.scale,
        "seed": seed,
        "variant": variant,
        "engine": engine,
    }


def git_sha() -> str:
    """HEAD's commit, or "unknown" where the checkout is not a git
    repository of its own."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def high_percentile(samples):
    """The highest whole percentile with at least 10 samples beyond it,
    as (percentile, nearest-rank value); None below 20 samples, where
    that percentile would be the median."""
    from repro.multiproc.scheduler import percentile

    n = len(samples)
    if n < 21:
        return None
    pct = (100 * (n - 10)) // n
    return pct, percentile(samples, pct / 100)


def run_timed(workload, inputs, seconds: float, check, calibrator):
    from workloads import cpu_clock, toolchain_import_s

    setups = []
    for _ in range(SETUP_REPEATS):
        # The last set-up's garbage is collected outside the timing.
        state = None
        gc.collect()
        imported = toolchain_import_s()
        start = cpu_clock()
        state = workload.setup(inputs)
        setups.append(imported + cpu_clock() - start)
        calibrator.slice(SETUP_SLICES)
    setup_rate, setup_speedup = calibrator.rate(), calibrator.speedup()
    workload.warm(state, check)
    timed_phase = calibrator.mark()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        done = workload.run_pass(state, check)
        if not passes:
            # The high-water mark of set-up, warm-up and one pass: later
            # passes repeat the same work, and their count varies.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        if passes:
            check.expect(
                done.modeled == passes[0].modeled,
                f"pass {len(passes)}: modeled figures changed "
                f"{done.modeled} vs {passes[0].modeled}",
            )
        passes.append(done)
    workload.finish(state, check)

    timed = [p for p in passes if p.seconds > 0]
    raw = {
        "setup_s": statistics.median(setups),
        "sim_mips": statistics.median(
            p.instructions / p.seconds / 1e6 for p in timed
        ),
        "ops_per_s": statistics.median(p.ops / p.seconds for p in timed),
    }
    speedup = calibrator.speedup(timed_phase)
    metrics = {
        "setup_s": raw["setup_s"] / setup_speedup,
        "sim_mips": raw["sim_mips"] * speedup,
        "ops_per_s": raw["ops_per_s"] * speedup,
        "peak_rss_mb": peak_rss_mb,
    }
    for name in MODELED:
        metrics[name] = passes[0].modeled.get(name, 0.0)
    metrics["ok_share"] = 1 - check.failed / max(check.attempted, 1)
    detail = {
        "passes": len(passes),
        "timed_s": sum(p.seconds for p in passes),
        "calibration_rate": {
            "setup": setup_rate,
            "timed": calibrator.rate(timed_phase),
        },
        "uncalibrated": raw,
        "setup_samples_s": setups,
        "op_seconds": [s for p in passes for s in p.op_seconds],
    }
    return metrics, detail


def run_traced(workload, inputs, check, spans_path: Path):
    from spans import LayerTracer, metric_names
    from workloads import codegen_probe

    def region():
        state = workload.setup(inputs)
        workload.warm(state, check)
        done = workload.run_pass(state, check)
        workload.finish(state, check)
        return done

    start = time.perf_counter()
    untraced = region()
    untraced_s = time.perf_counter() - start
    tracer = LayerTracer()
    with tracer.active():
        traced = region()
    check.expect(
        traced.modeled == untraced.modeled,
        f"traced pass changed modeled figures {traced.modeled}",
    )
    tracer.write(spans_path)

    values = {}
    for name in tracer.calls:
        values[f"{name}.self_s"] = tracer.self_s[name]
        values[f"{name}.calls"] = tracer.calls[name]
    for layer, seconds in tracer.layer_self_s().items():
        values[f"layer.{layer}.self_s"] = seconds
    values.update(tracer.counts())
    values.update({
        "trace.total_s": tracer.total_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": tracer.total_s - untraced_s,
        "trace.coverage": 1 - tracer.root_self_s / tracer.total_s,
        "bench.self_s": tracer.root_self_s,
        "machine.codegen_s": codegen_probe(workload.probe(inputs)),
    })
    metrics = {name: values[name] for name in metric_names()}
    detail = {"spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}
    return metrics, detail


def report_lines(name, metrics, units, detail, check):
    shown = {k: v for k, v in detail.items() if k != "op_seconds"}
    lines = [f"detail        : {json.dumps(shown)}"]
    op_seconds = detail.get("op_seconds") or []
    if op_seconds:
        line = (
            f"program host s: n={len(op_seconds)} "
            f"p50 {statistics.median(op_seconds):.4f}"
        )
        high = high_percentile(op_seconds)
        if high is not None:
            line += f" p{high[0]} {high[1]:.4f}"
        lines.append(line)
    for metric, value in metrics.items():
        meaning = MEANING.get(metric, {})
        label = meaning.get(name) or meaning.get("", "")
        lines.append(
            f"{metric:<34} {value:>16.6f} {units[metric]:<9} {label}".rstrip()
        )
    lines.append(f"failed_share  : {check.failed}/{check.attempted}")
    lines += [f"FAILED        : {reason}" for reason in check.reasons[:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("cold-suite", "hpc-warm", "kv-soak", "safety-dma"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"perfbench: no program sources at {SRC}; run from the root of "
            f"a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl
    from spans import metric_unit

    anchors = wl.load_anchors()
    check = wl.Check()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        workload = wl.WORKLOADS[args.workload](anchors)
        inputs = workload.inputs(args.seed)
        metrics, detail = run_traced(
            workload, inputs, check, wl.OUT_DIR / f"spans-{stem}.json"
        )
        units = {name: metric_unit(name) for name in metrics}
    else:
        calibrator = wl.Calibrator()
        workload = wl.WORKLOADS[args.workload](
            anchors, calibrator.slice, collect=True
        )
        inputs = workload.inputs(args.seed)
        metrics, detail = run_timed(
            workload, inputs, args.seconds, check, calibrator
        )
        units = E2E_UNITS
    prov = provenance(workload, args.seed, inputs.variant, wl.ENGINE)
    prov["oracle"] = wl.ORACLE_ENGINE
    about = " ".join(workload.__doc__.split())
    print(f"perfbench {args.workload}: {about}")
    print(f"provenance    : {json.dumps(prov, sort_keys=True)}")
    for line in report_lines(args.workload, metrics, units, detail, check):
        print(line)
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (wl.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": prov, "detail": detail, "failures": check.reasons,
         **result},
        indent=1,
    ) + "\n")
    print(json.dumps(result))
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
