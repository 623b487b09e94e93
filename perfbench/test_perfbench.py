"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads as wl
from repro.cli import main as repro_main
from repro.errors import ProtectionFault
from repro.kernel.heap import HeapError
from repro.machine.session import CaratSession, RunConfig
from repro.soak.runner import SoakRunner
from repro.workloads.suite import get_workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_declared():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.E2E_UNITS == e2e
    assert spans.metric_names() == list(per_layer)
    assert {n: spans.metric_unit(n) for n in per_layer} == per_layer
    for name in list(e2e) + list(per_layer):
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(
        wl.WORKLOADS
    )


def test_oracle_is_the_reference_engine_never_the_engine_under_test():
    assert wl.ORACLE_ENGINE == "reference"
    assert wl.ENGINE != wl.ORACLE_ENGINE
    assert wl.load_anchors()["engine"] == wl.ORACLE_ENGINE


def test_anchors_cover_every_program_and_variant():
    anchors = wl.load_anchors()
    assert anchors["variants"] == wl.VARIANTS
    assert set(anchors["cold-suite"]) == set(wl.ColdSuite.programs)
    assert set(anchors["hpc-warm"]) == set(wl.HPC_PROGRAMS)
    variants = {str(v) for v in range(wl.VARIANTS)}
    safety = anchors["safety-dma"]
    assert set(safety["kvservice"]) == variants
    assert set(safety) == set(wl.SAFETY_PROGRAMS)
    assert set(anchors["kv-soak"]) == variants
    for entry in anchors["kv-soak"].values():
        assert entry["ok"] and entry["requests"] == wl.SOAK_REQUESTS
        assert entry["latency_samples"] >= 200


def test_an_anchor_matches_both_engines_now():
    anchor = wl.load_anchors()["cold-suite"]["fluidanimate"]
    source = get_workload("fluidanimate", "tiny").source
    for engine in (wl.ORACLE_ENGINE, wl.ENGINE):
        result = CaratSession(RunConfig(engine=engine)).run(source)
        assert wl.digest(result.output) == anchor["output"]
        assert result.stats.cycles == anchor["cycles"]


def test_two_runs_give_bit_identical_modeled_metrics():
    calibrator = wl.Calibrator()
    workload = wl.WORKLOADS["safety-dma"](
        wl.load_anchors(), calibrator.slice, collect=True
    )
    figures = []
    for _ in range(2):
        check = wl.Check()
        metrics, _ = run.run_timed(
            workload, workload.inputs(3), 0, check, calibrator
        )
        assert check.failed == 0, check.reasons
        figures.append({name: metrics[name] for name in run.MODELED})
    assert figures[0] == figures[1]


def test_layer_spans_partition_the_traced_region_and_are_removed():
    source = get_workload("kvservice", "tiny").source
    original = spans.CaratRuntime.__dict__["guard_access"]
    tracer = spans.LayerTracer()
    with tracer.active():
        CaratSession(RunConfig(engine=wl.ENGINE)).run(source)
    assert spans.CaratRuntime.__dict__["guard_access"] is original
    attributed = sum(tracer.self_s.values()) + tracer.root_self_s
    assert attributed == pytest.approx(tracer.total_s, rel=1e-9)
    assert tracer.calls["frontend"] == 1
    assert tracer.calls["machine.init"] == 1
    counts = tracer.counts()
    assert list(counts) == list(spans.COUNTS)
    assert counts["machine.instructions"] > 0


def test_benchmark_refuses_to_run_without_the_program():
    bare = wl.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hpc-warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# Known defect: with asynchronous moves, a multi-tenant kvservice machine
# corrupts memory.  Without chaos a tenant dies with a ProtectionFault;
# with chaos the kernel heap sees a free of an unallocated address.  The
# sanitizer does not catch either first.  Serial moves run clean, which
# is why kv-soak uses them.  These tests pass once the defect is fixed;
# strict=True then fails them so the markers get removed.
@pytest.mark.parametrize("chaos_rate", [
    pytest.param(0.0, marks=pytest.mark.xfail(
        strict=True, raises=ProtectionFault)),
    pytest.param(2.0, marks=pytest.mark.xfail(
        strict=True, raises=HeapError)),
])
def test_multi_tenant_async_moves_soak_runs_clean(chaos_rate):
    config = wl.soak_config(0, wl.ENGINE).replace(
        soak_requests=400, chaos_rate=chaos_rate, async_moves=True
    )
    report = SoakRunner(
        config, crash_dump_path=str(wl.OUT_DIR / "soak-crash-async.json")
    ).run()
    assert report.ok


@pytest.mark.xfail(strict=True, raises=ProtectionFault)
@pytest.mark.parametrize("extra", [[], ["--sanitize"]])
def test_smp_with_async_moves_runs_clean(extra):
    assert repro_main([
        "smp", "kvservice", "--tenants", "4", "--arbiter", "--async-moves",
        "--no-cow", "--heap-kb", "64", "--fast-kb", "96",
        "--engine", wl.ENGINE, *extra,
    ]) == 0
