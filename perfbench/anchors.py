"""Record the oracle: the reference engine's output and modeled cycles
for every program and input variant the benchmark runs.

    python3 perfbench/anchors.py

Writes ``perfbench/anchors.json``.  The benchmark counts any run whose
output or modeled cycles differ from these anchors as failed, so a change
to the cost model or to a program must come with regenerated anchors.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.machine.session import CaratSession, RunConfig  # noqa: E402
from repro.workloads.suite import get_workload, workload_names  # noqa: E402

from workloads import (  # noqa: E402
    ANCHORS_PATH,
    HPC_PROGRAMS,
    ORACLE_ENGINE,
    VARIANTS,
    digest,
    make_soak_runner,
    safety_config,
    safety_sources,
    soak_modeled,
    soak_tenant_source,
)


def _run(source: str, config: RunConfig):
    return CaratSession(config).run(source)


def _programs(names, scale: str) -> dict:
    section = {}
    for name in names:
        source = get_workload(name, scale).source
        carat = _run(source, RunConfig(engine=ORACLE_ENGINE, name=name))
        base = _run(
            source, RunConfig(engine=ORACLE_ENGINE, name=name, mode="baseline")
        )
        section[name] = {
            "output": digest(carat.output),
            "last_line": carat.output[-1] if carat.output else "",
            "cycles": carat.stats.cycles,
            "baseline_cycles": base.stats.cycles,
        }
        print(f"  {name}: {carat.stats.cycles} cycles", flush=True)
    return section


def record_cold_suite() -> dict:
    return _programs(workload_names(), "tiny")


def record_hpc_warm() -> dict:
    return _programs(HPC_PROGRAMS, "small")


def _safety_entry(name: str, source: str) -> dict:
    plain = _run(source, safety_config(name, ORACLE_ENGINE, False))
    safe = _run(source, safety_config(name, ORACLE_ENGINE, True))
    print(f"  {name}: {safe.stats.cycles} safety cycles", flush=True)
    return {
        "output": digest(plain.output),
        "last_line": plain.output[-1] if plain.output else "",
        "plain_cycles": plain.stats.cycles,
        "safety_cycles": safe.stats.cycles,
    }


def record_safety_dma() -> dict:
    section: dict = {"kvservice": {}}
    for variant in range(VARIANTS):
        sources = safety_sources(variant)
        if variant == 0:
            for name, source in sources.items():
                if name != "kvservice":
                    section[name] = _safety_entry(name, source)
        section["kvservice"][str(variant)] = _safety_entry(
            "kvservice", sources["kvservice"]
        )
    return section


def record_kv_soak() -> dict:
    section = {}
    for variant in range(VARIANTS):
        baseline = _run(
            soak_tenant_source(variant),
            RunConfig(
                engine=ORACLE_ENGINE, name="kvservice", mode="baseline",
                heap_size=64 * 1024,
            ),
        )
        runner = make_soak_runner(variant, ORACLE_ENGINE)
        report = runner.run()
        entry = soak_modeled(runner, report, baseline.stats.cycles)
        entry.update({
            "baseline_cycles": baseline.stats.cycles,
            "ok": report.ok,
            "requests": report.requests_completed,
            "latency_samples": report.latency_samples,
            "tenants": [
                {
                    "output": digest(tenant.interpreter.output),
                    "cycles": tenant.interpreter.stats.cycles,
                }
                for tenant in runner.scheduler.tenants
            ],
        })
        print(f"  variant {variant}: ok={report.ok} {entry}", flush=True)
        section[str(variant)] = entry
    return section


RECORDERS = {
    "cold-suite": record_cold_suite,
    "hpc-warm": record_hpc_warm,
    "safety-dma": record_safety_dma,
    "kv-soak": record_kv_soak,
}


def main() -> None:
    anchors = {"engine": ORACLE_ENGINE, "variants": VARIANTS}
    for name, record in sorted(RECORDERS.items()):
        print(f"{name}:", flush=True)
        anchors[name] = record()
    ANCHORS_PATH.write_text(
        json.dumps(anchors, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
