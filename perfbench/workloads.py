"""The benchmark's four workloads and the oracle they are checked against.

Each workload turns a seed into inputs, sets up (compile, kernel boot and
load, where they happen before the timed region), optionally warms up
untimed, and then runs *passes*.  A pass returns its host CPU seconds,
the simulated instructions it retired, the operations it completed and its
modeled figures.  Modeled figures are the paper's cycles: they must be
the same in every pass and every run of one seed.

Every program result is checked against ``anchors.json``: the output and
modeled cycles the reference engine produced for the same input.  The
reference engine is the oracle and never the engine under test.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import repro.soak.runner as soak_runner
from repro.carat import pipeline
from repro.errors import SafetyFault
from repro.machine.session import CaratSession, RunConfig
from repro.multiproc.scheduler import percentile
from repro.workloads.adversarial import (
    EXPECTED_KINDS,
    adversarial_names,
    adversarial_workload,
)
from repro.workloads.service import service_source
from repro.workloads.suite import get_workload, workload_names

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ANCHORS_PATH = HERE / "anchors.json"
OUT_DIR = HERE / "out"

#: The engine under test, and the independent oracle the anchors come from.
ENGINE = "trace"
ORACLE_ENGINE = "reference"

#: A seed selects one of this many input variants (``seed % VARIANTS``);
#: ``anchors.json`` holds the oracle's results for every one of them.
VARIANTS = 8

HPC_PROGRAMS = ("hpccg", "cg", "ep", "ft", "lu", "lbm", "namd", "streamcluster")
SAFETY_PROGRAMS = ("hpccg", "cg", "kvservice", "dmastream")

#: kvservice's ``small`` tier, used by safety-dma with a seeded LCG.
SAFETY_REQUESTS = 2_000
#: 440 per-tenant epoch latency samples at ``repro soak``'s 25 rounds
#: per epoch.  The p95 of a sample is a step between clusters (epochs a
#: move pause hit once, twice, ...), and at 24,000 requests (220 samples)
#: one chaos draw in eight put it a cluster higher, 39% above the rest.
#: At this size all eight draws land within 2% of one another.
SOAK_REQUESTS = 48_000
SOAK_TENANTS = 4
#: Scheduler rounds between calibration slices (~2,800 rounds a soak).
SOAK_ROUNDS_PER_CALL = 32


def service_seed(variant: int) -> int:
    """The service LCG seed (``service_source``'s default is 17)."""
    return 17 + variant


def chaos_seed(variant: int) -> int:
    """The chaos seed (``repro soak``'s default is 77)."""
    return 77 + variant


def soak_config(variant: int, engine: str) -> RunConfig:
    """The ``repro soak`` defaults for 4 tenants with chaos at rate 2:
    quantum 1000, 25 rounds per epoch, 64 KiB heaps, serial moves."""
    return RunConfig(
        mode="carat",
        engine=engine,
        name="kvservice",
        quantum=1000,
        heap_size=64 * 1024,
        soak_requests=SOAK_REQUESTS,
        soak_tenants=SOAK_TENANTS,
        soak_rounds_per_epoch=25,
        chaos_rate=2.0,
        chaos_seed=chaos_seed(variant),
    )


def soak_tenant_source(variant: int) -> str:
    """The program each soak tenant runs (SoakRunner's own parameters)."""
    return service_source(
        -(-SOAK_REQUESTS // SOAK_TENANTS), seed=service_seed(variant)
    )


def make_soak_runner(variant: int, engine: str) -> soak_runner.SoakRunner:
    """A SoakRunner whose tenants run :func:`soak_tenant_source`.

    SoakRunner builds its tenants' source itself and takes no LCG seed,
    so the seed is bound into the generator it calls while it is built.
    """
    generator = soak_runner.service_source
    soak_runner.service_source = functools.partial(
        generator, seed=service_seed(variant)
    )
    try:
        return soak_runner.SoakRunner(
            soak_config(variant, engine),
            crash_dump_path=str(OUT_DIR / f"soak-crash-{engine}.json"),
        )
    finally:
        soak_runner.service_source = generator


def safety_sources(variant: int) -> Dict[str, str]:
    sources = {
        name: get_workload(name, "small").source
        for name in SAFETY_PROGRAMS
        if name != "kvservice"
    }
    sources["kvservice"] = service_source(
        SAFETY_REQUESTS, seed=service_seed(variant)
    )
    return sources


def safety_config(name: str, engine: str, safety: bool) -> RunConfig:
    return RunConfig(engine=engine, name=name, safety=safety, agents=1)


def cpu_clock() -> float:
    """Host CPU seconds used by this process and its finished children.
    Host-clock metrics use it rather than wall time, so that time other
    processes on a shared machine take stays out of the measurement."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def toolchain_import_s() -> float:
    """A fresh interpreter importing the toolchain: what every run, cold
    or warm, waits for before its first compile."""
    start = cpu_clock()
    subprocess.run(
        [
            sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import repro.machine.session, repro.soak.runner, "
            "repro.workloads.suite",
        ],
        check=True,
    )
    return cpu_clock() - start


class _Cell:
    __slots__ = ("key", "acc")

    def __init__(self, key: int) -> None:
        self.key = key
        self.acc = 0


def _calibration_step(cell: _Cell, table: Dict[int, int], i: int) -> int:
    cell.acc += table.get((i * 2654435761) & 8191, 1) ^ cell.key
    return cell.acc & 0xFFFF


class Calibrator:
    """How fast this host runs Python right now.

    A slice is a fixed piece of pure-Python work (calls, attribute and
    dict access, integer arithmetic) that no change to the program can
    alter.  Slices run between the benchmark's own steps, so their rate
    follows the host through the run.  On a shared host that rate moves
    by a factor of three from one quarter-hour to the next, with other
    tenants' load, and the program's speed moves with it, though less:
    between sets of runs at median slice rates from 49 to 166 per second,
    the program's speed went as the slice rate to a power of 0.66 to 0.93
    (median 0.82).  Host metrics are therefore reported for a nominal host that
    runs NOMINAL_RATE slices per CPU second: a rate measured over a phase
    of the run is multiplied by :meth:`speedup` of the slices taken in
    that phase, a time divided by it.  The measured rates are printed
    with every result.
    """

    NOMINAL_RATE = 75.0
    EXPONENT = 0.8
    STEPS = 20_000

    def __init__(self) -> None:
        self.slices = 0
        self.seconds = 0.0
        # Working sets larger than the first-level caches, as the
        # engines' frames, tables and closures are.
        self._table = {k: k * k for k in range(8192)}
        self._cells = [_Cell(k) for k in range(4096)]

    def slice(self, count: int = 1) -> None:
        table, cells, step = self._table, self._cells, _calibration_step
        start = cpu_clock()
        for _ in range(count):
            for i in range(self.STEPS):
                step(cells[(i * 40503) & 4095], table, i)
        self.seconds += cpu_clock() - start
        self.slices += count

    def mark(self) -> Tuple[int, float]:
        """Where a phase of the run starts, for :meth:`rate`."""
        return self.slices, self.seconds

    def rate(self, since: Tuple[int, float] = (0, 0.0)) -> float:
        """Slices per CPU second since ``since``."""
        return (self.slices - since[0]) / (self.seconds - since[1])

    def speedup(self, since: Tuple[int, float] = (0, 0.0)) -> float:
        """The nominal host's speed relative to this one since ``since``."""
        return (self.NOMINAL_RATE / self.rate(since)) ** self.EXPONENT


def _no_calibration() -> None:
    """Calibrator.slice where nothing is calibrated (the traced run)."""


def digest(output: List[str]) -> str:
    return hashlib.sha256("\n".join(output).encode()).hexdigest()


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load_anchors() -> dict:
    return json.loads(ANCHORS_PATH.read_text())


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------


class Check:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def expect(self, ok: bool, reason: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.reasons.append(reason)
        return ok

    def run_matches(self, label: str, result, anchor: dict, cycles: int) -> bool:
        """Exit code, output and modeled cycles against the oracle."""
        problems = []
        if result.exit_code != 0:
            problems.append(f"exit {result.exit_code}")
        if digest(result.output) != anchor["output"]:
            problems.append("output differs")
        if result.stats.cycles != cycles:
            problems.append(f"cycles {result.stats.cycles} != {cycles}")
        return self.expect(not problems, f"{label}: {', '.join(problems)}")

    def crashed(self, label: str, weight: int = 1) -> None:
        self.expect(False, f"{label}: {traceback.format_exc(limit=3)}", weight)


@dataclass
class Pass:
    seconds: float
    instructions: int
    ops: int
    #: Modeled figures: identical in every pass of one seed.
    modeled: Dict[str, float]
    #: Host CPU seconds per operation, where operations are whole programs.
    op_seconds: List[float] = field(default_factory=list)


@dataclass
class Inputs:
    seed: int
    variant: int
    order: List[str]


@dataclass
class ProgramRun:
    """One program run and what the oracle says it must produce."""

    label: str
    #: Source text, or a binary compiled in set-up.
    program: object
    config: RunConfig
    anchor: dict
    #: The modeled cycles the run must take.
    cycles: int
    #: Cycles of the same program without the feature the workload
    #: measures (CARAT, or safety mode): the overhead ratio's base.
    base: int


@dataclass
class Plan:
    runs: List[ProgramRun]
    #: Untimed runs before the passes: they fill the code cache and check
    #: the base configuration against the oracle.
    warm: List[ProgramRun] = field(default_factory=list)


def run_programs(
    runs: List[ProgramRun], check: Check, between, collect: bool = False
) -> Pass:
    """Run and check each program; a pass's figures over all of them.
    ``between`` runs before each program, outside the pass's time.  So
    does a full garbage collection if ``collect``, so that each program
    starts from the same heap whatever ran before it: peak memory and
    host time then do not depend on the seed's program order."""
    cycles, base, op_seconds, instructions = [], [], [], 0
    for run in runs:
        if collect:
            gc.collect()
        between()
        began = cpu_clock()
        try:
            result = CaratSession(run.config).run(run.program)
        except Exception:
            # A fault on a clean program, a false positive included.
            check.crashed(run.label)
            continue
        op_seconds.append(cpu_clock() - began)
        check.run_matches(run.label, result, run.anchor, run.cycles)
        instructions += result.stats.instructions
        cycles.append(result.stats.cycles)
        base.append(run.base)
    seconds = sum(op_seconds)
    modeled = {}
    if cycles:
        modeled = {
            "overhead_x": geomean([c / b for c, b in zip(cycles, base)]),
            "op_p50_cycles": percentile(cycles, 0.50),
            "op_p95_cycles": percentile(cycles, 0.95),
            "ops_per_kcycle": 1000.0 * len(cycles) / sum(cycles),
        }
    return Pass(seconds, instructions, len(cycles), modeled, op_seconds)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """A program workload: set-up returns a :class:`Plan`."""

    name = ""
    scale = "small"
    programs: Tuple[str, ...] = ()

    def __init__(
        self, anchors: dict, between=_no_calibration, collect: bool = False
    ) -> None:
        self.anchors = anchors[self.name]
        #: Called between programs (and soak rounds), outside pass times.
        self.between = between
        #: Collect garbage before each program and soak pass, untimed.
        #: Timed runs only: in the traced run it would fall outside every
        #: layer span.
        self.collect = collect

    def inputs(self, seed: int) -> Inputs:
        order = list(self.programs)
        random.Random(seed).shuffle(order)
        return Inputs(seed, seed % VARIANTS, order)

    def setup(self, inputs: Inputs):
        raise NotImplementedError

    def warm(self, state, check: Check) -> None:
        """Untimed work between set-up and the timed passes."""
        run_programs(state.warm, check, self.between, self.collect)

    def run_pass(self, state, check: Check) -> Pass:
        return run_programs(state.runs, check, self.between, self.collect)

    def finish(self, state, check: Check) -> None:
        """Untimed checks after the timed passes."""

    def probe(self, inputs: Inputs) -> List[Tuple[str, str, RunConfig]]:
        """(name, source, config) of each program, in run order; also
        what the cold-minus-warm codegen probe runs."""
        raise NotImplementedError


class ColdSuite(Workload):
    """All 25 registered programs compiled fresh from source and run at
    tiny scale: the compile-bound path (frontend, CARAT passes, verifier,
    kernel load, tier codegen).  At small scale compile is ~5% of a run,
    so tiny keeps it visible.  Policy, moves and soak are idle."""

    name = "cold-suite"
    programs = tuple(workload_names())
    scale = "tiny"

    def setup(self, inputs: Inputs) -> Plan:
        runs = []
        for name, source, config in self.probe(inputs):
            anchor = self.anchors[name]
            runs.append(ProgramRun(
                name, source, config, anchor,
                anchor["cycles"], anchor["baseline_cycles"],
            ))
        return Plan(runs)

    def probe(self, inputs: Inputs):
        return [
            (n, get_workload(n, "tiny").source, RunConfig(engine=ENGINE, name=n))
            for n in inputs.order
        ]


class HpcWarm(Workload):
    """Eight HPC kernels at small scale, precompiled, with a warm code
    cache: execution and specialized guards are nearly all the host
    time, and few tracking events occur.  Compile, tracking and policy
    are bypassed, so changes there should leave this workload alone."""

    name = "hpc-warm"
    programs = HPC_PROGRAMS

    def setup(self, inputs: Inputs) -> Plan:
        plan = Plan([])
        for name, source, config in self.probe(inputs):
            anchor = self.anchors[name]
            carat = ProgramRun(
                name, pipeline.compile_carat(source, module_name=name),
                config, anchor, anchor["cycles"], anchor["baseline_cycles"],
            )
            baseline = ProgramRun(
                f"{name} baseline",
                pipeline.compile_baseline(source, module_name=name),
                config.replace(mode="baseline"), anchor,
                anchor["baseline_cycles"], anchor["baseline_cycles"],
            )
            plan.runs.append(carat)
            plan.warm += [carat, baseline]
        return plan

    def probe(self, inputs: Inputs):
        return [
            (n, get_workload(n, "small").source, RunConfig(engine=ENGINE, name=n))
            for n in inputs.order
        ]


class KvSoak(Workload):
    """SoakRunner with four kvservice tenants, seeded chaos at rate 2, the
    96 KiB fast tier and sanitizer checkpoints, with serial moves as
    ``repro soak`` runs it.  Closed loop: a tenant serves its next request
    only after the previous one completes.  This is the service path:
    tracking, the allocation table, heat, compaction and tiering moves,
    transactions, the scheduler and the arbiter.  Few of its guards are
    specialized, unlike hpc-warm's."""

    name = "kv-soak"
    programs = ("kvservice",)
    scale = f"{SOAK_REQUESTS} requests"

    def setup(self, inputs: Inputs):
        runner = make_soak_runner(inputs.variant, ENGINE)
        runner.scheduler.start()
        return {"variant": inputs.variant, "runner": runner}

    def warm(self, state, check: Check) -> None:
        """Nothing to warm: each pass boots its own machine, as
        ``repro soak`` does."""

    def _between_rounds(self, scheduler) -> List[float]:
        """Call ``between`` every SOAK_ROUNDS_PER_CALL scheduler rounds;
        the returned cell accumulates the seconds spent in it."""
        spent = [0.0]
        if self.between is _no_calibration:
            return spent
        step_round = scheduler.step_round
        rounds = [0]

        def step() -> bool:
            rounds[0] += 1
            if rounds[0] % SOAK_ROUNDS_PER_CALL == 0:
                began = cpu_clock()
                self.between()
                spent[0] += cpu_clock() - began
            return step_round()

        scheduler.step_round = step
        return spent

    def run_pass(self, state, check: Check) -> Pass:
        runner = state.pop("runner", None)
        if runner is None:
            runner = make_soak_runner(state["variant"], ENGINE)
            runner.scheduler.start()
        anchor = self.anchors[str(state["variant"])]
        between = self._between_rounds(runner.scheduler)
        if self.collect:
            gc.collect()
        start = cpu_clock()
        try:
            report = runner.run()
        except Exception:
            check.crashed("soak", SOAK_REQUESTS)
            return Pass(cpu_clock() - start - between[0], 0, 0, {})
        seconds = cpu_clock() - start - between[0]
        modeled = soak_modeled(runner, report, anchor["baseline_cycles"])
        drift = {
            key: (modeled[key], anchor[key])
            for key in ("op_p50_cycles", "op_p95_cycles", "ops_per_kcycle",
                        "pause_p95_cycles")
            if modeled[key] != anchor[key]
        }
        # A verdict, an unfinished run or modeled drift fails every request.
        soak_problems = [f"verdict {v['name']}" for v in report.verdicts]
        if not report.completed_run:
            soak_problems.append("run did not complete")
        if drift:
            soak_problems.append(f"modeled drift {drift}")
        per_tenant = runner.requests_per_tenant
        tenants = list(report.tenants.values())
        for index, expected in enumerate(anchor["tenants"]):
            if index >= len(tenants):
                check.expect(False, f"tenant {index}: missing", per_tenant)
                continue
            tenant = tenants[index]
            output = runner.scheduler.tenants[index].interpreter.output
            problems = list(soak_problems)
            if tenant["exit_code"] != 0:
                problems.append(f"exit {tenant['exit_code']}")
            if digest(output) != expected["output"]:
                problems.append("output differs")
            if tenant["cycles"] != expected["cycles"]:
                problems.append(
                    f"cycles {tenant['cycles']} != {expected['cycles']}"
                )
            if tenant["completed"] != per_tenant:
                problems.append(f"served {tenant['completed']}/{per_tenant}")
            check.expect(
                not problems, f"tenant {index}: {', '.join(problems)}",
                per_tenant,
            )
        del modeled["pause_p95_cycles"]
        instructions = sum(t["instructions"] for t in tenants)
        return Pass(seconds, instructions, report.requests_completed, modeled)

    def probe(self, inputs: Inputs):
        return [(
            "kvservice",
            soak_tenant_source(inputs.variant),
            RunConfig(engine=ENGINE, name="kvservice", heap_size=64 * 1024),
        )]


def soak_modeled(runner, report, baseline_cycles: int) -> Dict[str, float]:
    """The soak's modeled figures (also what the anchors record).

    ``overhead_x`` is CARAT's instrumentation overhead: each tenant's
    cycles less the move pauses and tier cycles charged to it, over the
    uninstrumented program's cycles.  Memory-management costs depend on
    the chaos draw and show in ``ops_per_kcycle``, the latency tail and
    the per-layer move counts instead.
    """
    kernel = runner.scheduler.kernel
    latencies = runner.monitor.latencies
    pauses = [p for log in kernel.pause_log.values() for p in log]
    instrumented = [
        tenant.interpreter.stats.cycles
        - tenant.interpreter.stats.tier_cycles
        - sum(kernel.pause_log.get(tenant.process.pid, []))
        for tenant in runner.scheduler.tenants
    ]
    return {
        "overhead_x": geomean([c / baseline_cycles for c in instrumented]),
        "op_p50_cycles": percentile(latencies, 0.50),
        "op_p95_cycles": percentile(latencies, 0.95),
        "ops_per_kcycle": report.throughput_rpkc(),
        "pause_p95_cycles": percentile(pauses, 0.95),
    }


class SafetyDma(Workload):
    """hpccg, cg, kvservice and dmastream, precompiled, in safety mode with
    one DMA agent per process; the four planted bugs must each raise
    SafetyFault.  Guards run the liveness oracle here, and allocation-table
    probes and agent leases are measured nowhere else."""

    name = "safety-dma"
    programs = SAFETY_PROGRAMS

    def setup(self, inputs: Inputs) -> Plan:
        plan = Plan([])
        for name, source, config in self.probe(inputs):
            anchor = self.anchors[name]
            if name == "kvservice":
                anchor = anchor[str(inputs.variant)]
            binary = pipeline.compile_carat(source, module_name=name)
            plan.runs.append(ProgramRun(
                name, binary, config, anchor,
                anchor["safety_cycles"], anchor["plain_cycles"],
            ))
            plan.warm.append(ProgramRun(
                f"{name} plain", binary, config.replace(safety=False), anchor,
                anchor["plain_cycles"], anchor["plain_cycles"],
            ))
        return plan

    def finish(self, state, check: Check) -> None:
        """Each planted bug must raise SafetyFault of its expected kind."""
        for name in adversarial_names():
            source = adversarial_workload(name, "tiny").source
            try:
                CaratSession(safety_config(name, ENGINE, True)).run(source)
            except SafetyFault as fault:
                kind = fault.violation.kind
                check.expect(
                    kind == EXPECTED_KINDS[name],
                    f"{name}: {kind} instead of {EXPECTED_KINDS[name]}",
                )
                continue
            except Exception:
                check.crashed(name)
                continue
            check.expect(False, f"{name}: planted bug went undetected")

    def probe(self, inputs: Inputs):
        sources = safety_sources(inputs.variant)
        return [
            (n, sources[n], safety_config(n, ENGINE, True))
            for n in inputs.order
        ]


WORKLOADS = {w.name: w for w in (ColdSuite, HpcWarm, KvSoak, SafetyDma)}


def codegen_probe(items: List[Tuple[str, str, RunConfig]]) -> float:
    """Cold run minus warm run of each freshly compiled binary, summed:
    the host time the engine spends generating code."""
    total = 0.0
    for _, source, config in items:
        binary = pipeline.compile_carat(source, module_name=config.name)
        times = []
        for _ in range(2):
            start = cpu_clock()
            try:
                CaratSession(config).run(binary)
            except Exception:
                # The timed runs already count this program's failure.
                return total
            times.append(cpu_clock() - start)
        total += times[0] - times[1]
    return total

