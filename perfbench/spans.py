"""Host-clock spans around the calls into each layer's public functions.

The traced run wraps, from outside the program, the functions listed in
:data:`SPANS` for the duration of a ``with LayerTracer().active():``
block, then restores them.  Every call becomes a span (name, start, end,
parent); a span's *self time* is its duration minus the time its child
spans cover, so the self times of all spans plus the root's partition
the traced region exactly.  Counts come from the public stats objects of
the interpreters and kernels the region created (collected by the
``__init__`` spans) after the region ends.

Methods are patched on their classes before any instance exists, so the
bound methods the engines capture at construction (guard entry points,
the heat tracker's access probe) are the wrappers too.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import repro.carat.pipeline as pipeline
import repro.ir.verifier as verifier
import repro.kernel.kernel as kernel_mod
import repro.machine.session as session
import repro.multiproc.scheduler as scheduler_mod
import repro.transform.pass_manager as pass_manager
from repro.agents.mediator import AgentMediator
from repro.kernel.kernel import Kernel
from repro.machine.fastexec import FastInterpreter
from repro.machine.interp import Interpreter
from repro.machine.tracejit import TraceInterpreter
from repro.multiproc.arbiter import FairnessArbiter
from repro.multiproc.scheduler import Scheduler, percentile
from repro.policy.compaction import CompactionDaemon
from repro.policy.engine import PolicyEngine
from repro.policy.heat import HeatTracker
from repro.policy.tiering import TieringBalancer
from repro.runtime.allocation_table import AllocationTable
from repro.runtime.escape_map import AllocationToEscapeMap
from repro.runtime.patching import Patcher
from repro.runtime.runtime import CaratRuntime
from repro.runtime.safety import SafetyChecker
from repro.sanitizer.hooks import Sanitizer
from repro.soak.runner import SoakRunner

#: Span name -> the (owner, attribute) pairs whose calls it times.  A
#: function imported by name into another module is patched where it is
#: looked up, so each such module is listed.
SPANS: Dict[str, List[Tuple[object, str]]] = {
    "frontend": [(pipeline, "compile_source")],
    "transform": [(pipeline, "optimize_module")],
    "ir.verify": [
        (pipeline, "verify_module"),
        (pass_manager, "verify_module"),
        (verifier, "verify_module"),
    ],
    "carat.pipeline": [
        (pipeline, "compile_carat"),
        (session, "compile_carat"),
        (session, "compile_baseline"),
        (scheduler_mod, "compile_carat"),
    ],
    "carat.restrictions": [(pipeline, "check_restrictions")],
    "carat.tracking": [(pipeline, "inject_tracking")],
    "carat.guards": [(pipeline, "inject_guards")],
    "carat.guard_opt": [(pipeline, "optimize_guards")],
    "carat.signing": [(pipeline, "sign_module")],
    "kernel.boot": [(Kernel, "__init__")],
    "kernel.load": [(Kernel, "load_carat"), (Kernel, "load_traditional")],
    "kernel.move": [
        (Kernel, "request_page_move"),
        (Kernel, "request_allocation_move"),
    ],
    "machine.session": [(session.CaratSession, "run")],
    "machine.init": [
        (Interpreter, "__init__"),
        (FastInterpreter, "__init__"),
        (TraceInterpreter, "__init__"),
    ],
    "machine.run": [
        (Interpreter, "run_steps"),
        (FastInterpreter, "run_steps"),
        (TraceInterpreter, "run_steps"),
    ],
    "runtime.guard_slow": [
        (CaratRuntime, "guard_access"),
        (CaratRuntime, "guard_range"),
        (CaratRuntime, "guard_call"),
    ],
    "runtime.table_lookup": [
        (AllocationTable, "find_containing"),
        (AllocationTable, "at"),
        (AllocationTable, "overlapping"),
    ],
    "runtime.safety": [
        (SafetyChecker, "scan"),
        (SafetyChecker, "note_alloc"),
        (SafetyChecker, "note_free"),
    ],
    "runtime.tracking": [
        (CaratRuntime, "on_alloc"),
        (CaratRuntime, "on_free"),
        (CaratRuntime, "on_escape"),
        (CaratRuntime, "flush_escapes"),
    ],
    "runtime.footprint_scan": [
        (AllocationToEscapeMap, "memory_footprint_bytes"),
    ],
    "runtime.patch": [
        (Patcher, "execute_move"),
        (Patcher, "move_allocation"),
        (Patcher, "move_pages"),
    ],
    "policy.heat_observe": [(HeatTracker, "observe")],
    "policy.epoch": [
        (PolicyEngine, "run_epoch"),
        (HeatTracker, "end_epoch"),
        (CompactionDaemon, "run_epoch"),
        (TieringBalancer, "run_epoch"),
    ],
    "resilience.txn": [(kernel_mod, "drive_transaction")],
    "multiproc.round": [(Scheduler, "step_round")],
    "multiproc.arbiter": [(FairnessArbiter, "on_round")],
    "soak.epoch": [(SoakRunner, "run")],
    "sanitizer.check": [(Sanitizer, "check_now"), (Sanitizer, "finish")],
    "agents.step": [(AgentMediator, "step")],
}

#: The layers (``src/repro`` packages) spans are attributed to; the
#: ``analysis`` package runs inside the ``carat`` passes.
LAYERS = (
    "frontend", "ir", "transform", "carat", "kernel", "machine", "runtime",
    "policy", "resilience", "multiproc", "soak", "sanitizer", "agents",
)

#: Counts read from stats objects after the traced region.
COUNTS = (
    "frontend.ir_insts",
    "transform.ir_delta",
    "carat.guards.remaining",
    "machine.instructions",
    "machine.traces_compiled",
    "machine.trace_exits_per_kinst",
    "machine.guard_specialized_share",
    "machine.cycles.guard_share",
    "machine.cycles.tracking_share",
    "machine.cycles.tier_share",
    "runtime.guards_executed",
    "runtime.guard_cycles",
    "runtime.tracking_events",
    "runtime.escapes_recorded",
    "runtime.escapes_rewritten",
    "sanitizer.checks",
    "kernel.moves.attempted",
    "kernel.moves.committed",
    "kernel.moves.rolled_back",
    "kernel.moves.degraded",
    "kernel.move_cycles",
    "kernel.pause_p95_cycles",
    "resilience.retries",
    "resilience.backoff_cycles",
    "agents.bytes_streamed",
)

#: Whole-region figures of the traced run itself.
TRACE_FIGURES = (
    "trace.total_s",
    "trace.untraced_s",
    "trace.overhead_s",
    "trace.coverage",
    "bench.self_s",
    "machine.codegen_s",
)

#: Spans kept individually for the written trace; the aggregates are
#: exact regardless, later spans are only counted as dropped.
SPAN_CAP = 50_000


def metric_names() -> List[str]:
    """Every per-layer metric the traced run reports, in order."""
    names: List[str] = []
    for span in SPANS:
        names += [f"{span}.self_s", f"{span}.calls"]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names += list(COUNTS) + list(TRACE_FIGURES)
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_cycles"):
        return "cycles"
    if name.endswith(("_share", ".coverage")):
        return "share"
    if name.endswith("_per_kinst"):
        return "1/kinst"
    if name == "agents.bytes_streamed":
        return "bytes"
    return "count"


class LayerTracer:
    """Collects spans while :meth:`active` is entered; see module doc."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.calls: Dict[str, int] = {name: 0 for name in SPANS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        self.total_s = 0.0
        self.root_self_s = 0.0
        self.ir_insts = 0
        self.ir_delta = 0
        self.guards_remaining = 0
        self.interpreters: Dict[int, Interpreter] = {}
        self.kernels: Dict[int, Kernel] = {}
        self.sanitizers: Dict[int, Sanitizer] = {}
        # Open spans: [span id, child seconds, name].  The root is id 0.
        self._stack: List[list] = []
        self._next_id = 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[2] == name:
                # A subclass method calling its base: one span, not two.
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end, parent[0]))
                else:
                    self.dropped += 1

        return wrapper

    def _observe(self, name: str, fn):
        """Per-span side collection, done outside the span's timing."""
        if name == "frontend":
            def frontend(*args, **kwargs):
                module = fn(*args, **kwargs)
                self.ir_insts += pass_manager.module_instruction_count(module)
                return module
            return frontend
        if name == "transform":
            def transform(module, *args, **kwargs):
                before = pass_manager.module_instruction_count(module)
                result = fn(module, *args, **kwargs)
                self.ir_delta += (
                    pass_manager.module_instruction_count(module) - before
                )
                return result
            return transform
        if name == "carat.pipeline" and fn.__name__ == "compile_carat":
            def compile_carat(*args, **kwargs):
                binary = fn(*args, **kwargs)
                if binary.options.guards:
                    self.guards_remaining += binary.guard_stats.remaining
                return binary
            return compile_carat
        registry = {
            "kernel.boot": self.kernels,
            "machine.init": self.interpreters,
            "sanitizer.check": self.sanitizers,
        }.get(name)
        if registry is not None:
            def collect(instance, *args, **kwargs):
                registry[id(instance)] = instance
                return fn(instance, *args, **kwargs)
            return collect
        return fn

    @contextmanager
    def active(self) -> Iterator["LayerTracer"]:
        """Patch every span point, time the region, restore on exit."""
        saved = []
        for name, points in SPANS.items():
            for owner, attr in points:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                timed = self._wrap(name, original)
                setattr(owner, attr, self._observe(name, timed))
        root = [0, 0.0, "bench"]
        self._stack.append(root)
        start = time.perf_counter()
        try:
            yield self
        finally:
            region = time.perf_counter() - start
            self._stack.pop()
            self.total_s += region
            self.root_self_s += region - root[1]
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def counts(self) -> Dict[str, float]:
        """Counts from the stats objects the traced region created."""
        interps = list(self.interpreters.values())
        runtimes = {
            id(i.process.runtime): i.process.runtime
            for i in interps
            if i.process.runtime is not None
        }.values()
        stats = [i.stats for i in interps]
        kstats = [k.stats for k in self.kernels.values()]
        instructions = sum(s.instructions for s in stats)
        cycles = sum(s.cycles for s in stats)
        guards = sum(r.stats.guards_executed for r in runtimes)
        pauses = [
            p
            for k in self.kernels.values()
            for log in k.pause_log.values()
            for p in log
        ]
        streamed = sum(
            getattr(client, "bytes_streamed", 0)
            for k in self.kernels.values()
            if k.agents is not None
            for client in k.agents.clients.values()
        )

        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        return {
            "frontend.ir_insts": self.ir_insts,
            "transform.ir_delta": self.ir_delta,
            "carat.guards.remaining": self.guards_remaining,
            "machine.instructions": instructions,
            "machine.traces_compiled": sum(s.traces_compiled for s in stats),
            "machine.trace_exits_per_kinst": 1000.0 * share(
                sum(s.trace_exits for s in stats), instructions
            ),
            "machine.guard_specialized_share": share(
                sum(s.guard_checks_elided for s in stats), guards
            ),
            "machine.cycles.guard_share": share(
                sum(s.guard_cycles for s in stats), cycles
            ),
            "machine.cycles.tracking_share": share(
                sum(s.tracking_cycles for s in stats), cycles
            ),
            "machine.cycles.tier_share": share(
                sum(s.tier_cycles for s in stats), cycles
            ),
            "runtime.guards_executed": guards,
            "runtime.guard_cycles": sum(r.stats.guard_cycles for r in runtimes),
            "runtime.tracking_events": sum(
                r.stats.tracking_events for r in runtimes
            ),
            "runtime.escapes_recorded": sum(
                r.escapes.stats.recorded for r in runtimes
            ),
            "runtime.escapes_rewritten": sum(
                r.escapes.stats.rewritten for r in runtimes
            ),
            "sanitizer.checks": sum(
                s.checks_run for s in self.sanitizers.values()
            ),
            "kernel.moves.attempted": sum(k.moves_attempted for k in kstats),
            "kernel.moves.committed": sum(k.moves_committed for k in kstats),
            "kernel.moves.rolled_back": sum(
                k.moves_rolled_back for k in kstats
            ),
            "kernel.moves.degraded": sum(k.moves_degraded for k in kstats),
            "kernel.move_cycles": sum(k.move_cycles for k in kstats),
            "kernel.pause_p95_cycles": percentile(pauses, 0.95),
            "resilience.retries": sum(k.move_retries for k in kstats),
            "resilience.backoff_cycles": sum(k.backoff_cycles for k in kstats),
            "agents.bytes_streamed": streamed,
        }

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def write(self, path: Path) -> None:
        """Write the kept spans (Chrome trace-event format, microseconds)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "dropped": self.dropped}) + "\n"
        )
