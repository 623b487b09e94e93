"""Targeted tests for the trace tier (:mod:`repro.machine.tracejit`).

The differential suite (``test_fastexec_differential``,
``test_fault_campaign``, ``test_multiproc``) proves the trace engine is
observably the reference engine; this file tests the tier's own
machinery — promotion thresholds, side exits, recording aborts and the
blacklist, guard respecialization on region-generation bumps (and the
detail level its trace events need), the new counters, per-interpreter
isolation of compiled traces, and return traces.
"""

import pytest

from repro.carat.pipeline import CompileOptions, compile_carat
from repro.errors import ProtectionFault
from repro.ir.instructions import ReturnInst
from repro.kernel import PAGE_SIZE, Kernel
from tests.support import run_carat
from repro.machine.session import CaratSession, RunConfig
from repro.machine.tracejit import _RETURN
from repro.telemetry.metrics import run_snapshot
from repro.workloads import get_workload

#: A nested hot loop over heap memory — the bread-and-butter promotion
#: case: the inner loop's back-edge target gets hot and its body (loads,
#: arithmetic, compare, branch) compiles into one superblock.  The
#: permuted index ``(i * 7) % 64`` defeats the static affine-range
#: merge (guard_opt Opt2), so the load guard stays inside the loop and
#: exercises per-site specialization; the permutation sums the same
#: elements, keeping the expected output easy to state.
HOT_SOURCE = """
void main() {
  long *a = (long*)malloc(64 * 8);
  long i;
  long r;
  long acc;
  acc = 0;
  for (i = 0; i < 64; i++) { a[i] = i * 3; }
  for (r = 0; r < 30; r++) {
    for (i = 0; i < 64; i++) { acc = acc + a[(i * 7) % 64]; }
  }
  print_long(acc);
  free(a);
}
"""
HOT_OUTPUT = [str(3 * (63 * 64 // 2) * 30)]

#: A loop whose uncommon arm (every 10th iteration) is off-trace: the
#: superblock records the common arm, so one side exit per multiple of
#: ten re-enters the block tier mid-loop.
BRANCHY_SOURCE = """
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 400; i++) {
    if (i % 10 == 0) { acc = acc + 100; } else { acc = acc + 1; }
  }
  print_long(acc);
}
"""
BRANCHY_OUTPUT = [str(40 * 100 + 360)]

#: A hot loop whose body calls a defined function: the superblock spans
#: the call — the block tier's call op pushes the real frame and the
#: callee's body inlines right behind it on the trace.
CALLY_SOURCE = """
long helper(long x) { return x + 1; }
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 100; i++) { acc = helper(acc); }
  print_long(acc);
}
"""
CALLY_OUTPUT = ["100"]

#: Deep recursion in the loop body: recording hits the inline depth cap
#: on every attempt, so no trace compiles and the anchors blacklist.
RECURSIVE_SOURCE = """
long down(long n) {
  long r;
  if (n <= 0) { return 0; }
  r = down(n - 1);
  return r + 1;
}
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 50; i++) { acc = acc + down(40); }
  print_long(acc);
}
"""
RECURSIVE_OUTPUT = ["2000"]


#: A hot callee tail: main's loop trace records one arm of ``get``'s
#: branch, so every other call side-exits inside ``get`` and finishes in
#: the block tier — whose branch into the ``ret`` block makes that block
#: an anchor and compiles it into a return trace.  ``(i / LIMIT)`` turns
#: the load into a guard fault from iteration LIMIT on.
TAIL_SOURCE = """
long get(long *p, long i) {
  long s;
  if (i % 2 == 0) { s = 1; } else { s = 2; }
  return s + p[(i / LIMIT) * 100000000];
}
void main() {
  long *a = (long*)malloc(8 * 8);
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 8; i++) { a[i] = i; }
  for (i = 0; i < 200; i++) { acc = acc + get(a, i); }
  print_long(acc);
  free(a);
}
"""
TAIL_OUTPUT = [str(100 * 1 + 100 * 2)]

#: ``main`` returns through a branch-entered block, so at threshold 1 the
#: block anchors a recording that is still open when ``main``'s own
#: ``ret`` ends the program.
MAIN_RET_SOURCE = """
long main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 40; i++) { acc = acc + i; }
  if (acc > 100) { acc = acc % 97; }
  return acc;
}
"""
MAIN_RET_EXIT = (39 * 40 // 2) % 97


def _run(source, engine="trace", threshold=2, max_blocks=24, **kwargs):
    def setup(interpreter):
        if hasattr(interpreter, "set_trace_tuning"):
            interpreter.set_trace_tuning(
                threshold=threshold, max_blocks=max_blocks
            )

    return run_carat(source, setup=setup, engine=engine, **kwargs)


# ---------------------------------------------------------------------------
# Promotion
# ---------------------------------------------------------------------------


class TestPromotion:
    def test_hot_loop_promotes_and_elides(self):
        result = _run(HOT_SOURCE)
        assert result.output == HOT_OUTPUT
        assert result.exit_code == 0
        assert result.stats.traces_compiled > 0
        # Specialized per-site guard checks served on the fast path.
        assert result.stats.guard_checks_elided > 0
        # Every compiled trace with specialized guards respecializes its
        # cells at least once (gen starts at -1, the first execution
        # resolves it against the live region map).
        assert result.stats.trace_respecializations > 0

    def test_trace_output_matches_reference(self):
        reference = run_carat(HOT_SOURCE, engine="reference")
        trace = _run(HOT_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions

    def test_cold_threshold_never_promotes(self):
        result = _run(HOT_SOURCE, threshold=10**9)
        assert result.output == HOT_OUTPUT
        assert result.stats.traces_compiled == 0
        assert result.stats.trace_exits == 0
        assert result.stats.guard_checks_elided == 0

    def test_fast_engine_keeps_trace_counters_zero(self):
        result = _run(HOT_SOURCE, engine="fast")
        assert result.output == HOT_OUTPUT
        assert result.stats.traces_compiled == 0
        assert result.stats.trace_exits == 0
        assert result.stats.trace_respecializations == 0
        assert result.stats.guard_checks_elided == 0

    def test_max_blocks_caps_recording(self):
        # A one-block loop still fits in a one-block superblock; the cap
        # only rejects longer chains, so output and parity are unchanged.
        capped = _run(BRANCHY_SOURCE, max_blocks=1)
        roomy = _run(BRANCHY_SOURCE, max_blocks=24)
        assert capped.output == BRANCHY_OUTPUT
        assert roomy.output == BRANCHY_OUTPUT
        assert capped.stats.cycles == roomy.stats.cycles


# ---------------------------------------------------------------------------
# Side exits
# ---------------------------------------------------------------------------


class TestSideExits:
    def test_uncommon_arm_side_exits(self):
        result = _run(BRANCHY_SOURCE)
        assert result.output == BRANCHY_OUTPUT
        assert result.stats.traces_compiled > 0
        # ~40 of 400 iterations take the off-trace arm.
        assert result.stats.trace_exits > 0

    def test_side_exits_preserve_semantics(self):
        reference = run_carat(BRANCHY_SOURCE, engine="reference")
        trace = _run(BRANCHY_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles

    def test_hot_exit_path_compiles_linear_side_trace(self):
        # The uncommon arm runs 40 times — far past the threshold — so
        # its block promotes *via side exits* (the dispatch loop never
        # notifies for exit landings) and the recording finishes as a
        # linear side trace when it re-reaches the already-traced loop
        # header: at least the loop trace plus one side trace compile.
        result = _run(BRANCHY_SOURCE)
        assert result.output == BRANCHY_OUTPUT
        assert result.stats.traces_compiled >= 2


# ---------------------------------------------------------------------------
# Recording aborts and the blacklist
# ---------------------------------------------------------------------------


class TestAbortsAndBlacklist:
    def test_deep_recursion_aborts_and_blacklists(self):
        result = _run(RECURSIVE_SOURCE)
        assert result.output == RECURSIVE_OUTPUT
        # Every recording attempt blows the inline depth cap: no trace
        # ever compiles and after repeated aborts the anchors stop being
        # recorded.
        assert result.stats.traces_compiled == 0
        assert len(result.interpreter._trace_blacklist) > 0

    def test_recursion_keeps_parity(self):
        reference = run_carat(RECURSIVE_SOURCE, engine="reference")
        trace = _run(RECURSIVE_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions


# ---------------------------------------------------------------------------
# Frame-spanning traces (call inlining)
# ---------------------------------------------------------------------------


class TestCallInlining:
    def test_call_in_loop_traces_through_the_frame(self):
        result = _run(CALLY_SOURCE)
        assert result.output == CALLY_OUTPUT
        assert result.stats.traces_compiled > 0
        assert len(result.interpreter._trace_blacklist) == 0

    def test_inlined_call_keeps_parity(self):
        reference = run_carat(CALLY_SOURCE, engine="reference")
        trace = _run(CALLY_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions
        assert trace.stats.calls == reference.stats.calls


# ---------------------------------------------------------------------------
# Respecialization on region-generation bumps
# ---------------------------------------------------------------------------


class TestRespecialization:
    def _moving_run(self, engine, move):
        kernel = Kernel()
        moved = []

        def setup(interpreter):
            interpreter.set_tick_interval(200)
            if hasattr(interpreter, "set_trace_tuning"):
                interpreter.set_trace_tuning(threshold=2)
            if not move:
                return

            def hook(interp):
                if moved or interp.stats.instructions < 2_000:
                    return
                moved.append(True)
                process = interp.process
                victim = process.runtime.worst_case_allocation()
                snaps = interp.register_snapshots()
                kernel.request_page_move(
                    process,
                    victim.address & ~(PAGE_SIZE - 1),
                    register_snapshots=snaps,
                )
                interp.apply_snapshots(snaps)

            interpreter.tick_hook = hook

        return run_carat(HOT_SOURCE, kernel=kernel, setup=setup, engine=engine)

    def test_mid_run_move_respecializes(self):
        still = self._moving_run("trace", move=False)
        moved = self._moving_run("trace", move=True)
        assert still.output == HOT_OUTPUT
        assert moved.output == HOT_OUTPUT
        assert moved.stats.traces_compiled > 0
        # The generation bump forces the live trace's guard cells back
        # through the generic path, which re-bakes them — strictly more
        # respecializations than the undisturbed run.
        assert (
            moved.stats.trace_respecializations
            > still.stats.trace_respecializations
        )

    def test_mid_run_move_keeps_parity(self):
        reference = self._moving_run("reference", move=True)
        trace = self._moving_run("trace", move=True)
        assert trace.output == reference.output
        assert trace.exit_code == reference.exit_code
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions
        assert bytes(trace.kernel.memory._data) == bytes(
            reference.kernel.memory._data
        )


# ---------------------------------------------------------------------------
# Tuning validation
# ---------------------------------------------------------------------------


class TestTuningValidation:
    def test_interpreter_rejects_bad_tuning(self):
        result = _run(HOT_SOURCE)
        interp = result.interpreter
        with pytest.raises(ValueError):
            interp.set_trace_tuning(threshold=0)
        with pytest.raises(ValueError):
            interp.set_trace_tuning(max_blocks=0)

    @pytest.mark.parametrize(
        "field", ["trace_threshold", "trace_max_blocks"]
    )
    def test_config_rejects_bad_tuning(self, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: 0})


# ---------------------------------------------------------------------------
# Counters in the telemetry snapshot
# ---------------------------------------------------------------------------


class TestCountersSurface:
    def test_run_snapshot_carries_trace_counters(self):
        result = _run(HOT_SOURCE)
        document = run_snapshot(result)
        interp = document["interp"]
        assert interp["traces_compiled"] == result.stats.traces_compiled > 0
        assert interp["trace_exits"] == result.stats.trace_exits
        assert (
            interp["trace_respecializations"]
            == result.stats.trace_respecializations
        )
        assert (
            interp["guard_checks_elided"]
            == result.stats.guard_checks_elided
            > 0
        )

    def test_to_dict_carries_trace_counters(self):
        result = _run(HOT_SOURCE)
        stats = result.stats.to_dict()
        for key in (
            "traces_compiled",
            "trace_exits",
            "trace_respecializations",
            "guard_checks_elided",
        ):
            assert key in stats


# ---------------------------------------------------------------------------
# Per-interpreter isolation (shared trace-code cache, private closures)
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_trace_code_cached_but_counted_per_run(self):
        binary = compile_carat(
            HOT_SOURCE, CompileOptions(), module_name="hot"
        )
        first = _run(binary)
        second = _run(binary)
        # The second run reuses the module's compiled trace sources but
        # still instantiates and counts its own traces — stats never
        # leak between interpreters.
        assert first.stats.traces_compiled > 0
        assert second.stats.traces_compiled == first.stats.traces_compiled
        assert first.output == second.output == HOT_OUTPUT
        key_count = len(first.interpreter._code.trace_codes)
        assert len(second.interpreter._code.trace_codes) == key_count


# ---------------------------------------------------------------------------
# Return traces (a recording closed by its frame's own ``ret``)
# ---------------------------------------------------------------------------


def _observables(interp):
    """Everything a run exposes, for three-way comparisons that also hold
    when the run died on a fault."""
    runtime = interp.process.runtime
    return (
        interp.exit_code,
        tuple(interp.output),
        interp.stats.cycles,
        interp.stats.instructions,
        interp.stats.loads,
        interp.stats.stores,
        interp.stats.calls,
        interp.stats.guard_cycles,
        interp.stats.tracking_cycles,
        runtime.stats.guards_executed,
        runtime.stats.guard_faults,
        bytes(interp.kernel.memory._data),
    )


def _run_capturing(source, engine, threshold=2):
    """Run ``source``; return (interpreter, exception or None)."""
    box = []

    def setup(interpreter):
        box.append(interpreter)
        if hasattr(interpreter, "set_trace_tuning"):
            interpreter.set_trace_tuning(threshold=threshold)

    try:
        run_carat(source, engine=engine, setup=setup)
    except ProtectionFault as fault:
        return box[0], fault
    return box[0], None


def _tail_block(interp, name):
    function = interp.module.get_function(name)
    return next(
        b for b in function.blocks if isinstance(b.instructions[-1], ReturnInst)
    )


def _return_keys(interp):
    return [k for k in interp._code.trace_codes if k[-1] == id(_RETURN)]


class TestReturnTraces:
    def test_hot_callee_tail_compiles_and_keeps_parity(self):
        source = TAIL_SOURCE.replace("LIMIT", "1000")
        runs = {
            engine: _run_capturing(source, engine)
            for engine in ("reference", "fast", "trace")
        }
        for interp, fault in runs.values():
            assert fault is None
            assert interp.output == TAIL_OUTPUT
        trace = runs["trace"][0]
        assert _return_keys(trace)
        assert id(_tail_block(trace, "get")) in trace._traces
        expected = _observables(runs["reference"][0])
        assert _observables(runs["fast"][0]) == expected
        assert _observables(trace) == expected

    def test_main_ret_exits_with_exact_counts(self):
        runs = {
            engine: _run_capturing(MAIN_RET_SOURCE, engine, threshold=1)
            for engine in ("reference", "fast", "trace")
        }
        expected = _observables(runs["reference"][0])
        assert runs["reference"][0].exit_code == MAIN_RET_EXIT
        assert _observables(runs["fast"][0]) == expected
        trace = runs["trace"][0]
        assert _observables(trace) == expected
        # The open recording died with the program: nothing compiled for
        # main's tail, and nothing was struck for it either.
        assert trace._recorder is not None
        assert not _return_keys(trace)

    def test_guard_fault_inside_return_trace_reconciles(self):
        source = TAIL_SOURCE.replace("LIMIT", "150")
        runs = {
            engine: _run_capturing(source, engine)
            for engine in ("reference", "fast", "trace")
        }
        messages = {str(fault) for _interp, fault in runs.values()}
        assert len(messages) == 1 and None not in messages
        trace, fault = runs["trace"]
        # The fault was raised from inside the return trace's closure.
        closure = trace._traces[id(_tail_block(trace, "get"))]
        frames = []
        tb = fault.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame)
            tb = tb.tb_next
        assert any(f.f_globals is closure.__globals__ for f in frames)
        expected = _observables(runs["reference"][0])
        assert _observables(runs["fast"][0]) == expected
        assert _observables(trace) == expected

    def test_kvservice_serve_anchors_all_compile(self):
        workload = get_workload("kvservice", "small")
        result = CaratSession(RunConfig(engine="trace")).run(workload.source)
        interp = result.interpreter
        serve = interp.module.get_function("serve")
        serve_blocks = {id(b) for b in serve.blocks}
        assert not serve_blocks & interp._trace_blacklist
        # Before return traces every serve and lcg_next anchor struck
        # out on its function's return and only 5 loop traces compiled.
        assert result.stats.traces_compiled > 5
        assert _return_keys(interp)


class TestRespecializeEvents:
    def _traced_run(self, fine_after_first_compile):
        captured = []

        def setup(interpreter):
            interpreter.set_trace_tuning(threshold=2)
            tracer = interpreter.process.runtime.tracer
            captured.append(tracer)
            if not fine_after_first_compile:
                return
            finish = interpreter._finish_trace

            def finish_then_go_fine(*args, **kwargs):
                fn = finish(*args, **kwargs)
                if fn is not None and "_spec0" in fn.__globals__:
                    tracer.detail = "fine"
                return fn

            interpreter._finish_trace = finish_then_go_fine

        config = RunConfig(engine="trace", trace=True)
        result = CaratSession(config, setup=setup).run(HOT_SOURCE)
        assert result.output == HOT_OUTPUT
        events = [e for e in captured[0].events if e.name == "trace.respecialize"]
        return result, events

    def test_normal_detail_counts_but_emits_nothing(self):
        result, events = self._traced_run(fine_after_first_compile=False)
        assert result.stats.trace_respecializations > 0
        assert events == []

    def test_fine_detail_emits_one_instant_per_respecialization(self):
        # Specialization itself sits out under a fine tracer, so the
        # tracer turns fine only once a trace with specialized guard
        # sites exists (before any of them has run).
        result, events = self._traced_run(fine_after_first_compile=True)
        assert result.stats.trace_respecializations > 0
        assert len(events) == result.stats.trace_respecializations
