"""The second-tier trace JIT: superblock compilation of hot paths.

The fast engine (:mod:`repro.machine.fastexec`) removes per-tick operand
classification but still pays one Python call, one tuple unpack, and one
safepoint check per instruction.  This module removes *that* — without
changing a single observable number:

* per-block hotness counters (bumped at block entry, i.e. at every
  taken branch) promote hot blocks to **anchors**: the next entry starts
  a recording, which captures the dynamic sequence of blocks executed
  until the anchor is re-entered — one superblock, the path a loop
  iteration actually takes;
* superblocks **span call frames**: a call to a defined function stays
  on the trace (the call op's body is inlined — a *real* frame is still
  pushed, so snapshots, faults and depth limits see the true stack —
  then the callee's blocks inline right behind it, and its return pops
  back to the caller mid-block), up to a recursion cap — so a loop
  whose body calls helpers compiles into one closure instead of
  bouncing through the dispatch loop at every call boundary;
* the superblock is compiled into a **single Python closure**: every
  instruction body is inlined into one generated source (the same
  templates fastexec specializes per instruction, but without the per-op
  dispatch around them), interior branch edges collapse their phi
  parallel-copies into direct slot assignments, and ``steps`` /
  ``instructions`` — plus the uniform per-op base cycle charge — are
  batched per block segment, with a fault reconciler that restores the
  exact per-op totals on any raise (the cost model never sees the
  difference);
* conditional branches keep both arms: the off-trace arm is a **side
  exit** that re-enters the block tier mid-loop (``trace_exits``
  counts them), with frame state — ``block``/``ops``/``index`` — kept
  consistent at every instruction boundary so faults, retries, register
  snapshots and world-stop patching all keep working unchanged;
* hot side-exit targets compile into **linear side traces**: exits bump
  the target's hotness (the dispatch loop's notification never sees
  them), and a recording started at an exit target may finish the
  moment it reaches *any* already-traced block, compiling a one-shot
  run of the off-trace path that hands straight back to the trace it
  re-joins — so workloads whose hot loop branches on data (an
  accept/reject split) stay in compiled code on both arms;
* a recording whose anchor frame executes its ``ret`` closes as a
  **return trace**: a linear run from the anchor to the return, which
  it executes through the block tier's return op (program exit and the
  caller's result slot stay that op's code) before handing back to the
  dispatch loop — so a function called once per request, whose hot
  blocks never loop back to themselves, still runs compiled from its
  hot entry to its return.  A recursive activation (its function is
  already on the stack below it) is struck instead of closed;
* ``carat.guard.*`` sites are **parameter-specialized** à la a
  branch-free translator: the trace bakes a per-site cell holding the
  resolved region's ``base``/``end`` and the mechanism's steady-state
  hit cost, guarded by one generation check against
  ``RegionSet.version`` — a page move, CoW break, or any region
  mutation bumps the generation and demotes the site to the generic
  runtime path, which re-specializes after its next allowed pass
  (``trace_respecializations``);
* the guard optimizer's coverage lattice
  (:func:`repro.carat.guard_opt.guard_tag` /
  :func:`~repro.carat.guard_opt.guard_covered`) is re-run over the
  recorded path at compile time: a guard dominated *on this path* by a
  covering guard (same address value, larger-or-equal constant size,
  write-covers-read) skips even the specialized bounds check and charges
  the steady cost directly (``guard_checks_elided``).  Availability is
  intra-iteration only and is killed by any ``alloca`` and by any
  redefinition of the address value (which includes phis at segment
  heads) — the block tier can run arbitrary code between trace
  invocations, so nothing proven in one iteration survives into the
  next.

Parity contract (enforced by the three-way differential tests): the
trace tier must produce bit-identical program output, memory, and exit
codes to *both* other engines, and semantically identical stats.  The
only fields that may differ are the engine-descriptive counters
(``dispatch_cache_*``, ``region_cache_*``, ``traces_compiled``,
``trace_exits``, ``trace_respecializations``, ``guard_checks_elided``).

Compiled trace code is cached on the module
(:attr:`~repro.machine.fastexec.ModuleCode.trace_codes`) keyed by the
recorded chain plus the specialization variant, and *instantiated* per
interpreter — specialization cells, cost constants, and runtime bindings
are per-tenant, so multi-tenant schedulers sharing one binary get
per-process generations and isolation for free.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Tuple

from repro.carat.guard_opt import guard_covered, guard_tag
from repro.carat.intrinsics import (
    GUARD_CALL,
    GUARD_LOAD,
    GUARD_RANGE,
    GUARD_STORE,
)
from repro.errors import InterpError
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable
from repro.ir.types import FloatType, IntType, PointerType, size_of
from repro.ir.values import ConstantInt, Value
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.fastexec import (
    _MASK64,
    _Edge,
    _edge_enter,
    _expr,
    _FastFrame,
    _gep_plan,
    _raise_undefined,
    _slot_key,
    _FCMP_SYMBOL,
    _ICMP_SIGNED,
    _ICMP_UNSIGNED,
    _INT_OP_SYMBOL,
    FastInterpreter,
    ModuleCode,
)
from repro.machine.interp import _MATH_BUILTINS, ExitProgram
from repro.transform.simplify import fold_int_binop

#: Guard mechanisms whose steady-state hit cost can be baked into a
#: specialized check (all three model one — see
#: :meth:`~repro.runtime.regions.GuardMechanism.steady_cycles`).
_SPECIALIZABLE = frozenset({"mpx", "binary_search", "if_tree"})

#: Names resolvable from every generated trace body, merged with the
#: per-trace and per-interpreter bindings at instantiation.
_TRACE_GLOBALS: Dict[str, object] = {
    "_raise_undefined": _raise_undefined,
    "_ifb": int.from_bytes,
    "_inf": math.inf,
    "_nan": math.nan,
    "_ierr": InterpError,
}

#: Consecutive recording aborts before an anchor is blacklisted.
_ABORT_LIMIT = 3

_UNBUILT = object()

#: ``end`` marker for a *return trace*: a linear trace that finishes with
#: the anchor frame's own ``ret`` instead of entering a block.
_RETURN = object()


class _SpecCell:
    """One specialized guard site: the resolved check's baked parameters.

    ``gen`` is the region generation the parameters were derived under;
    ``gen == -1`` means "not specialized" and every comparison against a
    real ``RegionSet.version`` (which starts at 0 and only grows) fails,
    so the site takes the generic runtime path until it re-specializes.
    """

    __slots__ = ("gen", "base", "end", "cycles", "leaf", "region", "access")

    def __init__(self) -> None:
        self.gen = -1
        self.base = 0
        self.end = 0
        self.cycles = 0
        self.leaf = -1
        self.region = None
        self.access = "read"


def _respecialize(spec, cell, regions, mech, access, stats, tracer) -> None:
    """Re-derive a site's baked parameters after a generation bump.

    Called from a trace's generic-guard path right after an *allowed*
    pass through the runtime: the site's
    :class:`~repro.runtime.runtime.GuardSiteCell` was just filled with
    the serving region under the current generation, so a valid cell is
    the common case.  Any doubt — stale cell, foreign RegionSet,
    permission mismatch, or a mechanism with no constant hit cost —
    leaves the site unspecialized (``gen = -1``), which only costs speed,
    never correctness.
    """
    spec.gen = -1
    region = cell.region
    if (
        region is None
        or cell.regions is not regions
        or cell.gen != regions.version
        or not region.allows(access)
    ):
        return
    cycles = mech.steady_cycles(regions)
    if cycles is None:
        return
    spec.region = region
    spec.base = region.base
    spec.end = region.end
    spec.cycles = cycles
    spec.leaf = region.base
    spec.access = access
    spec.gen = cell.gen
    stats.trace_respecializations += 1
    if tracer is not None and tracer.fine:
        tracer.instant(
            "trace.respecialize", "trace",
            {"base": region.base, "end": region.end, "gen": cell.gen},
        )


class _Recorder:
    """An in-flight superblock recording: the anchor and the blocks
    entered since, in order, each with its frame depth *relative to the
    anchor frame* (0 = the anchor's own frame, 1 = a callee it pushed,
    ...).  Lives for one loop iteration.

    ``from_exit`` marks a recording whose anchor is a side-exit target:
    it may finish as a *linear* side trace the moment it reaches any
    block with an installed trace (typically its parent's anchor),
    instead of having to loop back to its own anchor."""

    __slots__ = ("frame", "anchor", "chain", "base_len", "from_exit")

    def __init__(
        self, frame, anchor: BasicBlock, base_len: int, from_exit: bool
    ) -> None:
        self.frame = frame
        self.anchor = anchor
        self.base_len = base_len
        self.from_exit = from_exit
        self.chain: List[Tuple[int, BasicBlock]] = [(0, anchor)]


class _TraceCode:
    """The compiled form of one superblock variant: generated source, its
    code object, and the build-time namespace (operand getters, edge
    closures, fallback ops — all interpreter-independent).  Cached in
    :attr:`ModuleCode.trace_codes`; :meth:`instantiate` binds the
    per-interpreter state (cost constants, guard cells, runtime, fresh
    specialization cells) and returns the executable closure."""

    __slots__ = (
        "source", "code_obj", "ns", "n_spec", "n_blocks", "n_guards",
        "specialize",
    )

    def __init__(
        self,
        source: str,
        ns: Dict[str, object],
        n_spec: int,
        n_blocks: int,
        n_guards: int,
        specialize: bool,
    ) -> None:
        self.source = source
        self.ns = ns
        self.n_spec = n_spec
        self.n_blocks = n_blocks
        self.n_guards = n_guards
        self.specialize = specialize
        self.code_obj = compile(source, "<tracejit>", "exec")

    def instantiate(self, interp: "TraceInterpreter"):
        scope: Dict[str, object] = dict(_TRACE_GLOBALS)
        scope.update(self.ns)
        scope["_ci"] = interp._cost_instruction
        scope["_cm"] = interp._cost_memory
        scope["_tb"] = interp._tier_boundary
        scope["_cft"] = interp.costs.fast_tier_access
        scope["_cst"] = interp.costs.slow_tier_access
        scope["_cells"] = interp._guard_cells
        scope["_rdb"] = interp.memory.read_bytes
        scope["_wrb"] = interp.memory.write_bytes
        # Raw physical-memory access, inlined on CARAT traces: the
        # backing buffer (an anonymous mmap) is allocated once per
        # kernel and never reassigned, so binding it here is binding
        # it for good.  The
        # out-of-range path delegates back to the real accessor for the
        # exact error.
        scope["_pm"] = interp.memory
        scope["_pmd"] = interp.memory._data
        scope["_pms"] = interp.memory.size
        scope["_rmem"] = interp._read_mem
        scope["_wmem"] = interp._write_mem
        scope["_respec"] = _respecialize
        scope["_cc"] = interp._cost_call
        scope["_gm"] = interp.process.globals_map
        runtime = interp.process.runtime
        if runtime is not None:
            scope["_rt"] = runtime
            scope["_rs"] = runtime.stats
            scope["_regions"] = runtime.regions
            scope["_windows"] = runtime._move_windows
            scope["_mech"] = runtime.guard
            scope["_tracer"] = runtime.tracer
        else:
            scope["_rt"] = None
            scope["_rs"] = None
            scope["_regions"] = None
            scope["_windows"] = ()
            scope["_mech"] = None
            scope["_tracer"] = None
        for j in range(self.n_spec):
            scope[f"_spec{j}"] = _SpecCell()
        exec(self.code_obj, scope)
        return scope["trace"]


class _W:
    """Tiny indented-source writer for the generated trace body."""

    __slots__ = ("lines",)

    def __init__(self) -> None:
        self.lines: List[str] = []

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


#: Deepest call nesting a trace may inline.  Recording aborts past it
#: (recursion would otherwise unroll without bound) and the layout
#: walker re-checks it when replaying the chain statically.
_MAX_INLINE_DEPTH = 8

#: Straight-line instructions the layout walker will visit before
#: declaring a chain degenerate (chains of single-block callees consume
#: no recorded entries, so the walk needs its own bound).
_LAYOUT_OP_BUDGET = 5000


def _layout(chain: List[Tuple[int, BasicBlock]], end):
    """Replay a recorded ``(depth, block)`` chain as a *static* walk from
    the anchor, linearizing it into emission segments.

    Each segment is ``(block, start, end, kind, data)``: body ops
    ``start..end-1`` followed by the control op at ``end`` — a ``"term"``
    (branch; ``data`` is ``(inst, on_trace_target)``), a ``"call"``
    (defined non-carat callee: the trace runs the block tier's call op,
    which pushes a real frame, then continues *inside* the callee's
    entry block), a ``"return"`` (depth > 0: the block tier's return op
    pops the frame and the walk resumes in the caller right after the
    call), or a ``"ret"`` (depth 0, return traces only: the anchor
    frame's own return, always the final segment).  Calls and returns
    consume no chain entries — recording only observes branch
    terminators, and a callee's entry is statically known from the call
    — so single-block callees inline for free.  Branches consume the
    next entry, which must sit at the walker's depth and be a target of
    the branch; when the chain is exhausted the closing branch must
    re-enter the anchor at depth 0 — or, for a *linear* side trace
    (``end`` is a block), land on ``end``, the already-traced block the
    recording finished at.  A *return* trace (``end is _RETURN``)
    instead closes with a depth-0 return once the chain is exhausted.
    Any mismatch — a depth-0 return anywhere else, mid-block
    terminators, phis or unreachables in a body, depth or target
    disagreement, recursion past :data:`_MAX_INLINE_DEPTH` — returns
    ``None`` (the chain is not a static path; the caller strikes the
    anchor)."""
    anchor = chain[0][1]
    final = anchor if end is None else end
    if chain[0][0] != 0:
        return None
    segments = []
    stack: List[Tuple[BasicBlock, int, CallInst]] = []
    cursor = 1
    block = anchor
    k = block.first_non_phi_index()
    budget = _LAYOUT_OP_BUDGET
    while True:
        insts = block.instructions
        start = k
        while True:
            if k >= len(insts):
                return None
            inst = insts[k]
            if isinstance(
                inst, (BranchInst, ReturnInst, UnreachableInst, PhiInst)
            ):
                break
            if isinstance(inst, CallInst):
                callee = inst.callee
                if (
                    isinstance(callee, Function)
                    and not callee.is_declaration
                    and not callee.name.startswith("carat.")
                ):
                    break
            k += 1
            budget -= 1
            if budget <= 0:
                return None
        inst = insts[k]
        if isinstance(inst, CallInst):
            if len(stack) >= _MAX_INLINE_DEPTH:
                return None
            segments.append((block, start, k, "call", inst))
            stack.append((block, k + 1, inst))
            block = inst.callee.entry
            k = block.first_non_phi_index()
            continue
        if isinstance(inst, ReturnInst):
            if k != len(insts) - 1:
                return None
            if not stack:
                if end is not _RETURN or cursor < len(chain):
                    return None
                segments.append((block, start, k, "ret", inst))
                return segments
            # The paired call rides along: the return's result lands in
            # the caller slot of the call that pushed this frame, which
            # the walk knows statically.
            segments.append((block, start, k, "return", (inst, stack[-1][2])))
            block, k, _call = stack.pop()
            continue
        if not isinstance(inst, BranchInst) or k != len(insts) - 1:
            return None
        depth = len(stack)
        if cursor < len(chain):
            want_depth, target = chain[cursor]
            cursor += 1
            if want_depth != depth:
                return None
        else:
            if depth != 0:
                return None
            target = final
        if not any(t is target for t in inst.targets):
            return None
        segments.append((block, start, k, "term", (inst, target)))
        if cursor >= len(chain) and target is final and depth == 0:
            return segments
        block = target
        k = target.first_non_phi_index()


def _trace_guard_tag(inst: CallInst) -> Optional[tuple]:
    """The coverage tag a guard generates *at run time*.  Stricter than
    the static pass: only constant-size address tags participate — a
    dynamic size folds to 0 in the tag, and ``covered`` treats 0 as
    "any size suffices", which is unsound when the actual size varies."""
    tag = guard_tag(inst)
    if tag is None:
        return None
    if tag[0] == "addr" and not isinstance(inst.args[1], ConstantInt):
        return None
    return tag


def _covering_index(available: Dict[tuple, int], tag: tuple) -> Optional[int]:
    """Specialization-cell index of an available guard covering ``tag``."""
    for seen, j in available.items():
        if guard_covered((seen,), tag):
            return j
    return None


def _apply_kills(available: Dict[tuple, int], inst: Instruction) -> None:
    """Runtime availability kills, strictly stronger than the static
    pass's: *any* alloca clears everything (it moves SP out from under
    frame tags, and the static pass's is-static exemption relies on
    whole-function placement the trace cannot see), and defining an SSA
    id kills address tags keyed on it — on a trace, the same block can
    repeat (nested loop unrolled into the chain), so "SSA values are
    never redefined" does not hold for slot contents."""
    if isinstance(inst, AllocaInst):
        available.clear()
        return
    key = id(inst)
    dead = [t for t in available if t[0] == "addr" and t[1] == key]
    for t in dead:
        del available[t]


# ----------------------------------------------------------------------
# Superblock compilation
# ----------------------------------------------------------------------


def _build_trace(
    code: ModuleCode,
    chain: List[Tuple[int, BasicBlock]],
    specialize: bool,
    mech_name: str,
    is_carat: bool,
    has_tier: bool,
    end=None,
) -> Optional[_TraceCode]:
    """Compile one recorded chain into a :class:`_TraceCode`, or ``None``
    if the chain is not linearizable.

    With ``end`` set the result is a *linear side trace*: a one-shot run
    of the chain that finishes by entering ``end`` — a block that
    already has an installed trace — and returning to the dispatch loop,
    which chains straight into that trace.  Side traces compile the hot
    off-trace paths of a parent trace (its side-exit targets), so
    workloads with data-dependent branches stay in compiled code instead
    of bridging each divergence through the block tier.  With ``end is
    _RETURN`` the result is a *return trace*: the linear run ends with
    the anchor frame's own ``ret``, executed through the block tier's
    return op (so the program-exit arm and the caller's result slot are
    the block tier's code), followed by the tick check and a return to
    the dispatch loop — a function tail such as a request handler's runs
    compiled from its hot entry to its return.

    The generated source inlines the same per-instruction templates
    fastexec specializes (same expressions, same charge order, same
    error paths) minus the per-op dispatch: one ``while True:`` walks the
    segments :func:`_layout` derives from the chain, each becoming a
    ``try:`` region whose ``steps`` / ``instructions`` are batched at its
    control op.  Tick and pause checks are emitted only after terminator
    segments (branches and returns — the safepoints of both other
    engines), never after calls, so safepoint alignment is preserved
    exactly.  Call and return segments end in an inlined copy of the
    block tier's call / return op — the real frame push/pop, with the
    same charges and error states — after which the generated code
    rebinds its ``frame`` / ``values`` locals to ``interp.frames[-1]``;
    guard availability is cleared at those boundaries (the stack pointer
    and the live slot dict both change).  The ``except BaseException``
    reconciler re-derives how many ops of the segment completed from
    ``frame.index`` — which is kept current before every op precisely so
    faults, CoW retries, and register snapshots see the same frame state
    the block tier would show.
    """
    segments = _layout(chain, end)
    if segments is None:
        return None

    w = _W()
    ns: Dict[str, object] = {}
    block_names: Dict[int, str] = {}

    def bref(block: BasicBlock) -> str:
        name = block_names.get(id(block))
        if name is None:
            name = f"_blk{len(block_names)}"
            block_names[id(block)] = name
            ns[name] = block
            ns["_ops" + name[4:]] = code.ops_by_block[id(block)]
        return name

    def expr(value: Value, ens: Dict[str, object], tagstr: str) -> str:
        # Same contract as fastexec's _expr, except globals inline as one
        # probe of the instantiation-bound globals_map (move transactions
        # patch that dict in place, so the probe always sees the current
        # address) instead of a closure call per evaluation.  A missing
        # global would surface as the generic undefined-operand error —
        # the loader lays out every module global, so that path is
        # unreachable in practice.
        if isinstance(value, GlobalVariable):
            name = f"_n{tagstr}"
            ens[name] = value.name
            return f"_gm[{name}]"
        return _expr(value, ens, tagstr)

    tag = 0
    spec_count = 0
    guard_count = 0
    available: Dict[tuple, int] = {}

    if mech_name == "mpx":
        mc = " and _mech._bound is _sc.region"
    elif mech_name == "if_tree":
        mc = " and (_mech.stride_hint or _mech._last_leaf == _sc.leaf)"
    else:
        mc = ""

    def undef(ind: int, operands, t: int) -> None:
        ns[f"_v{t}"] = tuple(operands)
        w.line(ind, "except KeyError:")
        w.line(ind + 1, f"_raise_undefined(interp, values, *_v{t})")

    def fallback(block: BasicBlock, k: int) -> None:
        # The block tier's compiled op, verbatim: it charges its own
        # costs and handles its own errors, so parity is free.
        nonlocal tag
        t = tag
        tag += 1
        ns[f"_op{t}"] = code.ops_by_block[id(block)][k][0]
        w.line(3, f"_op{t}(interp, frame)")

    def emit_tier(ind: int) -> None:
        # Inlined Interpreter._charge_tier; adding a possibly-zero cost
        # unconditionally is value-identical to its `if extra:` guard.
        if not has_tier:
            return
        w.line(ind, "if _a < _tb:")
        w.line(ind + 1, "stats.fast_tier_accesses += 1")
        w.line(ind + 1, "stats.cycles += _cft")
        w.line(ind + 1, "stats.tier_cycles += _cft")
        w.line(ind, "else:")
        w.line(ind + 1, "stats.slow_tier_accesses += 1")
        w.line(ind + 1, "stats.cycles += _cst")
        w.line(ind + 1, "stats.tier_cycles += _cst")

    def emit_hit(ind: int) -> None:
        # The steady-state hit: replicate exactly what the generic path
        # would have charged and written (guards_executed, guard_cycles
        # on both stats objects, the if-tree leaf predictor), minus the
        # call.  `guard_checks_elided` is the only extra write, and it
        # is an engine-descriptive counter outside the parity set.
        if mech_name == "if_tree":
            w.line(ind, "_mech._last_leaf = _sc.leaf")
        w.line(ind, "_rs.guards_executed += 1")
        w.line(ind, "_gc = _sc.cycles")
        w.line(ind, "_rs.guard_cycles += _gc")
        w.line(ind, "stats.guard_cycles += _gc")
        w.line(ind, "stats.cycles += _gc")
        w.line(ind, "stats.guard_checks_elided += 1")

    def emit_guard_access(inst: CallInst, name: str) -> None:
        nonlocal tag, spec_count
        t = tag
        tag += 1
        site = code.guard_site_of[id(inst)]
        access = "read" if name == GUARD_LOAD else "write"
        addr_e = expr(inst.args[0], ns, f"{t}a")
        size_e = expr(inst.args[1], ns, f"{t}s")
        tg = _trace_guard_tag(inst)
        jdom = _covering_index(available, tg) if tg is not None else None
        w.line(3, "stats.cycles += _ci")
        if jdom is not None and mech_name == "binary_search":
            # Full elision: the dominating guard ran this iteration on
            # the same (unredefined) address with a covering size and
            # permission, under this generation; binary search charges
            # by region count alone, so neither the operands nor the
            # bounds need re-checking.
            w.line(3, f"_sc = _spec{jdom}")
            w.line(3, "if _sc.gen == _regions.version and not _windows:")
            emit_hit(4)
            w.line(3, "else:")
            w.line(4, "try:")
            w.line(5, f"_a = int({addr_e})")
            w.line(5, f"_s = int({size_e})")
            undef(4, (inst.args[0], inst.args[1]), t)
            w.line(4, f"_gc = _rt.guard_access(_a, _s, '{access}', _cells[{site}])")
            w.line(4, "stats.guard_cycles += _gc")
            w.line(4, "stats.cycles += _gc")
            available.setdefault(tg, jdom)
            return
        w.line(3, "try:")
        w.line(4, f"_a = int({addr_e})")
        w.line(4, f"_s = int({size_e})")
        undef(3, (inst.args[0], inst.args[1]), t)
        if jdom is not None:
            # Predictor-dependent mechanisms keep the bounds test (it is
            # what makes the hit provably steady) but share the
            # dominator's cell, inheriting its re-specializations.
            j = jdom
        else:
            j = spec_count
            spec_count += 1
        w.line(3, f"_sc = _spec{j}")
        w.line(
            3,
            "if _sc.gen == _regions.version and not _windows"
            f" and _sc.base <= _a < _sc.end and _a + _s <= _sc.end{mc}:",
        )
        emit_hit(4)
        w.line(3, "else:")
        w.line(4, f"_gc = _rt.guard_access(_a, _s, '{access}', _cells[{site}])")
        w.line(4, "stats.guard_cycles += _gc")
        w.line(4, "stats.cycles += _gc")
        if jdom is None:
            w.line(4, "if _sc.gen != _regions.version:")
            w.line(
                5,
                f"_respec(_sc, _cells[{site}], _regions, _mech, "
                f"'{access}', stats, _tracer)",
            )
        if tg is not None:
            available.setdefault(tg, j)

    def emit_guard_call(inst: CallInst) -> None:
        nonlocal tag, spec_count
        t = tag
        tag += 1
        site = code.guard_site_of[id(inst)]
        size_e = expr(inst.args[0], ns, f"{t}s")
        tg = _trace_guard_tag(inst)
        # A zero-size frame probes exactly the stack pointer, which can
        # sit one past the region the dominator validated — find() would
        # miss there, so never elide it blindly.
        if tg is not None and tg[1] < 1:
            jdom = None
        else:
            jdom = _covering_index(available, tg) if tg is not None else None
        w.line(3, "stats.cycles += _ci")
        if jdom is not None and mech_name == "binary_search":
            size_lit = inst.args[0].value  # tag requires a constant
            w.line(3, f"_sc = _spec{jdom}")
            w.line(3, "if _sc.gen == _regions.version and not _windows:")
            emit_hit(4)
            w.line(3, "else:")
            w.line(4, f"_gc = _rt.guard_call(interp.sp, {size_lit}, _cells[{site}])")
            w.line(4, "stats.guard_cycles += _gc")
            w.line(4, "stats.cycles += _gc")
            available.setdefault(tg, jdom)
            return
        w.line(3, "try:")
        w.line(4, f"_s = int({size_e})")
        undef(3, (inst.args[0],), t)
        w.line(3, "_a = interp.sp - _s")
        if jdom is not None:
            j = jdom
        else:
            j = spec_count
            spec_count += 1
        w.line(3, f"_sc = _spec{j}")
        w.line(
            3,
            "if _sc.gen == _regions.version and not _windows"
            f" and _sc.base <= _a < _sc.end and _a + _s <= _sc.end{mc}:",
        )
        emit_hit(4)
        w.line(3, "else:")
        w.line(4, f"_gc = _rt.guard_call(interp.sp, _s, _cells[{site}])")
        w.line(4, "stats.guard_cycles += _gc")
        w.line(4, "stats.cycles += _gc")
        if jdom is None:
            w.line(4, "if _sc.gen != _regions.version:")
            w.line(
                5,
                f"_respec(_sc, _cells[{site}], _regions, _mech, "
                f"'write', stats, _tracer)",
            )
        if tg is not None:
            available.setdefault(tg, j)

    def emit_guard_range(inst: CallInst) -> None:
        nonlocal tag, spec_count
        t = tag
        tag += 1
        site = code.guard_site_of[id(inst)]
        args = inst.args
        addr_e = expr(args[0], ns, f"{t}a")
        len_e = expr(args[1], ns, f"{t}n")
        w.line(3, "stats.cycles += _ci")
        w.line(3, "try:")
        w.line(4, f"_a = int({addr_e})")
        w.line(4, f"_s = int({len_e})")
        if len(args) > 2 and not isinstance(args[2], ConstantInt):
            flag_e = expr(args[2], ns, f"{t}f")
            w.line(4, f"_c = 'write' if int({flag_e}) else 'read'")
            acc = "_c"
            undef(3, (args[0], args[1], args[2]), t)
        else:
            if len(args) > 2:
                acc = "'write'" if args[2].value else "'read'"
            else:
                acc = "'read'"
            undef(3, (args[0], args[1]), t)
        j = spec_count
        spec_count += 1
        w.line(3, f"_sc = _spec{j}")
        w.line(
            3,
            "if 0 < _s and _sc.gen == _regions.version and not _windows"
            f" and {acc} == _sc.access"
            f" and _sc.base <= _a < _sc.end and _a + _s <= _sc.end{mc}:",
        )
        emit_hit(4)
        w.line(3, "else:")
        w.line(4, f"_gc = _rt.guard_range(_a, _s, {acc}, _cells[{site}])")
        w.line(4, "stats.guard_cycles += _gc")
        w.line(4, "stats.cycles += _gc")
        w.line(4, "if 0 < _s and _sc.gen != _regions.version:")
        w.line(
            5,
            f"_respec(_sc, _cells[{site}], _regions, _mech, "
            f"{acc}, stats, _tracer)",
        )

    def emit_op(block: BasicBlock, k: int, inst: Instruction) -> None:
        nonlocal tag, guard_count
        if isinstance(inst, CallInst):
            callee = inst.callee
            if isinstance(callee, Function) and callee.name.startswith("carat."):
                name = callee.name
                if name in (GUARD_LOAD, GUARD_STORE, GUARD_CALL, GUARD_RANGE):
                    guard_count += 1
                    if specialize:
                        if name in (GUARD_LOAD, GUARD_STORE):
                            emit_guard_access(inst, name)
                        elif name == GUARD_CALL:
                            emit_guard_call(inst)
                        else:
                            emit_guard_range(inst)
                        return
            elif (
                isinstance(callee, Function)
                and callee.is_declaration
                and callee.name in _MATH_BUILTINS
                and len(inst.args) == 1
                and not inst.type.is_void
            ):
                # Pure unary math builtin: same charge order as the block
                # tier's builtin_op (_ci, calls, evaluate, compute — with
                # _exec_builtin's ValueError-to-nan — then _cost_call).
                t = tag
                tag += 1
                ns[f"_fn{t}"] = _MATH_BUILTINS[callee.name]
                arg = expr(inst.args[0], ns, f"{t}a")
                w.line(3, "stats.cycles += _ci")
                w.line(3, "stats.calls += 1")
                w.line(3, "try:")
                w.line(4, f"_a = float({arg})")
                undef(3, (inst.args[0],), t)
                w.line(3, "try:")
                w.line(4, f"values[{id(inst)}] = float(_fn{t}(_a))")
                w.line(3, "except ValueError:")
                w.line(4, f"values[{id(inst)}] = _nan")
                w.line(3, "stats.cycles += _cc")
                return
            fallback(block, k)
            return
        t = tag
        tag += 1
        key = id(inst)
        if isinstance(inst, BinaryInst):
            ty = inst.type
            op = inst.opcode
            if isinstance(ty, IntType):
                if isinstance(inst.lhs, ConstantInt) and isinstance(
                    inst.rhs, ConstantInt
                ):
                    folded = fold_int_binop(op, ty, inst.lhs.value, inst.rhs.value)
                    if folded is not None:
                        w.line(3, "stats.cycles += _ci")
                        w.line(3, f"values[{key}] = {folded}")
                        return
                symbol = _INT_OP_SYMBOL.get(op)
                if symbol is None:
                    # Division/remainder/shift by a *constant* that can
                    # never fault inlines with fold_int_binop's exact
                    # expressions (including the float-division quotient
                    # for sign-mismatched sdiv/srem); a variable or
                    # faulting divisor keeps the shared fault path.
                    if isinstance(inst.rhs, ConstantInt):
                        b = inst.rhs.value
                        calc = None
                        if op in ("sdiv", "srem") and b != 0:
                            cond = "_m < 0" if b > 0 else "_m >= 0"
                            quot = f"int(_m / ({b})) if {cond} else _m // ({b})"
                            if op == "sdiv":
                                calc = [f"_m = {quot}"]
                            else:
                                calc = [f"_b = {quot}", f"_m = _m - _b * ({b})"]
                        elif op in ("udiv", "urem") and b != 0:
                            ub = b & ty.max_unsigned
                            sym = "//" if op == "udiv" else "%"
                            calc = [f"_m = (_m & {ty.max_unsigned}) {sym} {ub}"]
                        elif op == "shl" and 0 <= b < ty.bits:
                            calc = [f"_m = _m << {b}"]
                        elif op == "lshr" and 0 <= b < ty.bits:
                            calc = [f"_m = (_m & {ty.max_unsigned}) >> {b}"]
                        elif op == "ashr" and 0 <= b < ty.bits:
                            calc = [f"_m = _m >> {b}"]
                        if calc is not None:
                            lhs = expr(inst.lhs, ns, f"{t}a")
                            w.line(3, "stats.cycles += _ci")
                            w.line(3, "try:")
                            w.line(4, f"_m = int({lhs})")
                            undef(3, (inst.lhs,), t)
                            for line in calc:
                                w.line(3, line)
                            w.line(3, f"_m = _m & {ty.max_unsigned}")
                            w.line(
                                3,
                                f"values[{key}] = _m - {ty.max_unsigned + 1}"
                                f" if _m > {ty.max_signed} else _m",
                            )
                            return
                    elif op in (
                        "sdiv", "srem", "udiv", "urem", "shl", "lshr", "ashr"
                    ):
                        # Variable divisor/shift: inline the same
                        # expressions with fold_int_binop's fault checks
                        # and int_op's exact error message.
                        lhs = expr(inst.lhs, ns, f"{t}a")
                        rhs = expr(inst.rhs, ns, f"{t}b")
                        w.line(3, "stats.cycles += _ci")
                        w.line(3, "try:")
                        w.line(4, f"_a = int({lhs})")
                        w.line(4, f"_b = int({rhs})")
                        undef(3, (inst.lhs, inst.rhs), t)
                        if op in ("sdiv", "srem", "udiv", "urem"):
                            w.line(3, "if _b == 0:")
                        else:
                            w.line(3, f"if not 0 <= _b < {ty.bits}:")
                        w.line(
                            4,
                            f"raise _ierr(f'integer fault: {op} "
                            "{_a}, {_b} (division by zero or "
                            "invalid shift)')",
                        )
                        if op in ("sdiv", "srem"):
                            quot = (
                                "int(_a / _b) if (_a < 0) != (_b < 0)"
                                " else _a // _b"
                            )
                            if op == "sdiv":
                                w.line(3, f"_m = {quot}")
                            else:
                                w.line(3, f"_c = {quot}")
                                w.line(3, "_m = _a - _c * _b")
                        elif op == "udiv":
                            w.line(
                                3,
                                f"_m = (_a & {ty.max_unsigned})"
                                f" // (_b & {ty.max_unsigned})",
                            )
                        elif op == "urem":
                            w.line(
                                3,
                                f"_m = (_a & {ty.max_unsigned})"
                                f" % (_b & {ty.max_unsigned})",
                            )
                        elif op == "shl":
                            w.line(3, "_m = _a << _b")
                        elif op == "lshr":
                            w.line(3, f"_m = (_a & {ty.max_unsigned}) >> _b")
                        else:
                            w.line(3, "_m = _a >> _b")
                        w.line(3, f"_m = _m & {ty.max_unsigned}")
                        w.line(
                            3,
                            f"values[{key}] = _m - {ty.max_unsigned + 1}"
                            f" if _m > {ty.max_signed} else _m",
                        )
                        return
                    fallback(block, k)  # unknown int op: shared fault path
                    return
                lhs = expr(inst.lhs, ns, f"{t}a")
                rhs = expr(inst.rhs, ns, f"{t}b")
                w.line(3, "stats.cycles += _ci")
                w.line(3, "try:")
                w.line(4, f"_m = (int({lhs}) {symbol} int({rhs})) & {ty.max_unsigned}")
                undef(3, (inst.lhs, inst.rhs), t)
                w.line(
                    3,
                    f"values[{key}] = _m - {ty.max_unsigned + 1}"
                    f" if _m > {ty.max_signed} else _m",
                )
                return
            if op in ("fadd", "fsub", "fmul"):
                symbol = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
                lhs = expr(inst.lhs, ns, f"{t}a")
                rhs = expr(inst.rhs, ns, f"{t}b")
                w.line(3, "stats.cycles += _ci")
                w.line(3, "try:")
                w.line(4, f"values[{key}] = float({lhs}) {symbol} float({rhs})")
                undef(3, (inst.lhs, inst.rhs), t)
                return
            if op == "fdiv":
                lhs = expr(inst.lhs, ns, f"{t}a")
                rhs = expr(inst.rhs, ns, f"{t}b")
                w.line(3, "stats.cycles += _ci")
                w.line(3, "try:")
                w.line(4, f"_a = float({lhs})")
                w.line(4, f"_b = float({rhs})")
                undef(3, (inst.lhs, inst.rhs), t)
                w.line(3, "if _b == 0.0:")
                w.line(
                    4,
                    f"values[{key}] = _inf if _a > 0"
                    " else (-_inf if _a < 0 else _nan)",
                )
                w.line(3, "else:")
                w.line(4, f"values[{key}] = _a / _b")
                return
            fallback(block, k)  # frem / unknown float op
            return
        if isinstance(inst, ICmpInst):
            pred = inst.predicate
            symbol = _ICMP_SIGNED.get(pred)
            lhs = expr(inst.lhs, ns, f"{t}a")
            rhs = expr(inst.rhs, ns, f"{t}b")
            if symbol is not None:
                compare = f"int({lhs}) {symbol} int({rhs})"
            else:
                symbol = _ICMP_UNSIGNED.get(pred)
                if symbol is None:
                    fallback(block, k)
                    return
                bits = (
                    inst.lhs.type.bits
                    if isinstance(inst.lhs.type, IntType)
                    else 64
                )
                mask = (1 << bits) - 1
                compare = f"(int({lhs}) & {mask}) {symbol} (int({rhs}) & {mask})"
            w.line(3, "stats.cycles += _ci")
            w.line(3, "try:")
            w.line(4, f"values[{key}] = 1 if {compare} else 0")
            undef(3, (inst.lhs, inst.rhs), t)
            return
        if isinstance(inst, FCmpInst):
            symbol = _FCMP_SYMBOL[inst.predicate]
            lhs = expr(inst.lhs, ns, f"{t}a")
            rhs = expr(inst.rhs, ns, f"{t}b")
            w.line(3, "stats.cycles += _ci")
            w.line(3, "try:")
            w.line(4, f"_a = float({lhs})")
            w.line(4, f"_b = float({rhs})")
            undef(3, (inst.lhs, inst.rhs), t)
            w.line(
                3,
                f"values[{key}] = 0 if (_a != _a or _b != _b)"
                f" else (1 if _a {symbol} _b else 0)",
            )
            return
        if isinstance(inst, CastInst):
            op = inst.opcode
            value = expr(inst.value, ns, f"{t}v")
            if op in ("bitcast", "ptrtoint", "inttoptr", "sext"):
                body = [f"values[{key}] = int({value})"]
            elif op == "trunc":
                ty = inst.type
                body = [
                    f"_m = int({value}) & {ty.max_unsigned}",
                    f"values[{key}] = _m - {ty.max_unsigned + 1}"
                    f" if _m > {ty.max_signed} else _m",
                ]
            elif op == "zext":
                body = [
                    f"values[{key}] = int({value})"
                    f" & {inst.value.type.max_unsigned}"
                ]
            elif op == "sitofp":
                body = [f"values[{key}] = float(int({value}))"]
            elif op == "fptosi":
                # fastexec's fptosi_op: nan/inf collapse to 0, else
                # truncate and wrap to the target width (same mask/span
                # arithmetic as IntType.wrap).
                ty = inst.type
                body = [
                    f"_a = float({value})",
                    "_m = 0 if (_a != _a or _a == _inf or _a == -_inf)"
                    f" else int(_a) & {ty.max_unsigned}",
                    f"values[{key}] = _m - {ty.max_unsigned + 1}"
                    f" if _m > {ty.max_signed} else _m",
                ]
            else:
                fallback(block, k)  # unknown cast
                return
            w.line(3, "stats.cycles += _ci")
            w.line(3, "try:")
            for line in body:
                w.line(4, line)
            undef(3, (inst.value,), t)
            return
        if isinstance(inst, GEPInst):
            const_offset, dynamic, bad_type = _gep_plan(inst)
            if bad_type is not None:
                fallback(block, k)  # lazy reference fault, exact wording
                return
            operands: List[Value] = [inst.pointer]
            terms = [f"int({expr(inst.pointer, ns, f'{t}p')})"]
            if const_offset:
                terms.append(str(const_offset))
            for di, (index, stride) in enumerate(dynamic):
                operands.append(index)
                term = f"int({expr(index, ns, f'{t}i{di}')})"
                if stride != 1:
                    term += f" * {stride}"
                terms.append(term)
            w.line(3, "stats.cycles += _ci")
            w.line(3, "try:")
            w.line(4, f"values[{key}] = {' + '.join(terms)}")
            undef(3, tuple(operands), t)
            return
        if isinstance(inst, LoadInst):
            ty = inst.type
            size = size_of(ty)
            pointer = expr(inst.pointer, ns, f"{t}p")
            if isinstance(ty, IntType):
                decode = [
                    "_m = _ifb(_v, 'little')",
                    f"values[{key}] = _m - {ty.max_unsigned + 1}"
                    f" if _m > {ty.max_signed} else _m",
                ]
            elif isinstance(ty, FloatType):
                ns[f"_up{t}"] = struct.Struct(
                    "<d" if ty.bits == 64 else "<f"
                ).unpack
                decode = [f"values[{key}] = _up{t}(_v)[0]"]
            elif isinstance(ty, PointerType):
                decode = [f"values[{key}] = _ifb(_v, 'little')"]
            else:
                fallback(block, k)
                return
            w.line(3, "stats.cycles += _ci")
            w.line(3, "try:")
            w.line(4, f"_a = int({pointer})")
            undef(3, (inst.pointer,), t)
            w.line(3, "stats.cycles += _cm")
            w.line(3, "stats.loads += 1")
            emit_tier(3)
            w.line(3, "if interp.access_probe is not None:")
            w.line(4, f"interp.access_probe(_a, {size}, 'read')")
            if is_carat:
                # read_bytes, unrolled: bounds check (delegating to the
                # real accessor for its exact error), bandwidth
                # accounting, slice.  An mmap slice decodes the same as
                # the bytes copy read_bytes returns.
                w.line(3, f"if _a < 0 or _a + {size} > _pms:")
                w.line(4, f"_rdb(_a, {size})")
                w.line(3, f"_pm.bytes_read += {size}")
                w.line(3, f"_v = _pmd[_a:_a + {size}]")
            else:
                w.line(3, f"_v = _rmem(_a, {size}, 'read')")
            for line in decode:
                w.line(3, line)
            return
        if isinstance(inst, StoreInst):
            ty = inst.value.type
            size = size_of(ty)
            pointer = expr(inst.pointer, ns, f"{t}p")
            value = expr(inst.value, ns, f"{t}v")
            if isinstance(ty, IntType):
                encode = (
                    f"(int(_v) & {ty.max_unsigned}).to_bytes({size}, 'little')"
                )
            elif isinstance(ty, FloatType):
                ns[f"_pa{t}"] = struct.Struct(
                    "<d" if ty.bits == 64 else "<f"
                ).pack
                encode = f"_pa{t}(float(_v))"
            elif isinstance(ty, PointerType):
                encode = f"(int(_v) & {_MASK64}).to_bytes(8, 'little')"
            else:
                fallback(block, k)
                return
            w.line(3, "stats.cycles += _ci")
            w.line(3, "try:")
            w.line(4, f"_a = int({pointer})")
            w.line(4, f"_v = {value}")
            undef(3, (inst.pointer, inst.value), t)
            w.line(3, "stats.cycles += _cm")
            w.line(3, "stats.stores += 1")
            emit_tier(3)
            w.line(3, "if interp.access_probe is not None:")
            w.line(4, f"interp.access_probe(_a, {size}, 'write')")
            if is_carat:
                # write_bytes, unrolled, same shape as the load's
                # read_bytes; the encoders always produce exactly
                # ``size`` bytes, so the slice assignment never resizes.
                w.line(3, f"_b = {encode}")
                w.line(3, f"if _a < 0 or _a + {size} > _pms:")
                w.line(4, "_wrb(_a, _b)")
                w.line(3, f"_pm.bytes_written += {size}")
                w.line(3, f"_pmd[_a:_a + {size}] = _b")
            else:
                w.line(3, f"_wmem(_a, {encode})")
            return
        # select (operand-error ordering), alloca (moves SP), tracking
        # intrinsics, builtins: the block tier's op is already optimal
        # enough and exactly right.
        fallback(block, k)

    def emit_edge_inline(src: BasicBlock, dst: BasicBlock, ind: int) -> None:
        nonlocal tag
        t = tag
        tag += 1
        moves = [(id(phi), phi.incoming_for_block(src)) for phi in dst.phis()]
        if moves:
            exprs = [
                expr(val, ns, f"{t}h{k2}") for k2, (_pid, val) in enumerate(moves)
            ]
            w.line(ind, "try:")
            for k2, e in enumerate(exprs):
                w.line(ind + 1, f"_hv{k2} = {e}")
            ns[f"_pv{t}"] = tuple(val for _pid, val in moves)
            w.line(ind, "except KeyError:")
            w.line(ind + 1, f"_raise_undefined(interp, values, *_pv{t})")
            nmv = len(moves)
            if nmv > 1:
                w.line(ind, f"stats.cycles += _ci * {nmv}")
            else:
                w.line(ind, "stats.cycles += _ci")
            w.line(ind, f"stats.instructions += {nmv}")
            for k2, (pid, _val) in enumerate(moves):
                w.line(ind, f"values[{pid}] = _hv{k2}")
        w.line(ind, f"frame.prev_block = {bref(src)}")
        w.line(ind, f"frame.block = {bref(dst)}")
        w.line(ind, f"frame.ops = _ops{bref(dst)[4:]}")
        w.line(ind, f"frame.index = {dst.first_non_phi_index()}")

    def emit_terminator(
        si: int, block: BasicBlock, term: BranchInst, nxt: BasicBlock
    ) -> Optional[str]:
        nonlocal tag
        w.line(3, "stats.cycles += _ci")
        if not term.is_conditional:
            emit_edge_inline(block, nxt, 3)
            return None
        t = tag
        tag += 1
        cexpr = expr(term.condition, ns, f"{t}c")
        w.line(3, "try:")
        w.line(4, f"_c = {cexpr}")
        undef(3, (term.condition,), t)
        on_true = term.targets[0] is nxt
        on_false = term.targets[1] is nxt
        if on_true and on_false:
            # Both arms land on the trace (same block); the condition was
            # still evaluated for error parity, its value is moot.
            emit_edge_inline(block, nxt, 3)
            return None
        off_target = term.targets[1] if on_true else term.targets[0]
        ns[f"_x{t}"] = _edge_enter(_Edge(code, block, off_target))
        ns[f"_e{si}"] = {
            "anchor": chain[0][1].name,
            "function": block.parent.name,
            "from": block.name,
            "to": off_target.name,
        }
        flag = f"_of{si}"
        if on_true:
            w.line(3, "if _c:")
            emit_edge_inline(block, nxt, 4)
            w.line(4, f"{flag} = False")
            w.line(3, "else:")
            w.line(4, f"_x{t}(interp, frame)")
            w.line(4, f"{flag} = True")
        else:
            w.line(3, "if _c:")
            w.line(4, f"_x{t}(interp, frame)")
            w.line(4, f"{flag} = True")
            w.line(3, "else:")
            emit_edge_inline(block, nxt, 4)
            w.line(4, f"{flag} = False")
        return flag

    def emit_call_inline(inst: CallInst) -> None:
        # fastexec's call_op, minus the closure and the entry-ops cell:
        # same charge order (depth check between the instruction and
        # call costs), same error states (undefined args raise before
        # the push), and a directly-slotted frame that is field-for-
        # field what _FastFrame(...) constructs, without the
        # constructor chain.
        nonlocal tag
        t = tag
        tag += 1
        callee = inst.callee
        ns["_FF"] = _FastFrame
        ns[f"_fu{t}"] = callee
        ns[f"_rt{t}"] = inst if not inst.type.is_void else None
        eb = bref(callee.entry)
        w.line(3, "stats.cycles += _ci")
        w.line(3, "stats.calls += 1")
        w.line(3, "if len(interp.frames) >= interp.max_call_depth:")
        w.line(
            4,
            "raise _ierr(f'call depth exceeded "
            f"({{interp.max_call_depth}}) calling @{callee.name}')",
        )
        w.line(3, "stats.cycles += _cc")
        w.line(3, "_nf = _FF.__new__(_FF)")
        w.line(3, f"_nf.function = _fu{t}")
        w.line(3, f"_nf.block = {eb}")
        w.line(3, "_nf.index = 0")
        w.line(3, "_nv = {}")
        w.line(3, "_nf.values = _nv")
        w.line(3, "_nf.sp_on_entry = interp.sp")
        w.line(3, f"_nf.result_target = _rt{t}")
        w.line(3, "_nf.prev_block = None")
        w.line(3, f"_nf.ops = _ops{eb[4:]}")
        if inst.args:
            w.line(3, "try:")
            for j, (formal, actual) in enumerate(
                zip(callee.args, inst.args)
            ):
                arg_e = expr(actual, ns, f"{t}a{j}")
                w.line(4, f"_nv[{id(formal)}] = {arg_e}")
            undef(3, tuple(inst.args), t)
        w.line(3, "interp.frames.append(_nf)")

    def emit_return_inline(inst: ReturnInst, call: CallInst) -> None:
        # fastexec's return_op, minus the closure: inside a trace the
        # popped frame is never the last (the matching call segment's
        # caller is below it), so the program-exit arm is statically
        # dead, and the result slot is the paired call's, known from
        # the layout walk.
        nonlocal tag
        t = tag
        tag += 1
        w.line(3, "stats.cycles += _ci")
        rv = inst.return_value
        if rv is not None:
            w.line(3, "try:")
            w.line(4, f"_v = {expr(rv, ns, f'{t}r')}")
            undef(3, (rv,), t)
        w.line(3, "interp.sp = frame.sp_on_entry")
        w.line(3, "interp.frames.pop()")
        if rv is not None and not call.type.is_void:
            w.line(3, f"interp.frames[-1].values[{id(call)}] = _v")

    w.line(0, "def trace(interp, frame, steps, max_steps):")
    w.line(1, "stats = interp.stats")
    w.line(1, "values = frame.values")
    w.line(1, "while True:")
    ci_line = "    " * 3 + "stats.cycles += _ci"
    for si, (block, start, stop, kind, data) in enumerate(segments):
        insts = block.instructions
        w.line(2, "try:")
        mark = len(w.lines)
        for k in range(start, stop):
            inst = insts[k]
            w.line(3, f"frame.index = {k + 1}")
            emit_op(block, k, inst)
            _apply_kills(available, inst)
        # Batch the uniform per-op base charge: every inline op opens
        # with exactly one top-level `stats.cycles += _ci` *before*
        # anything that can raise, so when the count matches the op
        # count (i.e. no fallback op charged internally), the sum can
        # be hoisted to the segment top and the fault reconciler below
        # subtracts the ops that never ran.  Mid-segment observers see
        # cycles only through the ops' own extra charges (memory, tier,
        # guard), which stay in place; ticks and pauses run at segment
        # boundaries, where the batched total is the exact total.
        n_ci = 0
        if stop > start:
            body = w.lines[mark:]
            n_ci = body.count(ci_line)
            if n_ci == stop - start and n_ci > 1:
                w.lines[mark:] = [ln for ln in body if ln != ci_line]
                w.lines.insert(mark, "    " * 3 + f"stats.cycles += {n_ci} * _ci")
            else:
                n_ci = 0
        w.line(3, f"frame.index = {stop + 1}")
        exit_flag = None
        if kind == "term":
            term, target = data
            exit_flag = emit_terminator(si, block, term, target)
            # The on-trace edge assigned the target's phis: any
            # availability tag keyed on a phi's SSA id refers to the
            # previous iteration's value now.
            for phi in target.phis():
                pid = id(phi)
                for tg in [
                    tg
                    for tg in available
                    if tg[0] == "addr" and tg[1] == pid
                ]:
                    del available[tg]
        elif kind == "call":
            emit_call_inline(data)
        elif kind == "return":
            emit_return_inline(*data)
        else:
            fallback(block, stop)
        w.line(2, "except BaseException:")
        if n_ci:
            # Un-charge the batched base cost of the body ops that never
            # ran: the faulting op (at frame.index - 1) and everything
            # before it did charge theirs in the reference engine.
            w.line(3, f"_done = frame.index - {start}")
            w.line(3, f"if _done < {n_ci}:")
            w.line(4, f"stats.cycles -= ({n_ci} - _done) * _ci")
        w.line(3, f"stats.instructions += frame.index - 1 - {start}")
        w.line(3, "raise")
        nops = stop + 1 - start
        w.line(2, f"steps += {nops}")
        w.line(2, f"stats.instructions += {nops}")
        if kind in ("call", "return"):
            # The frame just changed (push on call, pop on return):
            # rebind the locals every inlined template reads, and forget
            # guard availability — the stack pointer moved and the slot
            # dict is a different frame's.
            w.line(2, "frame = interp.frames[-1]")
            w.line(2, "values = frame.values")
            available.clear()
        if kind == "call":
            # A call is not a safepoint in either other engine: no tick,
            # no pause check.
            continue
        w.line(2, "if stats.instructions >= interp._next_tick:")
        w.line(3, "interp._next_tick = stats.instructions + interp.tick_interval")
        w.line(3, "_hook = interp.tick_hook")
        w.line(3, "if _hook is not None:")
        w.line(4, "_hook(interp)")
        if exit_flag is not None:
            w.line(2, f"if {exit_flag}:")
            w.line(3, "stats.trace_exits += 1")
            w.line(3, "if _tracer is not None and _tracer.fine:")
            w.line(4, f"_tracer.instant('trace.exit', 'trace', _e{si})")
            w.line(3, "return steps")
        if kind == "ret":
            w.line(2, "return steps")
            break
        w.line(2, "if steps >= max_steps:")
        w.line(3, "return steps")
    if end is not None and end is not _RETURN:
        # Linear side trace: the closing edge just entered ``end`` (its
        # phis assigned, index at first_non_phi) — hand control back so
        # the dispatch loop chains into the trace installed there.
        w.line(2, "return steps")

    return _TraceCode(
        w.source(), ns, spec_count, len(chain), guard_count, specialize
    )


# ----------------------------------------------------------------------
# The trace-tier interpreter
# ----------------------------------------------------------------------


class TraceInterpreter(FastInterpreter):
    """The block tier plus a recording trace tier.

    Execution starts in the inherited fast dispatch loop.  Every block
    *entered through a branch* (i.e. every loop back-edge or join) bumps
    a hotness counter; at ``trace_threshold`` the block becomes an
    anchor and the next entry records the dynamic block chain until the
    anchor recurs, which is then compiled by :func:`_build_trace` and
    installed.  From then on, entering the anchor at a safepoint runs
    the compiled superblock until it side-exits, pauses at the step
    quota, or faults back to the block tier.  Side exits bump the
    hotness of the block they land on; at the threshold that block
    anchors a recording that may finish as a *linear* side trace the
    moment it re-reaches any traced block, so hot off-trace arms get
    compiled too and chain straight back into the loop trace.  A
    recording whose anchor frame returns instead closes as a *return
    trace* (the dispatch loop sees the recorded frame pop).

    Compiled trace *code* is shared across interpreters of the same
    module (``ModuleCode.trace_codes``); the per-interpreter
    ``instantiate`` binds cost constants, guard cells, and fresh
    specialization cells, so tenants never see each other's generations.

    Limitations, by design: no tracing under an attached profiler (the
    profiled loop needs per-op cycle attribution, which batching
    destroys — ``run_steps`` falls back to the inherited profiled block
    tier), and no exit-ratio demotion (a compiled trace stays installed
    even if its side exits dominate; the side exits themselves are
    cheap, and the block tier it lands in is the engine everything else
    runs on anyway).
    """

    #: Block entries before a block is promoted to a trace anchor.
    trace_threshold = 16
    #: Longest chain a recording may span before it aborts (counted in
    #: branch-entered blocks; inlined callee entries ride along free).
    trace_max_blocks = 48

    def __init__(
        self,
        process: Process,
        kernel: Kernel,
        max_call_depth: int = 512,
        stack_range: Optional[Tuple[int, int]] = None,
        thread_id: int = 0,
    ) -> None:
        super().__init__(process, kernel, max_call_depth, stack_range, thread_id)
        self._hot: Dict[int, int] = {}
        self._traces: Dict[int, object] = {}
        self._trace_blacklist: set = set()
        self._trace_aborts: Dict[int, int] = {}
        self._recorder: Optional[_Recorder] = None

    def set_trace_tuning(
        self,
        threshold: Optional[int] = None,
        max_blocks: Optional[int] = None,
    ) -> None:
        """Override promotion threshold / chain cap (CLI plumbing)."""
        if threshold is not None:
            if threshold < 1:
                raise ValueError("trace threshold must be >= 1")
            self.trace_threshold = threshold
        if max_blocks is not None:
            if max_blocks < 1:
                raise ValueError("trace max blocks must be >= 1")
            self.trace_max_blocks = max_blocks

    # -- promotion / recording ------------------------------------------

    def _note_hot_entry(self, frame, from_exit: bool = False) -> None:
        key = id(frame.block)
        if key in self._trace_blacklist:
            return
        count = self._hot.get(key, 0) + 1
        if count >= self.trace_threshold:
            self._hot[key] = 0
            self._recorder = _Recorder(
                frame, frame.block, len(self.frames), from_exit
            )
        else:
            self._hot[key] = count

    def _note_recorded_entry(self, frame):
        """One branch-entered block while recording; returns the
        installed trace closure when the recording just closed, else
        ``None``.

        Entries are recorded with their frame depth relative to the
        anchor frame: calls push frames without notifying (call ops are
        not terminators), so a callee's interior branches arrive at
        depth > 0 and the layout walker re-derives the call/return
        structure statically.  The anchor frame's own return closes the
        recording as a return trace (:meth:`_note_recorded_return`)
        before any caller block arrives here, so a negative depth is a
        defensive abort; depth 0 with a different frame means the stack
        sank and re-grew through foreign calls.  Both abort — as does
        recursion past the inline cap, which would otherwise unroll
        without bound."""
        rec = self._recorder
        depth = len(self.frames) - rec.base_len
        if depth < 0 or depth > _MAX_INLINE_DEPTH:
            self._abort_recording()
            return None
        if depth == 0:
            if frame is not rec.frame:
                self._abort_recording()
                return None
            if frame.block is rec.anchor:
                self._recorder = None
                return self._finish_trace(rec)
            if rec.from_exit:
                fn_end = self._traces.get(id(frame.block))
                if fn_end is not None:
                    # A side-exit recording reached an already-traced
                    # block: finish as a linear side trace ending there,
                    # and chain into that block's trace right now (the
                    # new trace is anchored at the exit target, not
                    # here).
                    self._recorder = None
                    self._finish_trace(rec, end=frame.block)
                    return fn_end
        if len(rec.chain) >= self.trace_max_blocks:
            self._abort_recording()
            return None
        rec.chain.append((depth, frame.block))
        return None

    def _note_recorded_return(self) -> None:
        """The recorded frame just executed its ``ret``: close the
        recording as a return trace.  A frame whose function is still on
        the stack below it is a recursive activation, whose path unrolls
        its own recursion to whatever depth this one call reached; it is
        struck instead, as recursion past the inline cap is."""
        rec = self._recorder
        self._recorder = None
        function = rec.frame.function
        if any(f.function is function for f in self.frames):
            self._strike(id(rec.anchor))
            return
        self._finish_trace(rec, end=_RETURN)

    def _abort_recording(self) -> None:
        rec = self._recorder
        self._recorder = None
        if rec is not None:
            self._strike(id(rec.anchor))

    def _strike(self, key: int) -> None:
        count = self._trace_aborts.get(key, 0) + 1
        self._trace_aborts[key] = count
        if count >= _ABORT_LIMIT:
            self._trace_blacklist.add(key)

    def _finish_trace(self, rec: _Recorder, end=None):
        runtime = self.process.runtime
        tracer = runtime.tracer if runtime is not None else None
        # Specialization bakes per-site region parameters; it must sit
        # out when there is nothing to bake (no runtime), when the
        # mechanism has no steady-state cost to bake, when a
        # fine-detail tracer expects one instant per guard check (the
        # specialized hit emits none), or in safety mode — the
        # specialized hit elides the runtime call that performs the
        # liveness check, so safety falls back to generic guards.
        specialize = (
            runtime is not None
            and runtime.region_cache_enabled
            and runtime.guard.name in _SPECIALIZABLE
            and not (tracer is not None and tracer.fine)
            and runtime.safety is None
        )
        mech_name = runtime.guard.name if specialize else ""
        has_tier = self._tier_boundary is not None
        anchor_key = id(rec.anchor)
        key = (
            anchor_key,
            tuple((d, id(b)) for d, b in rec.chain[1:]),
            specialize,
            mech_name,
            self.is_carat,
            has_tier,
            0 if end is None else id(end),  # _RETURN's id is its own key
        )
        tcode = self._code.trace_codes.get(key, _UNBUILT)
        if tcode is _UNBUILT:
            try:
                tcode = _build_trace(
                    self._code, rec.chain, specialize, mech_name,
                    self.is_carat, has_tier, end,
                )
            except Exception:
                tcode = None
            self._code.trace_codes[key] = tcode  # None caches the reject
        if tcode is None:
            self._strike(anchor_key)
            return None
        fn = tcode.instantiate(self)
        self._traces[anchor_key] = fn
        self.stats.traces_compiled += 1
        if tracer is not None:
            tracer.instant(
                "trace.compile", "trace",
                {
                    "anchor": rec.anchor.name,
                    "function": rec.anchor.parent.name,
                    "blocks": tcode.n_blocks,
                    "guards": tcode.n_guards,
                    "specialized": tcode.specialize,
                    "inline_depth": max(d for d, _b in rec.chain),
                    "linear": end is not None,
                    "returns": end is _RETURN,
                },
            )
        return fn

    # -- dispatch --------------------------------------------------------

    def run_steps(self, max_steps: int) -> str:
        """The fast dispatch loop plus the trace tier at safepoints.

        Identical contract to :meth:`FastInterpreter.run_steps`; the only
        added work per terminator is one dict probe.  Under a profiler
        the inherited per-op profiled loop runs instead (traces batch
        step accounting, which would wreck per-function attribution).
        """
        if self.profiler is not None:
            return self._run_steps_profiled(max_steps)
        steps = 0
        at_safepoint = False
        frames = self.frames
        stats = self.stats
        hard_stop = max_steps + 100_000
        traces = self._traces
        while frames:
            if steps >= max_steps and (at_safepoint or steps >= hard_stop):
                break  # pause at a safepoint (or give up on alignment)
            frame = frames[-1]
            index = frame.index
            try:
                op, is_terminator = frame.ops[index]
            except IndexError:
                raise InterpError(
                    f"fell off block %{frame.block.name} in "
                    f"@{frame.function.name}"
                ) from None
            frame.index = index + 1
            try:
                op(self, frame)
            except ExitProgram as exit_request:
                self.exit_code = exit_request.code
                frames.clear()
                break
            steps += 1
            stats.instructions += 1
            at_safepoint = is_terminator
            if is_terminator:
                if stats.instructions >= self._next_tick:
                    self._next_tick = stats.instructions + self.tick_interval
                    if self.tick_hook is not None:
                        self.tick_hook(self)
                if frames and frames[-1] is frame:
                    if self._recorder is not None:
                        fn = self._note_recorded_entry(frame)
                    else:
                        fn = traces.get(id(frame.block))
                        if fn is None:
                            self._note_hot_entry(frame)
                    if fn is not None:
                        try:
                            while (
                                fn is not None
                                and steps < max_steps
                                and frames
                                and frames[-1] is frame
                            ):
                                steps = fn(self, frame, steps, max_steps)
                                fn = traces.get(id(frame.block))
                                if (
                                    fn is None
                                    and steps < max_steps
                                    and self._recorder is None
                                    and frames
                                    and frames[-1] is frame
                                ):
                                    # A depth-0 side exit to an untraced
                                    # block: exits bypass the terminator
                                    # notification above, so bump the
                                    # target's hotness here or the exit
                                    # path can never promote.  At the
                                    # threshold this starts a recording
                                    # that may finish as a linear side
                                    # trace back into compiled code.
                                    self._note_hot_entry(
                                        frame, from_exit=True
                                    )
                        except ExitProgram as exit_request:
                            self.exit_code = exit_request.code
                            frames.clear()
                            break
                elif (
                    self._recorder is not None
                    and self._recorder.frame is frame
                ):
                    # The recorded frame just returned (``ret`` is the
                    # only terminator that pops a frame).
                    self._note_recorded_return()
        if not frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"
