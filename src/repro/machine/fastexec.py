"""The fast execution engine: pre-compiled instruction dispatch.

The reference :class:`~repro.machine.interp.Interpreter` re-discovers
everything about an instruction on every tick: an isinstance chain picks
the opcode, ``_eval`` re-classifies each operand, and every guard walks
``RegionSet.find``.  This module removes that per-tick work without
changing a single observable number:

* each :class:`~repro.ir.module.BasicBlock` is compiled **once** into a
  list of per-instruction closures ("ops") with operands resolved at
  compile time — constants are captured, SSA values become direct
  ``frame.values`` slot reads, branch edges carry their phi parallel-copy
  pre-staged, and the opcode is dispatched by *which closure was built*,
  not by isinstance at run time.  The hottest instruction forms (integer
  and float arithmetic, compares, GEPs, loads/stores, guards) are
  specialized through small source templates compiled with ``exec`` so
  the operand reads, wrap arithmetic, and NaN checks are inline in the
  op itself rather than behind further calls;
* each template's source text names its constants and slot keys and
  receives their values through the op's namespace, so it depends only
  on the op's shape: a process-wide **template cache** compiles each
  distinct text once, as a factory over those names, and every later op
  of that shape — in this module or any other — is one call of the
  cached factory, which binds the op's own values as default arguments;
* the compiled form is cached on the module (``Module.metadata``) and
  shared by every subsequent run of the same binary;
* every ``carat.guard.*`` call site gets a numbered
  :class:`~repro.runtime.runtime.GuardSiteCell` so the runtime's
  epoch-invalidated region cache can memoize the last region *per site*
  (cells live on the interpreter, never in the shared compiled code —
  a cached region is only trusted while the RegionSet identity **and**
  generation still match).

Parity is a hard contract, enforced by the differential tests: the fast
engine must produce bit-identical program output, memory, and exit codes
*and* semantically identical stats.  Every op therefore charges the
cost model in exactly the order ``Interpreter._execute`` does; the guard
cache changes wall-clock only, because
:meth:`~repro.runtime.regions.GuardMechanism.check_known` reproduces each
mechanism's cost/predictor state machine on a hit.
"""

from __future__ import annotations

import math
import struct
import textwrap
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.carat.intrinsics import (
    GUARD_CALL,
    GUARD_LOAD,
    GUARD_RANGE,
    GUARD_STORE,
    TRACK_ALLOC,
    TRACK_ESCAPE,
    TRACK_FREE,
)
from repro.errors import InterpError, ProtectionFault
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
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    size_of,
    stride_of,
    struct_field_offset,
)
from repro.ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.interp import ExitProgram, Interpreter, _Frame
from repro.runtime.runtime import GuardSiteCell
from repro.transform.simplify import fold_icmp, fold_int_binop

#: A compiled operand: ``getter(interp, frame.values) -> value``.
Getter = Callable[["FastInterpreter", Dict[int, Union[int, float]]], Union[int, float]]
#: A compiled instruction: ``op(interp, frame) -> None``.
Op = Callable[["FastInterpreter", "_FastFrame"], None]

_MASK64 = (1 << 64) - 1


class _FastFrame(_Frame):
    """A frame that also carries the current block's compiled ops,
    index-aligned with ``block.instructions`` so ``retry`` / snapshot
    machinery from the reference interpreter keeps working unchanged."""

    __slots__ = ("ops",)

    def __init__(self, function: Function, sp_on_entry: int) -> None:
        super().__init__(function, sp_on_entry)
        self.ops: List[Tuple[Op, bool]] = []


# ----------------------------------------------------------------------
# Operand compilation
# ----------------------------------------------------------------------


def _operand(value: Value) -> Getter:
    """Classify an operand once, at compile time (what ``_eval`` does per
    use), and return a minimal getter for it."""
    if isinstance(value, (ConstantInt, ConstantFloat)):
        constant = value.value
        return lambda interp, values: constant
    if isinstance(value, (Argument, Instruction)):
        key = id(value)
        name = value.name

        def read_slot(interp, values, _key=key, _name=name):
            try:
                return values[_key]
            except KeyError:
                raise InterpError(
                    f"use of undefined value %{_name} in "
                    f"@{interp.frames[-1].function.name}"
                ) from None

        return read_slot
    if isinstance(value, (ConstantNull, UndefValue)):
        return lambda interp, values: 0
    if isinstance(value, GlobalVariable):
        gname = value.name

        def read_global(interp, values, _name=gname):
            try:
                return interp.process.globals_map[_name]
            except KeyError:
                raise InterpError(f"global @{_name} was not loaded") from None

        return read_global

    # Aggregate constants and other oddities: the reference interpreter
    # faults when (and only when) such an operand is *evaluated* — keep
    # that, so dead blocks containing them still compile.
    rep = repr(value)

    def reject(interp, values, _rep=rep):
        raise InterpError(f"cannot evaluate operand {_rep}")

    return reject


_NOT_CONST = object()


def _slot_key(value: Value) -> Optional[int]:
    """Frame-slot id for SSA operands (arguments, instruction results)."""
    return id(value) if isinstance(value, (Argument, Instruction)) else None


def _const_of(value: Value):
    """Compile-time value of a constant operand, else ``_NOT_CONST``."""
    if isinstance(value, (ConstantInt, ConstantFloat)):
        return value.value
    if isinstance(value, (ConstantNull, UndefValue)):
        return 0
    return _NOT_CONST


def _undefined_error(
    interp: "FastInterpreter", values, operands
) -> Optional[InterpError]:
    """The reference error for the first unset SSA operand in
    ``operands`` (evaluation order), or ``None`` when every one is set."""
    for value in operands:
        if isinstance(value, (Argument, Instruction)) and id(value) not in values:
            return InterpError(
                f"use of undefined value %{value.name} in "
                f"@{interp.frames[-1].function.name}"
            )
    return None


def _raise_undefined(interp: "FastInterpreter", values, *operands: Value) -> None:
    """Slow path behind an inlined slot read's KeyError: report the first
    unset SSA operand, in evaluation order, with the reference wording."""
    error = _undefined_error(interp, values, operands)
    raise (error or InterpError("undefined value in compiled op")) from None


# ----------------------------------------------------------------------
# Source-template specialization
# ----------------------------------------------------------------------

_GEN_GLOBALS: Dict[str, object] = {"_raise_undefined": _raise_undefined}

#: (namespace names, template source text) -> the op factory compiled
#: from it, process-wide.  A template names its constants and slot keys
#: (``_kl``, ``_cr``, ``_max_u``, ...) and receives their values through
#: ``ns``, so the text depends only on the op's *shape*: a few dozen
#: distinct texts cover every registered workload, and each is compiled
#: once per process.  The factory binds an op's values as default
#: arguments (local reads), not as per-op globals: ops that shared one
#: code object but each had their own globals dict would keep missing
#: CPython's ``LOAD_GLOBAL`` inline caches (about 20% slower per call).
_TEMPLATES: Dict[Tuple[str, str], Callable[..., Op]] = {}

_OP_HEADER = "def op(interp, frame):\n"


def _gen(source: str, ns: Dict[str, object]) -> Op:
    """Instantiate one generated op.  ``source`` defines ``op`` and reads
    the captured constants and slot keys ``ns`` holds; it is compiled,
    wrapped in a factory taking ``ns``'s names, on first sight only."""
    names = ", ".join(sorted(ns))
    make = _TEMPLATES.get((names, source))
    if make is None:
        assert source.startswith(_OP_HEADER)
        bound = ", ".join(f"{name}={name}" for name in sorted(ns))
        factory = (
            f"def make({names}):\n"
            f"    def op(interp, frame, {bound}):\n"
            + textwrap.indent(source[len(_OP_HEADER):], "    ")
            + "    return op\n"
        )
        scope = dict(_GEN_GLOBALS)
        exec(compile(factory, "<fastexec>", "exec"), scope)
        make = _TEMPLATES[(names, source)] = scope["make"]
    return make(**ns)


def _expr(value: Value, ns: Dict[str, object], tag: str) -> str:
    """An expression evaluating ``value`` inside a generated op (with
    ``interp`` and ``values`` in scope).  Slot reads are raw dict lookups;
    the template's KeyError handler reproduces the reference
    undefined-value error.  Getter-backed operands (globals, aggregate
    rejects) handle their own errors and never raise KeyError."""
    key = _slot_key(value)
    if key is not None:
        name = f"_k{tag}"
        ns[name] = key
        return f"values[{name}]"
    const = _const_of(value)
    if const is not _NOT_CONST:
        name = f"_c{tag}"
        ns[name] = const
        return name
    name = f"_g{tag}"
    ns[name] = _operand(value)
    return f"{name}(interp, values)"


# ----------------------------------------------------------------------
# Branch edges (phi parallel copy resolved at compile time)
# ----------------------------------------------------------------------


class _Edge:
    """One CFG edge: the target block with its phi moves pre-resolved for
    this specific source block, and the target's ops late-bound (blocks in
    a loop forward-reference each other)."""

    __slots__ = ("code", "target", "moves", "first_index", "ops")

    def __init__(self, code: "ModuleCode", source: BasicBlock, target: BasicBlock):
        self.code = code
        self.target = target
        self.moves: Tuple[Tuple[int, Getter], ...] = tuple(
            (id(phi), _operand(phi.incoming_for_block(source)))
            for phi in target.phis()
        )
        self.first_index = target.first_non_phi_index()
        self.ops: Optional[List[Tuple[Op, bool]]] = None

    def resolve(self) -> List[Tuple[Op, bool]]:
        ops = self.code.ops_by_block[id(self.target)]
        self.ops = ops
        return ops


def _edge_enter(edge: _Edge) -> Callable[["FastInterpreter", _FastFrame], None]:
    """Build the "take this edge" closure, specialized by phi-move count
    (loop latches almost always carry exactly one).  The phi parallel copy
    keeps the reference order: evaluate every incoming value first, then
    charge n instructions, then assign."""
    moves = edge.moves
    target = edge.target
    first_index = edge.first_index
    if not moves:

        def enter0(interp, frame):
            frame.prev_block = frame.block
            frame.block = target
            frame.index = first_index
            ops = edge.ops
            frame.ops = ops if ops is not None else edge.resolve()

        return enter0
    if len(moves) == 1:
        ((phi_key, get_in),) = moves

        def enter1(interp, frame):
            values = frame.values
            value = get_in(interp, values)
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            stats.instructions += 1
            values[phi_key] = value
            frame.prev_block = frame.block
            frame.block = target
            frame.index = first_index
            ops = edge.ops
            frame.ops = ops if ops is not None else edge.resolve()

        return enter1

    n = len(moves)

    def entern(interp, frame):
        values = frame.values
        staged = [(key, getter(interp, values)) for key, getter in moves]
        stats = interp.stats
        stats.cycles += interp._cost_instruction * n
        stats.instructions += n
        for key, value in staged:
            values[key] = value
        frame.prev_block = frame.block
        frame.block = target
        frame.index = first_index
        ops = edge.ops
        frame.ops = ops if ops is not None else edge.resolve()

    return entern


# ----------------------------------------------------------------------
# Per-instruction compilation
# ----------------------------------------------------------------------

#: Simple (never-faulting) integer ops, by infix symbol for the template.
_INT_OP_SYMBOL = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
}
_ICMP_SIGNED = {
    "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
}
_ICMP_UNSIGNED = {"ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}
_FCMP_SYMBOL = {
    "oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">=",
}


def _compile_binary(inst: BinaryInst) -> Op:
    key = id(inst)
    ty = inst.type
    op = inst.opcode
    if isinstance(ty, IntType):
        # Constant-fold fully-constant int ops at compile time (same fold
        # the reference runs per tick; only when it succeeds — a folding
        # failure must still fault at run time, in order).
        if isinstance(inst.lhs, ConstantInt) and isinstance(inst.rhs, ConstantInt):
            folded = fold_int_binop(op, ty, inst.lhs.value, inst.rhs.value)
            if folded is not None:

                def const_op(interp, frame, _key=key, _folded=folded):
                    interp.stats.cycles += interp._cost_instruction
                    frame.values[_key] = _folded

                return const_op
        symbol = _INT_OP_SYMBOL.get(op)
        if symbol is not None:
            # wrap() inlined: mask to the width, re-sign if the top bit
            # is set — bit-identical to IntType.wrap.
            ns = {
                "_key": key,
                "_max_u": ty.max_unsigned,
                "_max_s": ty.max_signed,
                "_span": ty.max_unsigned + 1,
                "_lhs_v": inst.lhs,
                "_rhs_v": inst.rhs,
            }
            lhs = _expr(inst.lhs, ns, "l")
            rhs = _expr(inst.rhs, ns, "r")
            return _gen(
                "def op(interp, frame):\n"
                "    interp.stats.cycles += interp._cost_instruction\n"
                "    values = frame.values\n"
                "    try:\n"
                f"        m = (int({lhs}) {symbol} int({rhs})) & _max_u\n"
                "    except KeyError:\n"
                "        _raise_undefined(interp, values, _lhs_v, _rhs_v)\n"
                "    values[_key] = m - _span if m > _max_s else m\n",
                ns,
            )
        # Division/remainder/shift family: keep the shared fold so the
        # fault conditions stay byte-for-byte identical.
        get_l = _operand(inst.lhs)
        get_r = _operand(inst.rhs)

        def int_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            lhs_val = get_l(interp, values)
            rhs_val = get_r(interp, values)
            result = fold_int_binop(op, ty, int(lhs_val), int(rhs_val))
            if result is None:
                raise InterpError(
                    f"integer fault: {op} {lhs_val}, {rhs_val} "
                    f"(division by zero or invalid shift)"
                )
            values[key] = result

        return int_op
    if op in ("fadd", "fsub", "fmul"):
        symbol = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
        ns = {"_key": key, "_lhs_v": inst.lhs, "_rhs_v": inst.rhs}
        lhs = _expr(inst.lhs, ns, "l")
        rhs = _expr(inst.rhs, ns, "r")
        return _gen(
            "def op(interp, frame):\n"
            "    interp.stats.cycles += interp._cost_instruction\n"
            "    values = frame.values\n"
            "    try:\n"
            f"        values[_key] = float({lhs}) {symbol} float({rhs})\n"
            "    except KeyError:\n"
            "        _raise_undefined(interp, values, _lhs_v, _rhs_v)\n",
            ns,
        )
    if op == "fdiv":
        ns = {
            "_key": key,
            "_lhs_v": inst.lhs,
            "_rhs_v": inst.rhs,
            "_inf": math.inf,
            "_nan": math.nan,
        }
        lhs = _expr(inst.lhs, ns, "l")
        rhs = _expr(inst.rhs, ns, "r")
        return _gen(
            "def op(interp, frame):\n"
            "    interp.stats.cycles += interp._cost_instruction\n"
            "    values = frame.values\n"
            "    try:\n"
            f"        a = float({lhs})\n"
            f"        b = float({rhs})\n"
            "    except KeyError:\n"
            "        _raise_undefined(interp, values, _lhs_v, _rhs_v)\n"
            "    if b == 0.0:\n"
            "        values[_key] = _inf if a > 0 else (-_inf if a < 0 else _nan)\n"
            "    else:\n"
            "        values[_key] = a / b\n",
            ns,
        )
    if op == "frem":
        get_l = _operand(inst.lhs)
        get_r = _operand(inst.rhs)

        def frem_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            lhs_val = float(get_l(interp, values))
            rhs_val = float(get_r(interp, values))
            values[key] = math.fmod(lhs_val, rhs_val) if rhs_val != 0 else math.nan

        return frem_op
    get_l = _operand(inst.lhs)
    get_r = _operand(inst.rhs)

    def bad_float_op(interp, frame, _op=op):
        interp.stats.cycles += interp._cost_instruction
        get_l(interp, frame.values)
        get_r(interp, frame.values)
        raise InterpError(f"unknown float op {_op!r}")

    return bad_float_op


def _compile_icmp(inst: ICmpInst) -> Op:
    key = id(inst)
    pred = inst.predicate
    bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
    ns = {"_key": key, "_lhs_v": inst.lhs, "_rhs_v": inst.rhs}
    lhs = _expr(inst.lhs, ns, "l")
    rhs = _expr(inst.rhs, ns, "r")
    symbol = _ICMP_SIGNED.get(pred)
    if symbol is not None:
        compare = f"int({lhs}) {symbol} int({rhs})"
    else:
        symbol = _ICMP_UNSIGNED.get(pred)
        if symbol is None:
            get_l = _operand(inst.lhs)
            get_r = _operand(inst.rhs)

            def generic_icmp_op(interp, frame):
                interp.stats.cycles += interp._cost_instruction
                values = frame.values
                values[key] = int(
                    fold_icmp(
                        pred,
                        int(get_l(interp, values)),
                        int(get_r(interp, values)),
                        bits,
                    )
                )

            return generic_icmp_op
        ns["_mask"] = (1 << bits) - 1
        compare = f"(int({lhs}) & _mask) {symbol} (int({rhs}) & _mask)"
    return _gen(
        "def op(interp, frame):\n"
        "    interp.stats.cycles += interp._cost_instruction\n"
        "    values = frame.values\n"
        "    try:\n"
        f"        values[_key] = 1 if {compare} else 0\n"
        "    except KeyError:\n"
        "        _raise_undefined(interp, values, _lhs_v, _rhs_v)\n",
        ns,
    )


def _compile_fcmp(inst: FCmpInst) -> Op:
    key = id(inst)
    symbol = _FCMP_SYMBOL[inst.predicate]
    ns = {"_key": key, "_lhs_v": inst.lhs, "_rhs_v": inst.rhs}
    lhs = _expr(inst.lhs, ns, "l")
    rhs = _expr(inst.rhs, ns, "r")
    # NaN check inline: x != x is the call-free isnan.
    return _gen(
        "def op(interp, frame):\n"
        "    interp.stats.cycles += interp._cost_instruction\n"
        "    values = frame.values\n"
        "    try:\n"
        f"        a = float({lhs})\n"
        f"        b = float({rhs})\n"
        "    except KeyError:\n"
        "        _raise_undefined(interp, values, _lhs_v, _rhs_v)\n"
        "    values[_key] = 0 if (a != a or b != b) else "
        f"(1 if a {symbol} b else 0)\n",
        ns,
    )


def _compile_cast(inst: CastInst) -> Op:
    key = id(inst)
    op = inst.opcode
    ns = {"_key": key, "_val_v": inst.value}
    value = _expr(inst.value, ns, "v")
    if op in ("bitcast", "ptrtoint", "inttoptr", "sext"):
        body = f"        values[_key] = int({value})\n"
    elif op == "trunc":
        ns["_max_u"] = inst.type.max_unsigned
        ns["_max_s"] = inst.type.max_signed
        ns["_span"] = inst.type.max_unsigned + 1
        body = (
            f"        m = int({value}) & _max_u\n"
            "        values[_key] = m - _span if m > _max_s else m\n"
        )
    elif op == "zext":
        ns["_max_u"] = inst.value.type.max_unsigned
        body = f"        values[_key] = int({value}) & _max_u\n"
    elif op == "sitofp":
        body = f"        values[_key] = float(int({value}))\n"
    elif op == "fptosi":
        wrap = inst.type.wrap
        get_v = _operand(inst.value)

        def fptosi_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            f = float(get_v(interp, values))
            values[key] = 0 if (math.isnan(f) or math.isinf(f)) else wrap(int(f))

        return fptosi_op
    else:
        get_v = _operand(inst.value)

        def bad_cast_op(interp, frame, _op=op):
            interp.stats.cycles += interp._cost_instruction
            get_v(interp, frame.values)
            raise InterpError(f"unknown cast {_op!r}")

        return bad_cast_op
    return _gen(
        "def op(interp, frame):\n"
        "    interp.stats.cycles += interp._cost_instruction\n"
        "    values = frame.values\n"
        "    try:\n"
        f"{body}"
        "    except KeyError:\n"
        "        _raise_undefined(interp, values, _val_v)\n",
        ns,
    )


def _gep_plan(
    inst: GEPInst,
) -> Tuple[int, List[Tuple[Value, int]], Optional[str]]:
    """Walk the indexed type once, at compile time: each index contributes
    either a static offset (constant index) or a dynamic ``(value, stride)``
    term.  Struct indices are constant by construction.  Returns
    ``(const_offset, dynamic_terms, bad_type_rep)``; a non-``None`` third
    element names the non-aggregate type the walk hit, and the caller must
    then emit the lazy reference fault with that exact wording.  Shared
    with the trace tier, which inlines the same address expression into
    superblock bodies."""
    const_offset = 0
    dynamic: List[Tuple[Value, int]] = []
    current: Type = inst.source_type
    for i, index in enumerate(inst.indices):
        if i == 0:
            stride = stride_of(current)
        elif isinstance(current, ArrayType):
            stride = stride_of(current.element)
            current = current.element
        elif isinstance(current, StructType):
            if not isinstance(index, ConstantInt):
                raise InterpError("struct gep index must be constant")
            const_offset += struct_field_offset(current, index.value)
            current = current.fields[index.value]
            continue
        else:
            return 0, [], str(current)
        if isinstance(index, ConstantInt):
            const_offset += index.value * stride
        else:
            dynamic.append((index, stride))
    return const_offset, dynamic, None


def _compile_gep(inst: GEPInst) -> Op:
    key = id(inst)
    const_offset, dynamic, bad_type = _gep_plan(inst)
    if bad_type is not None:
        # Mirror the reference fault lazily: the bad index is only an
        # error if the instruction actually executes.

        def bad_gep_op(interp, frame, _rep=bad_type):
            interp.stats.cycles += interp._cost_instruction
            raise InterpError(f"gep into non-aggregate {_rep}")

        return bad_gep_op

    ns: Dict[str, object] = {"_key": key}
    operands: List[Value] = [inst.pointer]
    terms = [f"int({_expr(inst.pointer, ns, 'p')})"]
    if const_offset:
        ns["_off"] = const_offset
        terms.append("_off")
    for n, (index, stride) in enumerate(dynamic):
        operands.append(index)
        term = f"int({_expr(index, ns, f'i{n}')})"
        if stride != 1:
            ns[f"_s{n}"] = stride
            term += f" * _s{n}"
        terms.append(term)
    ns["_operands"] = tuple(operands)
    return _gen(
        "def op(interp, frame):\n"
        "    interp.stats.cycles += interp._cost_instruction\n"
        "    values = frame.values\n"
        "    try:\n"
        f"        values[_key] = {' + '.join(terms)}\n"
        "    except KeyError:\n"
        "        _raise_undefined(interp, values, *_operands)\n",
        ns,
    )


def _compile_load(inst: LoadInst) -> Op:
    key = id(inst)
    ty = inst.type
    size = size_of(ty)
    ns: Dict[str, object] = {"_key": key, "_size": size, "_ptr_v": inst.pointer}
    pointer = _expr(inst.pointer, ns, "p")
    if isinstance(ty, IntType):
        ns["_max_s"] = ty.max_signed
        ns["_span"] = ty.max_unsigned + 1
        decode = (
            "    m = int.from_bytes(raw, 'little')\n"
            "    values[_key] = m - _span if m > _max_s else m\n"
        )
    elif isinstance(ty, FloatType):
        ns["_unpack"] = struct.Struct("<d" if ty.bits == 64 else "<f").unpack
        decode = "    values[_key] = _unpack(raw)[0]\n"
    elif isinstance(ty, PointerType):
        decode = "    values[_key] = int.from_bytes(raw, 'little')\n"
    else:
        get_ptr = _operand(inst.pointer)
        rep = str(ty)

        def bad_load_op(interp, frame, _rep=rep):
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            int(get_ptr(interp, frame.values))
            stats.cycles += interp._cost_memory
            stats.loads += 1
            raise InterpError(f"cannot load a value of type {_rep}")

        return bad_load_op
    return _gen(
        "def op(interp, frame):\n"
        "    stats = interp.stats\n"
        "    stats.cycles += interp._cost_instruction\n"
        "    values = frame.values\n"
        "    try:\n"
        f"        address = int({pointer})\n"
        "    except KeyError:\n"
        "        _raise_undefined(interp, values, _ptr_v)\n"
        "    stats.cycles += interp._cost_memory\n"
        "    stats.loads += 1\n"
        "    if interp._tier_boundary is not None:\n"
        "        interp._charge_tier(address)\n"
        "    if interp.access_probe is not None:\n"
        "        interp.access_probe(address, _size, 'read')\n"
        "    if interp.is_carat:\n"
        "        raw = interp.memory.read_bytes(address, _size)\n"
        "    else:\n"
        "        raw = interp._read_mem(address, _size, 'read')\n"
        f"{decode}",
        ns,
    )


def _compile_store(inst: StoreInst) -> Op:
    ty = inst.value.type
    size = size_of(ty)
    ns: Dict[str, object] = {
        "_size": size,
        "_ptr_v": inst.pointer,
        "_val_v": inst.value,
    }
    pointer = _expr(inst.pointer, ns, "p")
    value = _expr(inst.value, ns, "v")
    if isinstance(ty, IntType):
        ns["_max_u"] = ty.max_unsigned
        encode = f"(int(value) & _max_u).to_bytes(_size, 'little')"
    elif isinstance(ty, FloatType):
        ns["_pack"] = struct.Struct("<d" if ty.bits == 64 else "<f").pack
        encode = "_pack(float(value))"
    elif isinstance(ty, PointerType):
        ns["_mask64"] = _MASK64
        encode = "(int(value) & _mask64).to_bytes(8, 'little')"
    else:
        get_ptr = _operand(inst.pointer)
        get_val = _operand(inst.value)
        rep = str(ty)

        def bad_store_op(interp, frame, _rep=rep):
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            values = frame.values
            int(get_ptr(interp, values))
            get_val(interp, values)
            stats.cycles += interp._cost_memory
            stats.stores += 1
            raise InterpError(f"cannot store a value of type {_rep}")

        return bad_store_op
    return _gen(
        "def op(interp, frame):\n"
        "    stats = interp.stats\n"
        "    stats.cycles += interp._cost_instruction\n"
        "    values = frame.values\n"
        "    try:\n"
        f"        address = int({pointer})\n"
        f"        value = {value}\n"
        "    except KeyError:\n"
        "        _raise_undefined(interp, values, _ptr_v, _val_v)\n"
        "    stats.cycles += interp._cost_memory\n"
        "    stats.stores += 1\n"
        "    if interp._tier_boundary is not None:\n"
        "        interp._charge_tier(address)\n"
        "    if interp.access_probe is not None:\n"
        "        interp.access_probe(address, _size, 'write')\n"
        f"    raw = {encode}\n"
        "    if interp.is_carat:\n"
        "        interp.memory.write_bytes(address, raw)\n"
        "    else:\n"
        "        interp._write_mem(address, raw)\n",
        ns,
    )


def _compile_select(inst: SelectInst) -> Op:
    key = id(inst)
    get_cond = _operand(inst.condition)
    get_true = _operand(inst.true_value)
    get_false = _operand(inst.false_value)

    def select_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        values = frame.values
        chosen = get_true if get_cond(interp, values) else get_false
        values[key] = chosen(interp, values)

    return select_op


def _compile_alloca(inst: AllocaInst) -> Op:
    key = id(inst)
    stride = stride_of(inst.allocated_type)
    if isinstance(inst.count, ConstantInt):
        size = stride * max(0, inst.count.value)

        def static_alloca_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            new_sp = (interp.sp - size) & ~0xF
            if new_sp <= interp.stack_base:
                raise ProtectionFault(new_sp, size, "stack")
            interp.sp = new_sp
            frame.values[key] = new_sp

        return static_alloca_op
    get_count = _operand(inst.count)

    def alloca_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        size = stride * max(0, int(get_count(interp, frame.values)))
        new_sp = (interp.sp - size) & ~0xF
        if new_sp <= interp.stack_base:
            raise ProtectionFault(new_sp, size, "stack")
        interp.sp = new_sp
        frame.values[key] = new_sp

    return alloca_op


def _compile_branch(inst: BranchInst, code: "ModuleCode") -> Op:
    source = inst.parent
    if not inst.is_conditional:
        edge = _Edge(code, source, inst.targets[0])
        if not edge.moves:
            target = edge.target
            first_index = edge.first_index

            def jump_op(interp, frame):
                interp.stats.cycles += interp._cost_instruction
                frame.prev_block = frame.block
                frame.block = target
                frame.index = first_index
                ops = edge.ops
                frame.ops = ops if ops is not None else edge.resolve()

            return jump_op
        if len(edge.moves) == 1:
            # The canonical loop latch: one phi move, fully inlined.
            ((phi_key, get_in),) = edge.moves
            target = edge.target
            first_index = edge.first_index

            def jump_phi1_op(interp, frame):
                stats = interp.stats
                stats.cycles += interp._cost_instruction
                values = frame.values
                value = get_in(interp, values)
                stats.cycles += interp._cost_instruction
                stats.instructions += 1
                values[phi_key] = value
                frame.prev_block = frame.block
                frame.block = target
                frame.index = first_index
                ops = edge.ops
                frame.ops = ops if ops is not None else edge.resolve()

            return jump_phi1_op
        enter = _edge_enter(edge)

        def jump_phi_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            enter(interp, frame)

        return jump_phi_op
    edge_true = _Edge(code, source, inst.targets[0])
    edge_false = _Edge(code, source, inst.targets[1])
    cond_v = inst.condition
    cond_key = _slot_key(cond_v)
    if cond_key is not None and not edge_true.moves and not edge_false.moves:

        def branch_slot_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            try:
                cond = values[cond_key]
            except KeyError:
                _raise_undefined(interp, values, cond_v)
            edge = edge_true if cond else edge_false
            frame.prev_block = frame.block
            frame.block = edge.target
            frame.index = edge.first_index
            ops = edge.ops
            frame.ops = ops if ops is not None else edge.resolve()

        return branch_slot_op
    enter_true = _edge_enter(edge_true)
    enter_false = _edge_enter(edge_false)
    if cond_key is not None:

        def branch_slot_phi_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            try:
                cond = values[cond_key]
            except KeyError:
                _raise_undefined(interp, values, cond_v)
            if cond:
                enter_true(interp, frame)
            else:
                enter_false(interp, frame)

        return branch_slot_phi_op
    get_cond = _operand(cond_v)

    def branch_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        if get_cond(interp, frame.values):
            enter_true(interp, frame)
        else:
            enter_false(interp, frame)

    return branch_op


def _compile_return(inst: ReturnInst) -> Op:
    get_v = _operand(inst.return_value) if inst.return_value is not None else None

    def return_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        value = get_v(interp, frame.values) if get_v is not None else None
        interp.sp = frame.sp_on_entry
        frames = interp.frames
        frames.pop()
        if not frames:
            if value is not None and isinstance(value, int):
                interp.exit_code = value
            raise ExitProgram(interp.exit_code)
        target = frame.result_target
        if target is not None and value is not None:
            frames[-1].values[id(target)] = value

    return return_op


def _compile_phi(inst: PhiInst) -> Op:
    block_name = inst.parent.name

    def phi_op(interp, frame, _name=block_name):
        interp.stats.cycles += interp._cost_instruction
        raise InterpError(f"phi executed out of band in %{_name}")

    return phi_op


def _compile_unreachable(inst: UnreachableInst) -> Op:
    fn_name = inst.parent.parent.name

    def unreachable_op(interp, frame, _name=fn_name):
        interp.stats.cycles += interp._cost_instruction
        raise InterpError(
            f"reached 'unreachable' in @{_name} "
            f"(undefined behavior at run time)"
        )

    return unreachable_op


# ----------------------------------------------------------------------
# Calls and intrinsics
# ----------------------------------------------------------------------


def _compile_intrinsic(inst: CallInst, name: str, code: "ModuleCode") -> Op:
    """CARAT intrinsics: no ``calls`` counter, no call cost — only the
    guard/tracking cycles the runtime reports (matches ``_exec_intrinsic``).
    Guard sites get a numbered memoization cell for the region cache."""
    args = inst.args
    if name in (GUARD_LOAD, GUARD_STORE):
        site = code.new_guard_site(inst)
        ns: Dict[str, object] = {
            "_site": site,
            "_access": "read" if name == GUARD_LOAD else "write",
            "_addr_v": args[0],
            "_size_v": args[1],
        }
        addr = _expr(args[0], ns, "a")
        size = _expr(args[1], ns, "s")
        return _gen(
            "def op(interp, frame):\n"
            "    stats = interp.stats\n"
            "    stats.cycles += interp._cost_instruction\n"
            "    runtime = interp.process.runtime\n"
            "    if runtime is None:\n"
            "        return\n"
            "    values = frame.values\n"
            "    try:\n"
            f"        address = int({addr})\n"
            f"        size = int({size})\n"
            "    except KeyError:\n"
            "        _raise_undefined(interp, values, _addr_v, _size_v)\n"
            "    cycles = runtime.guard_access(\n"
            "        address, size, _access, interp._guard_cells[_site])\n"
            "    stats.guard_cycles += cycles\n"
            "    stats.cycles += cycles\n",
            ns,
        )
    if name == GUARD_CALL:
        site = code.new_guard_site(inst)
        ns = {"_site": site, "_size_v": args[0]}
        size = _expr(args[0], ns, "s")
        return _gen(
            "def op(interp, frame):\n"
            "    stats = interp.stats\n"
            "    stats.cycles += interp._cost_instruction\n"
            "    runtime = interp.process.runtime\n"
            "    if runtime is None:\n"
            "        return\n"
            "    values = frame.values\n"
            "    try:\n"
            f"        size = int({size})\n"
            "    except KeyError:\n"
            "        _raise_undefined(interp, values, _size_v)\n"
            "    cycles = runtime.guard_call(\n"
            "        interp.sp, size, interp._guard_cells[_site])\n"
            "    stats.guard_cycles += cycles\n"
            "    stats.cycles += cycles\n",
            ns,
        )
    if name == GUARD_RANGE:
        site = code.new_guard_site(inst)
        ns = {"_site": site, "_addr_v": args[0], "_len_v": args[1]}
        addr = _expr(args[0], ns, "a")
        length = _expr(args[1], ns, "n")
        if len(args) > 2:
            ns["_flag_v"] = args[2]
            flag = _expr(args[2], ns, "f")
            access = f"('write' if int({flag}) else 'read')"
            undef = "_raise_undefined(interp, values, _addr_v, _len_v, _flag_v)"
        else:
            access = "'read'"
            undef = "_raise_undefined(interp, values, _addr_v, _len_v)"
        return _gen(
            "def op(interp, frame):\n"
            "    stats = interp.stats\n"
            "    stats.cycles += interp._cost_instruction\n"
            "    runtime = interp.process.runtime\n"
            "    if runtime is None:\n"
            "        return\n"
            "    values = frame.values\n"
            "    try:\n"
            f"        address = int({addr})\n"
            f"        length = int({length})\n"
            f"        access = {access}\n"
            "    except KeyError:\n"
            f"        {undef}\n"
            "    cycles = runtime.guard_range(\n"
            "        address, length, access, interp._guard_cells[_site])\n"
            "    stats.guard_cycles += cycles\n"
            "    stats.cycles += cycles\n",
            ns,
        )
    if name in (TRACK_ALLOC, TRACK_FREE, TRACK_ESCAPE):
        getters = tuple(_operand(a) for a in args)
        if name == TRACK_ALLOC:
            get_a, get_b = getters[0], getters[1]

            def dispatch(interp, runtime, values):
                runtime.on_alloc(
                    int(get_a(interp, values)), int(get_b(interp, values)), "heap"
                )

        elif name == TRACK_FREE:
            get_a = getters[0]

            def dispatch(interp, runtime, values):
                runtime.on_free(int(get_a(interp, values)))

        else:
            get_a = getters[0]

            def dispatch(interp, runtime, values):
                runtime.on_escape(int(get_a(interp, values)))

        def track_op(interp, frame):
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            runtime = interp.process.runtime
            if runtime is None:
                return
            rstats = runtime.stats
            before = rstats.guard_cycles + rstats.tracking_cycles
            dispatch(interp, runtime, frame.values)
            delta = rstats.guard_cycles + rstats.tracking_cycles - before
            stats.tracking_cycles += delta
            stats.cycles += delta

        return track_op
    getters = tuple(_operand(a) for a in args)

    def unknown_intrinsic_op(interp, frame, _name=name):
        interp.stats.cycles += interp._cost_instruction
        if interp.process.runtime is None:
            return
        for getter in getters:
            getter(interp, frame.values)
        raise InterpError(f"unknown CARAT intrinsic {_name!r}")

    return unknown_intrinsic_op


def _compile_call(inst: CallInst, code: "ModuleCode") -> Op:
    callee = inst.callee
    if not isinstance(callee, Function):

        def indirect_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            raise InterpError("indirect calls are rejected by CARAT restrictions")

        return indirect_op
    name = callee.name
    if name.startswith("carat."):
        return _compile_intrinsic(inst, name, code)
    if callee.is_declaration:
        want_result = not inst.type.is_void
        key = id(inst)

        def builtin_op(interp, frame):
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            stats.calls += 1
            result = interp._exec_builtin(frame, inst, name)
            if want_result and result is not None:
                frame.values[key] = result
            stats.cycles += interp._cost_call

        return builtin_op
    arg_moves = tuple(
        (id(formal), _operand(actual))
        for formal, actual in zip(callee.args, inst.args)
    )
    result_target = inst if not inst.type.is_void else None
    entry_cell: List[List[Tuple[Op, bool]]] = []

    def call_op(interp, frame):
        stats = interp.stats
        stats.cycles += interp._cost_instruction
        stats.calls += 1
        frames = interp.frames
        if len(frames) >= interp.max_call_depth:
            raise InterpError(
                f"call depth exceeded ({interp.max_call_depth}) calling @{name}"
            )
        stats.cycles += interp._cost_call
        new_frame = _FastFrame(callee, interp.sp)
        values = frame.values
        new_values = new_frame.values
        for formal_key, getter in arg_moves:
            new_values[formal_key] = getter(interp, values)
        new_frame.result_target = result_target
        if entry_cell:
            new_frame.ops = entry_cell[0]
        else:
            ops = code.ops_by_block[id(callee.entry)]
            entry_cell.append(ops)
            new_frame.ops = ops
        frames.append(new_frame)

    return call_op


# ----------------------------------------------------------------------
# Whole-module compilation, cached on the module
# ----------------------------------------------------------------------

_METADATA_KEY = "fastexec.code"


class ModuleCode:
    """The compiled form of one module: per-block op lists plus guard-site
    numbering.  Cached in ``Module.metadata`` and shared across every run
    of the binary — per-run state (guard cells) lives on the interpreter,
    keyed by the site indices assigned here."""

    def __init__(self, module: Module) -> None:
        self.module = module
        #: block id -> list of (op, is_terminator), index-aligned with
        #: ``block.instructions``.  The terminator flag rides along so the
        #: dispatch loop's safepoint check costs one tuple unpack.
        self.ops_by_block: Dict[int, List[Tuple[Op, bool]]] = {}
        self.guard_sites = 0
        #: instruction id -> guard-site index, so the trace tier can find
        #: the memoization cell belonging to a guard it re-compiles.
        self.guard_site_of: Dict[int, int] = {}
        #: (anchor id, chain ids, variant) -> compiled trace code, shared
        #: across interpreters of the same binary (see machine.tracejit).
        self.trace_codes: Dict[tuple, object] = {}
        self.compiled_blocks = 0
        self.compiled_functions = 0
        for function in module.functions.values():
            if function.is_declaration:
                continue
            self.compiled_functions += 1
            for block in function.blocks:
                self.ops_by_block[id(block)] = [
                    (self._compile(inst), inst.is_terminator)
                    for inst in block.instructions
                ]
                self.compiled_blocks += 1

    def new_guard_site(self, inst: Instruction) -> int:
        site = self.guard_sites
        self.guard_sites += 1
        self.guard_site_of[id(inst)] = site
        return site

    def _compile(self, inst: Instruction) -> Op:
        if isinstance(inst, BinaryInst):
            return _compile_binary(inst)
        if isinstance(inst, LoadInst):
            return _compile_load(inst)
        if isinstance(inst, StoreInst):
            return _compile_store(inst)
        if isinstance(inst, GEPInst):
            return _compile_gep(inst)
        if isinstance(inst, ICmpInst):
            return _compile_icmp(inst)
        if isinstance(inst, FCmpInst):
            return _compile_fcmp(inst)
        if isinstance(inst, CastInst):
            return _compile_cast(inst)
        if isinstance(inst, SelectInst):
            return _compile_select(inst)
        if isinstance(inst, AllocaInst):
            return _compile_alloca(inst)
        if isinstance(inst, BranchInst):
            return _compile_branch(inst, self)
        if isinstance(inst, PhiInst):
            return _compile_phi(inst)
        if isinstance(inst, CallInst):
            return _compile_call(inst, self)
        if isinstance(inst, ReturnInst):
            return _compile_return(inst)
        if isinstance(inst, UnreachableInst):
            return _compile_unreachable(inst)
        opcode = inst.opcode

        def unknown_op(interp, frame, _opcode=opcode):
            interp.stats.cycles += interp._cost_instruction
            raise InterpError(f"unknown instruction {_opcode!r}")

        return unknown_op


def compile_module(module: Module) -> Tuple[ModuleCode, bool]:
    """Get-or-build the compiled code for ``module``.  Returns
    ``(code, was_cached)``."""
    cached = module.metadata.get(_METADATA_KEY)
    if isinstance(cached, ModuleCode) and cached.module is module:
        return cached, True
    code = ModuleCode(module)
    module.metadata[_METADATA_KEY] = code
    return code, False


# ----------------------------------------------------------------------
# The fast interpreter
# ----------------------------------------------------------------------


class FastInterpreter(Interpreter):
    """Drop-in Interpreter that executes compiled ops.

    Inherits every slow-path helper (translation, builtins, snapshots,
    retry) from the reference; only the dispatch loop and the frame
    construction differ.  Stats parity is bit-exact for all modeled
    counters; the ``dispatch_cache_*``/``compiled_blocks`` fields and the
    runtime's ``region_cache_*`` counters are the only additions.
    """

    def __init__(
        self,
        process: Process,
        kernel: Kernel,
        max_call_depth: int = 512,
        stack_range: Optional[Tuple[int, int]] = None,
        thread_id: int = 0,
    ) -> None:
        super().__init__(process, kernel, max_call_depth, stack_range, thread_id)
        code, was_cached = compile_module(self.module)
        self._code = code
        self.stats.compiled_blocks = code.compiled_blocks
        # Hit/miss accounting is in *block* units, matching
        # ``compiled_blocks``: a cold run compiles every block (all
        # misses), a warm run reuses every block (all hits).  Counting
        # functions here — or nothing on the cold path — made the hit
        # rate unrelatable to the cache's actual unit of work.
        if was_cached:
            self.stats.dispatch_cache_hits = code.compiled_blocks
        else:
            self.stats.dispatch_cache_misses = code.compiled_blocks
        #: Per-site region-cache cells — per interpreter, NOT in the
        #: shared compiled code: a fresh RegionSet could coincidentally
        #: repeat a stale (generation, geometry) pair across runs.
        self._guard_cells = [GuardSiteCell() for _ in range(code.guard_sites)]
        # Cost-model constants snapshotted for the hot loop.
        self._cost_instruction = self.costs.instruction
        self._cost_memory = self.costs.memory_access
        self._cost_call = self.costs.call
        runtime = process.runtime
        if runtime is not None:
            runtime.enable_region_cache()

    def start(self, entry: str = "main", args: Tuple = ()) -> None:
        function = self.module.get_function(entry)
        if function.is_declaration:
            raise InterpError(f"entry point @{entry} has no body")
        frame = _FastFrame(function, self.sp)
        frame.ops = self._code.ops_by_block[id(frame.block)]
        for formal, actual in zip(function.args, args):
            frame.values[id(formal)] = actual
        self.frames.append(frame)
        self.finished = False

    def run_steps(self, max_steps: int) -> str:
        """Same contract and safepoint semantics as the reference loop —
        only the per-instruction work is the pre-compiled op."""
        if self.profiler is not None:
            return self._run_steps_profiled(max_steps)
        steps = 0
        at_safepoint = False
        frames = self.frames
        stats = self.stats
        hard_stop = max_steps + 100_000
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
            if is_terminator and stats.instructions >= self._next_tick:
                self._tick()
        if not frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"

    def _run_steps_profiled(self, max_steps: int) -> str:
        """The dispatch loop with per-op cycle-delta capture.

        A mirror of :meth:`run_steps` — the reference engine profiles by
        wrapping ``_execute``, but here the op call *is* the hot loop, so
        the profiled variant lives in its own method and the unprofiled
        loop stays untouched.  The snapshot/account pair brackets exactly
        the op call (cycles are only ever charged inside ops), and
        ``account`` runs in a ``finally`` so faulting instructions still
        reconcile.  No simulated cycles are charged by any of this.
        """
        profiler = self.profiler
        steps = 0
        at_safepoint = False
        frames = self.frames
        stats = self.stats
        hard_stop = max_steps + 100_000
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
            name = frame.function.name
            profiler.current_function = name
            before = profiler.snap(stats)
            try:
                try:
                    op(self, frame)
                finally:
                    profiler.account(name, stats, before)
            except ExitProgram as exit_request:
                self.exit_code = exit_request.code
                frames.clear()
                break
            steps += 1
            stats.instructions += 1
            at_safepoint = is_terminator
            if is_terminator and stats.instructions >= self._next_tick:
                self._tick()
        if not frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"
