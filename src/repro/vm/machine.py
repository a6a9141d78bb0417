"""The bytecode interpreter.

Executes one input against one compiled binary.  All undefined behavior is
given *some* deterministic concrete semantics here (x86-flavored: masked
shift counts, trapping integer division, truncating float→int casts); the
cross-implementation divergence the paper studies comes from the compiled
IR and the layout policy, not from interpreter nondeterminism.

Production runs go through the decoded tables of :mod:`repro.vm.lockstep`,
which reuse this state and these handlers; ``Machine._loop`` is the
reference they are pinned to (:func:`repro.vm.execution.run_reference`).
"""

from __future__ import annotations

import math
import struct

from repro.compiler.binary import CompiledBinary
from repro.errors import VMError
from repro.ir.instructions import (
    AddrGlobal,
    AddrSlot,
    BinOp,
    Branch,
    BugSite,
    Call,
    CallBuiltin,
    Cast,
    Const,
    Jump,
    Load,
    Move,
    Reg,
    Ret,
    Store,
    UnOp,
)
from repro.minic.types import FloatType, IntType, PointerType
from repro.vm.memory import ImageLayout, Memory, MemTrap, SanitizerStop

DEFAULT_FUEL = 2_000_000
OUTPUT_LIMIT = 1 << 20
#: Entries a source-line trace keeps before it stops growing.
LINE_TRACE_LIMIT = 200_000


class _Exit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


class _Timeout(Exception):
    pass


class _Frame:
    __slots__ = ("func", "regs", "taints", "base", "layout", "label", "index", "ret_reg")

    def __init__(self, func, regs, taints, base, layout, ret_reg) -> None:
        self.func = func
        self.regs = regs
        self.taints = taints
        self.base = base
        self.layout = layout
        self.label = func.entry
        self.index = 0
        self.ret_reg = ret_reg


class Machine:
    """One execution of *binary* on *input_bytes*: state, instruction
    handlers, and the reference dispatch loop ``_loop``."""

    def __init__(
        self,
        binary: CompiledBinary,
        input_bytes: bytes = b"",
        fuel: int = DEFAULT_FUEL,
        layout: ImageLayout | None = None,
        coverage=None,
        trace_lines: bool = False,
    ) -> None:
        self.binary = binary
        self.config = binary.config
        self.module = binary.module
        self.layout = layout if layout is not None else ImageLayout(binary)
        self.memory = Memory(self.layout)
        self.input = input_bytes
        self.input_cursor = 0
        self.fuel = fuel
        self.coverage = coverage if binary.instrument_coverage else None
        self._prev_location = 0
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.bug_sites: set[int] = set()
        self.executed = 0
        self.sanitizer = binary.sanitizer
        # Hot-path flags (string compares per instruction add up).
        self._msan = binary.sanitizer == "msan"
        self._ubsan = binary.sanitizer == "ubsan"
        self._frames: list[_Frame] = []
        #: Optional source-line execution trace (consecutive duplicates
        #: collapsed) for §5-style trace-alignment fault localization.
        self.trace_lines = trace_lines
        self.line_trace: list[int] = []

    # -------------------------------------------------------------- driving

    def run(self) -> tuple[int, str | None, object]:
        """Execute ``main``; returns (exit_code, trap_kind, sanitizer_stop).

        Exactly one of the three describes the outcome: trap_kind is set on
        a crash, the third element on a sanitizer abort, otherwise the exit
        code is main's return value (POSIX-truncated).
        """
        if "main" not in self.module.functions:
            raise VMError(f"module {self.module.name!r} has no main()")
        try:
            self._push_call("main", [], None, line=0)
            self._loop()
            return 0, None, None  # pragma: no cover - loop exits via _Exit
        except _Exit as stop:
            return stop.code & 0xFF, None, None
        except MemTrap as trap:
            code = {"segv": 139, "sigfpe": 136, "abort": 134}.get(trap.kind, 132)
            return code, trap.kind, None
        except SanitizerStop as stop:
            return 1, None, stop
        except _Timeout:
            return -1, "timeout", None

    def _loop(self) -> None:
        while self._frames:
            frame = self._frames[-1]
            block = frame.func.blocks.get(frame.label)
            if block is None:
                raise VMError(f"missing block {frame.label} in {frame.func.name}")
            instrs = block.instrs
            while frame.index < len(instrs):
                instr = instrs[frame.index]
                frame.index += 1
                self.executed += 1
                self.fuel -= 1
                if self.fuel <= 0:
                    raise _Timeout()
                if self.trace_lines and instr.line:
                    trace = self.line_trace
                    if (not trace or trace[-1] != instr.line) and len(trace) < LINE_TRACE_LIMIT:
                        trace.append(instr.line)
                handler = _DISPATCH.get(type(instr))
                if handler is None:
                    raise VMError(f"unhandled instruction {instr!r}")
                result = handler(self, frame, instr)
                if result is not None:
                    break  # control transfer: frame/label changed
            else:
                raise VMError(f"block {frame.label} fell through without terminator")

    # ----------------------------------------------------------- value plumbing

    def _value(self, frame: _Frame, operand):
        if isinstance(operand, Reg):
            return frame.regs[operand.id]
        return operand

    def _taint(self, frame: _Frame, operand) -> bool:
        if self._msan and isinstance(operand, Reg):
            return frame.taints[operand.id]
        return False

    def _set(self, frame: _Frame, reg: Reg, value, taint: bool = False) -> None:
        frame.regs[reg.id] = value
        if self._msan:
            frame.taints[reg.id] = taint

    # --------------------------------------------------------------- control

    def _enter_block(self, frame: _Frame, label: str) -> None:
        frame.label = label
        frame.index = 0
        if self.coverage is not None:
            cur = self.layout.label_ids[(frame.func.name, label)]
            self.coverage.record_edge(self._prev_location, cur)
            self._prev_location = cur

    def _push_call(self, callee: str, args: list, ret_reg, line: int) -> None:
        func = self.module.functions.get(callee)
        if func is None:
            raise VMError(f"call to undefined function {callee!r}")
        if len(self._frames) >= 256:
            raise MemTrap("segv", 0, line, "call stack exhausted")
        if self._ubsan and len(args) < len(func.params):
            # -fsanitize=function: call through a mismatched prototype.
            raise SanitizerStop(
                "function-type-mismatch",
                line,
                f"{callee} expects {len(func.params)} args, got {len(args)}",
            )
        regs = [0] * max(func.num_regs, len(func.params))
        taints = [False] * len(regs) if self._msan else None
        for i, (_, param_type) in enumerate(func.params):
            if i < len(args):
                value, taint = args[i]
            else:
                value, taint = self.config.missing_arg_value, False
            if isinstance(param_type, IntType):
                value = param_type.wrap(int(value))
            regs[i] = value
            if taints is not None:
                taints[i] = taint
        base, frame_layout = self.memory.push_frame(func.name, line)
        self._frames.append(self._new_frame(func, regs, taints, base, frame_layout, ret_reg))
        if self.coverage is not None:
            cur = self.layout.label_ids[(func.name, func.entry)]
            self.coverage.record_edge(self._prev_location, cur)
            self._prev_location = cur

    def _new_frame(self, func, regs, taints, base, frame_layout, ret_reg) -> _Frame:
        """The callee's frame, positioned at its entry block."""
        return _Frame(func, regs, taints, base, frame_layout, ret_reg)

    # ------------------------------------------------------------ instruction ops

    def _op_const(self, frame: _Frame, instr: Const):
        self._set(frame, instr.dst, instr.value)
        return None

    def _op_move(self, frame: _Frame, instr: Move):
        self._set(frame, instr.dst, self._value(frame, instr.src), self._taint(frame, instr.src))
        return None

    def _op_addr_slot(self, frame: _Frame, instr: AddrSlot):
        offset = frame.layout.offsets[instr.slot]
        self._set(frame, instr.dst, frame.base + offset)
        return None

    def _op_addr_global(self, frame: _Frame, instr: AddrGlobal):
        addr = self.layout.global_addrs.get(instr.name)
        if addr is None:
            raise VMError(f"unknown global {instr.name!r}")
        self._set(frame, instr.dst, addr)
        return None

    def _op_load(self, frame: _Frame, instr: Load):
        addr = int(self._value(frame, instr.addr))
        if self._ubsan and 0 <= addr < 4096:
            raise SanitizerStop("null-pointer-dereference", instr.line, "load")
        value_type = instr.type if not isinstance(instr.type, PointerType) else _U64
        value = self.memory.read_scalar(addr, value_type, instr.line)
        taint = False
        if self._msan:
            taint = not self.memory.is_initialized(addr, max(value_type.size(), 1))
        self._set(frame, instr.dst, value, taint)
        return None

    def _op_store(self, frame: _Frame, instr: Store):
        addr = int(self._value(frame, instr.addr))
        if self._ubsan and 0 <= addr < 4096:
            raise SanitizerStop("null-pointer-dereference", instr.line, "store")
        value = self._value(frame, instr.src)
        value_type = instr.type if not isinstance(instr.type, PointerType) else _U64
        self.memory.write_scalar(addr, value, value_type, instr.line)
        if self._msan:
            size = max(value_type.size(), 1)
            self.memory.mark_initialized(addr, size, not self._taint(frame, instr.src))
        return None

    def _op_cast(self, frame: _Frame, instr: Cast):
        value = self._value(frame, instr.src)
        taint = self._taint(frame, instr.src)
        self._set(frame, instr.dst, _cast_value(value, instr.from_type, instr.to_type), taint)
        return None

    def _op_unop(self, frame: _Frame, instr: UnOp):
        value = self._value(frame, instr.src)
        taint = self._taint(frame, instr.src)
        if instr.op == "neg":
            assert isinstance(instr.type, IntType)
            result = instr.type.wrap(-int(value))
        elif instr.op == "not":
            assert isinstance(instr.type, IntType)
            result = instr.type.wrap(~int(value))
        elif instr.op == "fneg":
            result = -float(value)
        else:  # pragma: no cover
            raise VMError(f"unknown unop {instr.op}")
        self._set(frame, instr.dst, result, taint)
        return None

    def _op_binop(self, frame: _Frame, instr: BinOp):
        lhs = self._value(frame, instr.lhs)
        rhs = self._value(frame, instr.rhs)
        taint = self._taint(frame, instr.lhs) or self._taint(frame, instr.rhs)
        if isinstance(instr.type, FloatType) or instr.op[0] == "f":
            result = self._float_binop(instr, lhs, rhs)
        else:
            result = self._int_binop(instr, int(lhs), int(rhs))
        self._set(frame, instr.dst, result, taint)
        return None

    def _int_binop(self, instr: BinOp, lhs: int, rhs: int):
        op = instr.op
        itype = instr.type
        assert isinstance(itype, IntType)
        bits = itype.bits
        if op == "add":
            result = lhs + rhs
        elif op == "sub":
            result = lhs - rhs
        elif op == "mul":
            result = lhs * rhs
        elif op in ("sdiv", "srem"):
            a, d = itype.wrap(lhs), itype.wrap(rhs)
            if d == 0:
                if self._ubsan:
                    raise SanitizerStop("division-by-zero", instr.line)
                raise MemTrap("sigfpe", 0, instr.line, "integer division by zero")
            if a == itype.min_value and d == -1:
                if self._ubsan:
                    raise SanitizerStop("signed-integer-overflow", instr.line, "division")
                raise MemTrap("sigfpe", 0, instr.line, "division overflow")
            quotient = abs(a) // abs(d) * (1 if (a >= 0) == (d >= 0) else -1)
            result = quotient if op == "sdiv" else a - quotient * d
        elif op in ("udiv", "urem"):
            mask = (1 << bits) - 1
            a, d = lhs & mask, rhs & mask
            if d == 0:
                if self._ubsan:
                    raise SanitizerStop("division-by-zero", instr.line)
                raise MemTrap("sigfpe", 0, instr.line, "integer division by zero")
            result = a // d if op == "udiv" else a % d
        elif op in ("shl", "lshr", "ashr"):
            if self._ubsan and not 0 <= rhs < bits:
                raise SanitizerStop("invalid-shift", instr.line, f"count {rhs}")
            count = rhs % bits  # x86-style masked count (one legal UB outcome)
            if op == "shl":
                result = lhs << count
            elif op == "lshr":
                result = (lhs & ((1 << bits) - 1)) >> count
            else:
                result = itype.wrap(lhs) >> count
        elif op == "and":
            result = lhs & rhs
        elif op == "or":
            result = lhs | rhs
        elif op == "xor":
            result = lhs ^ rhs
        elif op in ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"):
            return self._int_cmp(op, lhs, rhs, itype)
        else:  # pragma: no cover
            raise VMError(f"unknown binop {op}")
        if (
            self._ubsan
            and instr.nsw
            and op in ("add", "sub", "mul")
            and not itype.contains(result)
        ):
            raise SanitizerStop("signed-integer-overflow", instr.line, f"{op} {itype}")
        return itype.wrap(result)

    def _int_cmp(self, op: str, lhs: int, rhs: int, itype: IntType) -> int:
        if op[0] == "u" or not itype.signed:
            mask = (1 << itype.bits) - 1
            lhs &= mask
            rhs &= mask
        else:
            lhs = itype.wrap(lhs)
            rhs = itype.wrap(rhs)
        base = op[1:] if op[0] in "su" else op
        if base == "eq":
            return int(lhs == rhs)
        if base == "ne":
            return int(lhs != rhs)
        if base == "lt":
            return int(lhs < rhs)
        if base == "le":
            return int(lhs <= rhs)
        if base == "gt":
            return int(lhs > rhs)
        return int(lhs >= rhs)

    def _float_binop(self, instr: BinOp, lhs, rhs):
        lhs = float(lhs)
        rhs = float(rhs)
        op = instr.op
        if op == "fadd":
            result = lhs + rhs
        elif op == "fsub":
            result = lhs - rhs
        elif op == "fmul":
            result = lhs * rhs
        elif op == "fdiv":
            if rhs == 0.0:
                result = math.inf if lhs > 0 else (-math.inf if lhs < 0 else math.nan)
            else:
                result = lhs / rhs
        elif op == "feq":
            return int(lhs == rhs)
        elif op == "fne":
            return int(lhs != rhs)
        elif op == "flt":
            return int(lhs < rhs)
        elif op == "fle":
            return int(lhs <= rhs)
        elif op == "fgt":
            return int(lhs > rhs)
        elif op == "fge":
            return int(lhs >= rhs)
        else:  # pragma: no cover
            raise VMError(f"unknown float op {op}")
        if (
            isinstance(instr.type, FloatType)
            and instr.type.bits == 32
            and not self.config.fp_extended_intermediate
        ):
            # SSE-style: round to single precision after every operation.
            # fp_extended_intermediate keeps the x87-style double-rounded
            # chain, a classic source of float divergence (§4.3 RQ2).
            result = struct.unpack("<f", struct.pack("<f", result))[0]
        return result

    def _op_bugsite(self, frame: _Frame, instr: BugSite):
        self.bug_sites.add(instr.site)
        return None

    def _op_jump(self, frame: _Frame, instr: Jump):
        self._enter_block(frame, instr.target)
        return True

    def _op_branch(self, frame: _Frame, instr: Branch):
        if self._msan and self._taint(frame, instr.cond):
            raise SanitizerStop("use-of-uninitialized-value", instr.line, "branch")
        cond = self._value(frame, instr.cond)
        self._enter_block(frame, instr.if_true if cond else instr.if_false)
        return True

    def _op_ret(self, frame: _Frame, instr: Ret):
        value = 0 if instr.value is None else self._value(frame, instr.value)
        taint = self._taint(frame, instr.value) if instr.value is not None else False
        self.memory.pop_frame(frame.base, frame.layout)
        self._frames.pop()
        if not self._frames:
            raise _Exit(int(value) if isinstance(value, (int, float)) else 0)
        caller = self._frames[-1]
        if frame.ret_reg is not None:
            self._set(caller, frame.ret_reg, value, taint)
        return True

    def _op_call(self, frame: _Frame, instr: Call):
        args = [
            (self._value(frame, a), self._taint(frame, a)) for a in instr.args
        ]
        self._push_call(instr.callee, args, instr.dst, instr.line)
        return True

    def _op_builtin(self, frame: _Frame, instr: CallBuiltin):
        from repro.vm.runtime import call_builtin

        result, taint = call_builtin(self, frame, instr)
        if instr.dst is not None:
            self._set(frame, instr.dst, result, taint)
        return None

    # ------------------------------------------------------------------ output

    def emit_stdout(self, data: bytes) -> None:
        if len(self.stdout) < OUTPUT_LIMIT:
            self.stdout += data

    def emit_stderr(self, data: bytes) -> None:
        if len(self.stderr) < OUTPUT_LIMIT:
            self.stderr += data


_U64 = IntType(64, signed=False)


def _cast_value(value, from_type, to_type):
    if isinstance(to_type, IntType):
        if isinstance(from_type, FloatType):
            f = float(value)
            if math.isnan(f) or math.isinf(f):
                return to_type.min_value
            truncated = int(f)
            if not to_type.contains(truncated):
                # x86 cvttsd2si "integer indefinite" result.
                return to_type.min_value
            return truncated
        return to_type.wrap(int(value))
    if isinstance(to_type, FloatType):
        result = float(value)
        if to_type.bits == 32:
            result = struct.unpack("<f", struct.pack("<f", result))[0]
        return result
    return value


_DISPATCH = {
    Const: Machine._op_const,
    Move: Machine._op_move,
    AddrSlot: Machine._op_addr_slot,
    AddrGlobal: Machine._op_addr_global,
    Load: Machine._op_load,
    Store: Machine._op_store,
    Cast: Machine._op_cast,
    UnOp: Machine._op_unop,
    BinOp: Machine._op_binop,
    BugSite: Machine._op_bugsite,
    Jump: Machine._op_jump,
    Branch: Machine._op_branch,
    Ret: Machine._op_ret,
    Call: Machine._op_call,
    CallBuiltin: Machine._op_builtin,
}
