"""Execution results, the one-shot run entry point, and the reference run."""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, fields

from repro.compiler.binary import CompiledBinary
from repro.errors import ReproError
from repro.vm.machine import DEFAULT_FUEL, Machine
from repro.vm.memory import ImageLayout


class Status(enum.Enum):
    """Terminal state of one execution."""

    OK = "ok"
    CRASH = "crash"
    #: The VM exhausted its *fuel* (instruction budget).  More fuel may
    #: let the execution finish — this is what the RQ6 retry path escalates.
    TIMEOUT = "timeout"
    SANITIZER = "sanitizer"
    #: A *wall-clock* deadline expired (hung or repeatedly-dying worker):
    #: no result was produced and no amount of fuel would help.  Results
    #: with this status are dropped from the cross-check (k-1 differential)
    #: instead of being retried or compared.
    DEADLINE = "deadline"


@dataclass
class ExecutionResult:
    """Everything observable about one (binary, input) execution."""

    stdout: bytes
    stderr: bytes
    exit_code: int
    status: Status
    #: "segv" | "sigfpe" | "abort" when status is CRASH.
    trap: str | None = None
    #: (kind, line, detail) when status is SANITIZER.
    sanitizer_report: tuple[str, int, str] | None = None
    #: Ground-truth bug sites reached during this execution.
    bug_sites: frozenset[int] = frozenset()
    executed_instructions: int = 0
    binary_name: str = ""
    #: Source-line execution trace (only populated when requested).
    line_trace: tuple[int, ...] = ()
    #: Normalized observation checksum, computed once where the execution
    #: happened (engine workers fill this in so the oracle never derives
    #: it a second time from ``observations``).  ``None`` means "not yet
    #: computed" — CompDiff falls back to deriving it parent-side.
    output_checksum: int | None = None

    def observation(self) -> tuple:
        """The tuple CompDiff compares across implementations.

        Final outputs plus the exit status — the paper's oracle observes a
        process's stdout/stderr (redirected via dup2) and its exit, so a
        crash in one binary and a clean run in another is a discrepancy.
        """
        return (self.stdout, self.stderr, self.exit_code, self.status is Status.TIMEOUT)

    @property
    def crashed(self) -> bool:
        return self.status is Status.CRASH

    @property
    def timed_out(self) -> bool:
        """Fuel exhaustion only — never wall-clock deadline expiry, so the
        RQ6 fuel-escalation retry never re-runs a genuinely hung task."""
        return self.status is Status.TIMEOUT

    @property
    def deadline_expired(self) -> bool:
        return self.status is Status.DEADLINE


def deadline_result(binary_name: str, reason: str) -> ExecutionResult:
    """Placeholder for an execution that never produced a result.

    Synthesized by the supervised engine when a task is quarantined or an
    implementation is dropped from a program's cross-check; carries the
    failure reason in ``stderr`` for forensics but is never checksummed.
    """
    return ExecutionResult(
        stdout=b"",
        stderr=reason.encode("utf-8", "replace"),
        exit_code=-1,
        status=Status.DEADLINE,
        binary_name=binary_name,
    )


def run_binary(
    binary: CompiledBinary,
    input_bytes: bytes = b"",
    fuel: int = DEFAULT_FUEL,
    layout: ImageLayout | None = None,
    coverage=None,
    trace_lines: bool = False,
) -> ExecutionResult:
    """Execute *binary* on *input_bytes* and collect the observation.

    Decodes the binary once (the line-tracing variant when *trace_lines*
    is set), then runs the decoded tables.
    """
    from repro.vm.lockstep import DecodedProgram, LockstepMachine

    decoded = DecodedProgram(binary, layout, trace_lines=trace_lines)
    machine = LockstepMachine(decoded, input_bytes=input_bytes, fuel=fuel, coverage=coverage)
    return verified(
        lambda: collect_result(machine, *machine.run()),
        binary, input_bytes, fuel, decoded.layout, coverage, trace_lines,
    )


def run_reference(
    binary: CompiledBinary,
    input_bytes: bytes = b"",
    fuel: int = DEFAULT_FUEL,
    layout: ImageLayout | None = None,
    coverage=None,
    trace_lines: bool = False,
) -> ExecutionResult:
    """Execute *binary* on ``Machine._loop``, the reference the decoded
    tables are pinned to (tests and ``REPRO_VERIFY_LOCKSTEP`` use it)."""
    machine = Machine(
        binary,
        input_bytes=input_bytes,
        fuel=fuel,
        layout=layout,
        coverage=coverage,
        trace_lines=trace_lines,
    )
    return collect_result(machine, *machine.run())


def verified(run, binary, input_bytes, fuel, layout, coverage=None, trace_lines=False):
    """``run()``, a decoded execution of *binary*.

    Under ``REPRO_VERIFY_LOCKSTEP=1`` the execution is rerun on
    :func:`run_reference`, recording edges into its own fresh coverage
    map, and the first field or coverage-trace mismatch raises.
    """
    if os.environ.get("REPRO_VERIFY_LOCKSTEP") != "1":
        return run()
    reference_map = None
    if coverage is not None and binary.instrument_coverage:
        from repro.fuzzing.coverage import CoverageMap

        reference_map = CoverageMap(coverage.size)
        reference_map.trace = dict(coverage.trace)
    result = run()
    reference = run_reference(binary, input_bytes, fuel, layout, reference_map, trace_lines)
    pairs = [(f.name, getattr(result, f.name), getattr(reference, f.name)) for f in fields(result)]
    if reference_map is not None:
        pairs.append(("coverage trace", coverage.trace, reference_map.trace))
    for name, got, want in pairs:
        if got != want:
            raise ReproError(
                f"lockstep divergence on {binary.name}: {name} {got!r} != reference {want!r}"
            )
    return result


def collect_result(
    machine: Machine, exit_code: int, trap: str | None, sanitizer_stop
) -> ExecutionResult:
    """Fold a finished machine's outcome into an :class:`ExecutionResult`.

    Shared by the decoded and the reference loops so the status mapping
    and sanitizer stderr report stay byte-identical.
    """
    if sanitizer_stop is not None:
        status = Status.SANITIZER
        report = (sanitizer_stop.kind, sanitizer_stop.line, sanitizer_stop.detail)
        # Sanitizers print their report to stderr, like the real tools.
        machine.emit_stderr(
            f"==SAN== {sanitizer_stop.kind} at line {sanitizer_stop.line}: "
            f"{sanitizer_stop.detail}\n".encode()
        )
    elif trap == "timeout":
        status = Status.TIMEOUT
        report = None
        exit_code = -1
        trap = None
    elif trap is not None:
        status = Status.CRASH
        report = None
    else:
        status = Status.OK
        report = None
    return ExecutionResult(
        stdout=bytes(machine.stdout),
        stderr=bytes(machine.stderr),
        exit_code=exit_code,
        status=status,
        trap=trap,
        sanitizer_report=report,
        bug_sites=frozenset(machine.bug_sites),
        executed_instructions=machine.executed,
        binary_name=machine.binary.name,
        line_trace=tuple(machine.line_trace),
    )
