"""Forkserver-style fast repeated execution of one binary.

Real AFL++ injects a forkserver so the target's process image is set up
once and each test case only pays for a fork (§3.2, [26]).  The analog
here: the :class:`~repro.vm.memory.ImageLayout` (global layout, frame
layouts, coverage ids) is computed once per binary, and every ``run`` gets
a fresh machine that merely copies the pre-built segment templates.

The forkserver also owns the binary's
:class:`~repro.vm.lockstep.DecodedProgram`: the first execution decodes
the IR into flat pre-resolved instruction tables, and every input runs
from that decoded form (later executions are decode-cache hits),
coverage runs of an instrumented binary included.
``REPRO_VERIFY_LOCKSTEP=1`` cross-checks every run, coverage trace
included, against the reference loop (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro.compiler.binary import CompiledBinary
from repro.vm.execution import ExecutionResult, verified
from repro.vm.lockstep import DecodedProgram, run_lockstep
from repro.vm.machine import DEFAULT_FUEL
from repro.vm.memory import ImageLayout


class ForkServer:
    """Executes many inputs against one binary with shared load-time state."""

    def __init__(
        self,
        binary: CompiledBinary,
        fuel: int = DEFAULT_FUEL,
        stats=None,
    ) -> None:
        self.binary = binary
        self.fuel = fuel
        self.layout = ImageLayout(binary)
        self.executions = 0
        #: Optional EngineStats sink; counters below are always kept so
        #: engine workers can report deltas without holding a stats object.
        self.stats = stats
        self._decoded: DecodedProgram | None = None
        self.decode_hits = 0
        self.decode_misses = 0

    def decoded(self) -> DecodedProgram:
        """The binary's decoded instruction tables, built on first use."""
        decoded = self._decoded
        if decoded is None:
            decoded = self._decoded = DecodedProgram(self.binary, self.layout)
            self.decode_misses += 1
            if self.stats is not None:
                self.stats.record_executor(decode_misses=1)
        return decoded

    def run(self, input_bytes: bytes, fuel: int | None = None, coverage=None) -> ExecutionResult:
        """Execute one input (the "forked child")."""
        self.executions += 1
        use_fuel = fuel if fuel is not None else self.fuel
        if self._decoded is not None:
            self.decode_hits += 1
            if self.stats is not None:
                self.stats.record_executor(decode_hits=1)
        decoded = self.decoded()
        return verified(
            lambda: run_lockstep(decoded, input_bytes=input_bytes, fuel=use_fuel, coverage=coverage),
            self.binary, input_bytes, use_fuel, self.layout, coverage,
        )
