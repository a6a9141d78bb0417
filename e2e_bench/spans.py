"""Boundary wrappers for the end-to-end benchmark: counters and spans.

The benchmark measures the ``repro`` package from the outside.  A
:class:`Recorder` wraps public entry points of each layer (a module
function or a class method) for the duration of a ``with`` block and
restores the originals on exit.

Two modes share one wrapper:

* **untraced** (``trace=False``) installs only the *probes*: a handful of
  coarse boundaries that count deterministic work (compiles, pass
  applications, executions, VM instructions, oracle inputs, reducer
  tests, persist writes) and time each oracle verdict.  Each probe
  costs about a microsecond or two against calls that take
  milliseconds, so the end-to-end numbers come from this mode.
* **traced** (``trace=True``) wraps every layer boundary in
  :data:`TARGETS` and records a span ``(id, parent, name, op, start,
  end)`` per call in memory.  :func:`layer_metrics` derives the
  per-layer metrics, where a layer's self time is its span's duration
  minus the time its child spans cover.

Spans and verdicts are timed in CPU seconds on the run's
:class:`yardstick.Yardstick` clock.  :func:`layer_metrics` reports
spans in reference seconds at the run's mean speed; the benchmark
scales each verdict by the speed around it.  Two figures are wall-clock
seconds: ``persist.write.wall_s``, the durable writes with their fsync
waits, and ``compiler.pass.*.busy_s``, as each binary's pass report
gives them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from yardstick import Yardstick

#: The ten passes of the pipeline, as named in each binary's pass_report.
PASSES = (
    "const_fold",
    "copy_prop",
    "dce",
    "exploit_ub",
    "inline_small",
    "merge_blocks",
    "pow_to_exp2",
    "simplify",
    "store_forward",
    "strength_reduce",
)


@dataclass(frozen=True)
class Target:
    """One wrapped boundary.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``.
    ``span`` names the span recorded in traced mode (None: count only).
    ``probe`` targets are installed in untraced mode too.  ``hook`` is
    called as ``hook(recorder, result, args, kwargs)`` after each call.
    ``wall`` names a counter that sums the calls' wall-clock seconds.
    """

    where: str
    span: str | None
    probe: bool = False
    hook: Callable | None = None
    wall: str | None = None


# ------------------------------------------------------------------ hooks
# Hooks run after the wrapped call returns and before its span closes;
# anything expensive they do runs with the recorder's clock paused, so
# it is charged to no span: not the layer, not any span around it.


def _count(name: str) -> Callable:
    def hook(rec, result, args, kwargs):
        rec.counts[name] += 1
    return hook


def _on_compile(rec, result, args, kwargs):
    module, report = result
    rec.counts["compiles"] += 1
    rec.counts["ir_instructions_out"] += module.instruction_count()
    for app in report.schedule:
        if app.applied:
            rec.counts["pass_applications"] += 1
            if rec.trace:
                rec.counts[f"compiler.pass.{app.pass_name}.applications"] += 1
                rec.busy[f"compiler.pass.{app.pass_name}.busy_s"] += app.seconds
    if rec.trace:
        with rec.paused():
            rec.final_digests.add(_module_digest(module))


def _on_lower(rec, result, args, kwargs):
    with rec.paused():
        rec.lowered_digests.add(_module_digest(result))


def _module_digest(module) -> str:
    from repro.ir.printer import format_module

    return hashlib.sha1(format_module(module).encode()).hexdigest()


def _on_vm_run(rec, result, args, kwargs):
    rec.counts["vm_instructions"] += result.executed_instructions


def _on_run_input(rec, result, args, kwargs):
    rec.counts["oracle_inputs"] += 1
    rec.counts["divergent_inputs"] += int(result.divergent)
    rec.counts["degraded_inputs"] += int(result.degraded)


def _on_reduce(rec, result, args, kwargs):
    rec.counts["reducer_tests"] += result.tests_run
    rec.counts["reducer_accepted"] += len(result.steps)


def _on_bank_add(rec, result, args, kwargs):
    rec.counts["banked"] += int(bool(result))


def _on_write(rec, result, args, kwargs):
    rec.counts["persist_writes"] += 1
    rec.counts["persist.write.bytes"] += len(args[1] if len(args) > 1 else kwargs["data"])


def _on_new_bits(rec, result, args, kwargs):
    rec.counts["fuzzing.new_coverage"] += int(bool(result))


def _on_test(rec, result, args, kwargs):
    rec.test_ms.append(1000.0 * (rec.clock() - rec.stack[-1][1]))


#: Every wrapped boundary, grouped by the layer (``src/repro/<layer>``).
TARGETS = (
    # minic
    Target("repro.minic.parser:parse", "minic.parse"),
    Target("repro.minic.checker:check", "minic.check"),
    Target("repro.minic.printer:to_source", "minic.print"),
    # compiler: compile_module_instrumented is the one funnel every
    # compile (CompDiff, bisection, sanitizers, UB oracle) goes through.
    Target("repro.compiler.binary:compile_module_instrumented", None, True, _on_compile),
    Target("repro.compiler.lowering:lower_program", "compiler.lower", hook=_on_lower),
    Target("repro.compiler.passes.manager:run_pipeline", "compiler.pipeline"),
    # vm
    Target("repro.vm.forkserver:ForkServer.run", None, True, _count("executions")),
    Target("repro.vm.lockstep:DecodedProgram.__init__", "vm.decode"),
    Target("repro.vm.lockstep:run_lockstep", "vm.decoded", True, _on_vm_run),
    Target("repro.vm.execution:run_binary", "vm.reference", True, _on_vm_run),
    # core
    Target("repro.core.compdiff:CompDiff.build", "core.build", True, _count("programs")),
    Target("repro.core.compdiff:CompDiff.check", "core.check", True),
    Target("repro.core.compdiff:CompDiff.run_input", "core.run_input", True, _on_run_input),
    Target("repro.core.bisect:bisect_divergence", "core.bisect"),
    # fuzzing
    Target("repro.fuzzing.mutators:MutationEngine.mutate", "fuzzing.mutate"),
    Target("repro.fuzzing.mutators:MutationEngine.splice", "fuzzing.mutate"),
    Target("repro.fuzzing.coverage:CoverageMap.has_new_bits", None, hook=_on_new_bits),
    # generative
    Target("repro.generative.generator:generate_program", "generative.generate"),
    Target("repro.generative.reducer:Reducer.reduce", "generative.reduce", True, _on_reduce),
    Target("repro.generative.reducer:StillDiverges.__call__", "generative.test", hook=_on_test),
    Target("repro.generative.bank:CorpusBank.add", "generative.bank_add", hook=_on_bank_add),
    # static_analysis
    Target("repro.static_analysis.ub_oracle:UBOracle.report", "static_analysis.oracle"),
    # sanitizers, sanval
    Target("repro.sanitizers.base:Sanitizer.check_all", "sanitizers.check"),
    Target("repro.sanval.relocate:relocate", "sanval.relocate"),
    Target("repro.sanval.verdict:VerdictEngine.ground_truth", "sanval.ground_truth"),
    # persist: every durable write (bank entries, manifests, checkpoints)
    Target("repro.persist:atomic_write_bytes", "persist.write", True, _on_write,
           wall="persist.write.wall_s"),
)

#: Spans whose latency the end-to-end verdict metrics report, unless
#: the workload times whole operations instead: the outermost oracle
#: verdict of each call chain (a whole program through ``check``, or
#: one input through ``run_input`` when called directly).
VERDICT_SPANS = ("core.check", "core.run_input")

#: Work counts every run prints; the tests check that they repeat.
WORK_COUNTS = (
    "compiles",
    "pass_applications",
    "ir_instructions_out",
    "executions",
    "vm_instructions",
    "oracle_inputs",
    "reducer_tests",
    "persist_writes",
)


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(where: str):
    module_name, _, qualname = where.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return getattr(module, cls_name), attr
    return module, qualname


class Recorder:
    """Installs the wrappers, and holds what they record."""

    def __init__(self, trace: bool, yardstick: Yardstick | None = None) -> None:
        self.trace = trace
        self.yardstick = yardstick or Yardstick()
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        #: (span id, parent id, name, op id, start, end), in end order.
        self.spans: list[tuple] = []
        #: Verdicts as (start, CPU seconds), outermost oracle calls only.
        self.verdicts: list[tuple[float, float]] = []
        self.test_ms: list[float] = []
        self.lowered_digests: set[str] = set()
        self.final_digests: set[str] = set()
        #: Open spans: [span id, start, name].
        self.stack: list[list] = []
        self.op: int | None = None
        #: CPU seconds spent with the clock paused (see :meth:`paused`).
        self.paused_s = 0.0
        self._next_id = 0
        self._verdict_depth = 0
        self._undo: list[Callable[[], None]] = []
        #: id(wrapper) -> (wrapper, original), for module-level wrappers.
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    # ----------------------------------------------------------- install

    def __enter__(self) -> "Recorder":
        for target in TARGETS:
            if target.probe or self.trace:
                self._install(target)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            self._undo.pop()()
        # A module first imported inside the block bound the wrapper
        # itself with ``from ... import``; put the original back there too.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                wrapper, original = self._originals.get(id(value), (None, None))
                if value is wrapper:
                    setattr(module, name, original)

    def _install(self, target: Target) -> None:
        owner, attr = _resolve(target.where)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, target))
            self._undo.append(lambda: setattr(owner, attr, original))
            return
        # A module function is also bound by name in every module that
        # imported it with ``from ... import``; rebind each of those.
        original = getattr(owner, attr)
        wrapper = self._wrap(original, target)
        self._originals[id(wrapper)] = (wrapper, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append(
                        lambda m=module, n=name: setattr(m, n, original)
                    )

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        rec = self
        span_name = target.span if self.trace else None
        hook = target.hook
        wall = target.wall
        verdict = target.span in VERDICT_SPANS

        def wrapper(*args, **kwargs):
            if verdict:
                rec._verdict_depth += 1
                started = rec.clock()
            if span_name is not None:
                rec._open(span_name)
            if wall is not None:
                wall_started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if wall is not None:
                    rec.busy[wall] += time.perf_counter() - wall_started
                if hook is not None:
                    hook(rec, result, args, kwargs)
                return result
            finally:
                if span_name is not None:
                    rec._close()
                if verdict:
                    rec._verdict_depth -= 1
                    if rec._verdict_depth == 0:
                        rec.verdicts.append((started, rec.clock() - started))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # ------------------------------------------------------------- spans

    def clock(self) -> float:
        """The yardstick's CPU clock, not counting the time spent paused."""
        return self.yardstick.clock() - self.paused_s

    @contextmanager
    def paused(self):
        """Stop the clock around benchmark-side work inside a span."""
        started = self.yardstick.clock()
        try:
            yield
        finally:
            self.paused_s += self.yardstick.clock() - started

    def _open(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, self.clock(), name])

    def _close(self) -> None:
        span_id, start, name = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((span_id, parent, name, self.op, start, self.clock()))

    def dump(self, path) -> None:
        """Write the spans as JSON lines, in the order they ended."""
        with open(path, "w") as handle:
            for span_id, parent, name, op, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "op": op,
                    "start": start, "end": end,
                }) + "\n")


# --------------------------------------------------------------- metrics


def self_times(spans: list[tuple]) -> tuple[Counter, Counter, Counter]:
    """Per span name: calls, inclusive seconds, and self seconds.

    Spans nest strictly (one thread, one stack), so the time children
    cover is the sum of their durations.
    """
    calls: Counter = Counter()
    total: Counter = Counter()
    child: Counter = Counter()
    for span_id, parent, name, _op, start, end in spans:
        duration = end - start
        calls[name] += 1
        total[name] += duration
        if parent is not None:
            child[parent] += duration
    own: Counter = Counter()
    for span_id, parent, name, _op, start, end in spans:
        own[name] += (end - start) - child.get(span_id, 0.0)
    return calls, total, own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: Recorder, extra: Counter, scale: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    *extra* carries counts the workload itself knows (fuzzer executions
    and oracle inputs, banked repros); *scale* turns the recorded CPU
    seconds into reference seconds.
    """
    calls, total, own = self_times(rec.spans)
    total = Counter({name: scale * seconds for name, seconds in total.items()})
    own = Counter({name: scale * seconds for name, seconds in own.items()})
    c = rec.counts
    out: dict[str, tuple[float, str]] = {}

    def span_pair(name: str, count_label: str = "calls", time_label: str = "self_s"):
        out[f"{name}.{count_label}"] = (calls[name], "count")
        value = own[name] if time_label == "self_s" else total[name]
        out[f"{name}.{time_label}"] = (value, "s")

    for name in ("minic.parse", "minic.check", "minic.print",
                 "compiler.lower", "compiler.pipeline"):
        span_pair(name)
    for name in PASSES:
        out[f"compiler.pass.{name}.applications"] = (
            c[f"compiler.pass.{name}.applications"], "count")
        out[f"compiler.pass.{name}.busy_s"] = (rec.busy[f"compiler.pass.{name}.busy_s"], "s")
    out["compiler.ir_instructions_out"] = (c["ir_instructions_out"], "count")
    out["compiler.lowered_distinct_ratio"] = (
        _ratio(len(rec.lowered_digests), calls["compiler.lower"]), "ratio")
    out["compiler.final_distinct_ratio"] = (
        _ratio(len(rec.final_digests), c["compiles"]), "ratio")

    span_pair("vm.decode")
    out["vm.decode_hit_ratio"] = (
        _ratio(calls["vm.decoded"] - calls["vm.decode"], calls["vm.decoded"]), "ratio")
    span_pair("vm.decoded", "runs")
    span_pair("vm.reference", "runs")
    out["vm.instructions_per_s"] = (
        _ratio(c["vm_instructions"], own["vm.decoded"] + own["vm.reference"]), "1/s")

    span_pair("core.build")
    span_pair("core.run_input")
    out["core.divergent_ratio"] = (_ratio(c["divergent_inputs"], c["oracle_inputs"]), "ratio")
    span_pair("core.bisect")

    span_pair("fuzzing.mutate")
    out["fuzzing.oracle_ratio"] = (_ratio(extra["fuzz_oracle_execs"], extra["fuzz_execs"]), "ratio")
    out["fuzzing.new_coverage_ratio"] = (
        _ratio(c["fuzzing.new_coverage"], extra["fuzz_execs"]), "ratio")

    span_pair("generative.generate")
    span_pair("generative.reduce")
    span_pair("generative.test", time_label="busy_s")
    out["generative.test.p50_ms"] = (
        scale * statistics.median(rec.test_ms) if rec.test_ms else 0.0, "ms")
    out["generative.accept_ratio"] = (
        _ratio(c["reducer_accepted"], c["reducer_tests"]), "ratio")
    out["generative.compiles_per_banked"] = (_ratio(c["compiles"], c["banked"]), "count")
    span_pair("generative.bank_add", time_label="busy_s")

    span_pair("static_analysis.oracle")
    span_pair("sanitizers.check")
    span_pair("sanval.relocate")
    span_pair("sanval.ground_truth", time_label="busy_s")
    span_pair("persist.write", time_label="busy_s")
    out["persist.write.wall_s"] = (rec.busy["persist.write.wall_s"], "s")
    out["persist.write.bytes"] = (c["persist.write.bytes"], "count")
    return out


#: Metrics about the tracing itself, reported by the traced run.
TRACE_METRICS = {
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metric_names() -> list[str]:
    """The per-layer metric names, in print order (BENCHMARK.json lists them)."""
    return list(layer_metrics(Recorder(trace=True), Counter(), 1.0)) + list(TRACE_METRICS)
