"""End-to-end benchmark of the CompDiff reproduction.

One command per workload, run from the repository root::

    python3 e2e_bench/run.py --workload juliet-check --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same plan untraced and then traced, prints the per-layer metrics of the
traced pass and the tracing overhead, and writes the spans to
``e2e_bench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.

Times are reference seconds: the CPU seconds the work took,
scaled by how fast the host ran during the run (see ``yardstick.py``).
Each run is one thread of one process, so its CPU time is the work it
did, without the time other processes on a shared host took the CPU
away.  The CPU and wall time of the operations are printed beside it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Units of the end-to-end metrics, in print order (BENCHMARK.json lists them).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "execs_per_s": "1/s",
    "programs_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "seeds_per_min": "1/min",
}


def _import_program():
    """Import the package from this checkout's ``src``, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


@dataclass
class Pass:
    """Set-ups plus one timed walk over the plan.

    ``setups`` and ``ops`` are ``(start, CPU seconds)`` intervals on the
    yardstick's clock, which turns them into reference seconds.
    """

    setups: list[tuple[float, float]]
    state: object
    rec: object
    yardstick: object
    ops: list[tuple[float, float]] = field(default_factory=list)
    wall_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0

    @property
    def cpu_s(self) -> float:
        return sum(seconds for _, seconds in self.ops)

    @property
    def measured_s(self) -> float:
        """The operations' time in reference seconds."""
        return sum(self.yardstick.to_reference(self.ops))


def run_pass(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Pass:
    from spans import Recorder
    from yardstick import Yardstick

    yardstick = Yardstick()
    with yardstick:
        setups = []
        for repeat in range(SETUP_REPEATS):
            target = workdir / f"setup-{repeat}"
            target.mkdir(parents=True)
            started = yardstick.clock()
            state = workload.setup(seed, seconds, target)
            setups.append((started, yardstick.clock() - started))
        rec = Recorder(trace=trace, yardstick=yardstick)
        result = Pass(setups=setups, state=state, rec=rec, yardstick=yardstick)
        wall_started = time.perf_counter()
        with rec:
            for index, op in enumerate(state.plan):
                rec.op = index
                started = yardstick.clock()
                try:
                    problem = workload.run_op(state, op)
                except Exception:
                    problem = f"op {index} raised:\n{traceback.format_exc()}"
                result.ops.append((started, yardstick.clock() - started))
                if problem is not None:
                    result.failed_ops += 1
                    result.problems.append(problem)
            rec.op = None
        result.wall_s = time.perf_counter() - wall_started
    # Output checks run outside the timed loop; each wrong answer is a
    # failed operation.
    mismatches = workload.check(state)
    result.problems.extend(mismatches)
    result.failed_ops += len(mismatches)
    return result


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the eleventh-largest sample and its
    rank as a percentile.  With ten samples or fewer, the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def verdicts(workload, result: Pass) -> list[float]:
    """Verdict latencies in reference seconds: whole operations, or each oracle call."""
    intervals = result.ops if workload.verdict_per_op else result.rec.verdicts
    return result.yardstick.to_reference(intervals)


def end_to_end(workload, result: Pass) -> dict[str, float]:
    seconds = result.measured_s
    counts, samples = result.rec.counts, verdicts(workload, result)
    return {
        "setup_s": statistics.median(result.yardstick.to_reference(result.setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "execs_per_s": workload.execs(result.state.extra, counts) / seconds,
        "programs_per_s": counts["programs"] / seconds,
        "verdict_p50_ms": 1000.0 * statistics.median(samples),
        "verdict_tail_ms": 1000.0 * tail(samples)[0],
        "seeds_per_min": 60.0 * len(result.ops) / seconds,
    }


def work_counts(result: Pass) -> dict[str, int]:
    from spans import WORK_COUNTS

    counts = {name: result.rec.counts[name] for name in WORK_COUNTS + ("programs",)}
    counts.update(result.state.extra)
    counts["ops"] = len(result.ops)
    return counts


def verdict_outputs(result: Pass) -> str:
    return json.dumps(result.state.outputs, sort_keys=True, default=str)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from spans import TRACE_METRICS, layer_metrics
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        base = run_pass(workload, args.seed, args.seconds, False, workdir / "untraced")
        traced = None
        if args.trace:
            traced = run_pass(workload, args.seed, args.seconds, True, workdir / "traced")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(base.problems)
    failed = base.failed_ops
    yard = base.yardstick.samples
    print(f"workload {workload.name}: seed {args.seed}, {len(base.ops)} ops in "
          f"{base.measured_s:.3f} reference s ({base.cpu_s:.3f} CPU s, {base.wall_s:.3f} s wall; "
          f"yardstick mean {1000 * statistics.mean(yard):.2f} ms over {len(yard)} samples)")
    print("set-ups: " + ", ".join(f"{seconds:.3f}" for _, seconds in base.setups) + " CPU s")
    print("work counts: " + json.dumps(work_counts(base), sort_keys=True))
    samples = verdicts(workload, base)
    _, percentile = tail(samples)
    print(f"verdicts: {len(samples)} samples, tail is p{percentile:.2f}")
    print(f"persist writes: {base.rec.busy['persist.write.wall_s']:.3f} s wall")
    metrics: dict[str, dict] = {}
    if traced is None:
        for name, value in end_to_end(workload, base).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
    else:
        # The traced pass must do exactly the work the untraced one did.
        if work_counts(traced) != work_counts(base):
            problems.append(
                f"traced work counts {work_counts(traced)} != untraced {work_counts(base)}")
        if verdict_outputs(traced) != verdict_outputs(base):
            problems.append("traced verdicts differ from untraced verdicts")
        problems.extend(traced.problems)
        failed = max(failed, traced.failed_ops)
        rec = traced.rec
        scale = traced.yardstick.scale()
        for name, (value, unit) in layer_metrics(rec, traced.state.extra, scale).items():
            metrics[name] = {"value": value, "unit": unit}
        overhead = traced.measured_s - base.measured_s
        for name, value in {
            "trace.spans": len(rec.spans),
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / base.measured_s,
        }.items():
            metrics[name] = {"value": value, "unit": TRACE_METRICS[name]}
        dump = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        rec.dump(dump)
        print(f"tracing overhead: {overhead:.3f} s over {base.measured_s:.3f} s untraced "
              f"({100 * overhead / base.measured_s:.1f}%)")
        print(f"spans: {len(rec.spans)} written to {dump.relative_to(ROOT)}")
    if problems:
        failed = max(failed, 1)
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(base.ops),
        "failed": min(failed, len(base.ops)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
