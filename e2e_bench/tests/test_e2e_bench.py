"""Tests of the end-to-end benchmark itself.

Run from the repository root (they are not part of the ``tests/`` suite)::

    python3 -m pytest e2e_bench/tests -q

The smoke runs execute the real command with ``--seconds 1``, which
plans the smallest run each workload has (one campaign, one generator
seed, a handful of Juliet cases): about two minutes in all.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int = 0, seconds: float = 1, trace: int = 0):
    """Run the benchmark command; return (exit code, stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def work_counts(lines: list[str]) -> dict:
    prefix = "work counts: "
    return json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix):])


# ------------------------------------------------------------ wrappers


def _bindings() -> dict:
    """Every current binding of every wrapped boundary."""
    found = {}
    for target in spans.TARGETS:
        owner, attr = spans._resolve(target.where)
        if isinstance(owner, type):
            found[target.where] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for module in spans._repro_modules():
            for name, value in vars(module).items():
                if value is original:
                    found[(target.where, module.__name__, name)] = value
    return found


@pytest.mark.parametrize("trace", [False, True])
def test_wrappers_restore_the_originals(trace):
    before = _bindings()
    with spans.Recorder(trace=trace):
        owner, attr = spans._resolve("repro.core.compdiff:CompDiff.build")
        assert owner.__dict__[attr] is not before["repro.core.compdiff:CompDiff.build"]
    assert _bindings() == before


def test_wrappers_record_spans_and_counts():
    from repro.core.compdiff import CompDiff

    with spans.Recorder(trace=True) as rec:
        rec.op = 7
        CompDiff().check_source("int main(void){ int x; printf(\"%d\\n\", x); return 0; }", [b""])
    assert rec.counts["programs"] == 1 and rec.counts["compiles"] == 10
    assert rec.counts["oracle_inputs"] == 1 and rec.counts["divergent_inputs"] == 1
    assert len(rec.verdicts) == 1
    names = {span[2] for span in rec.spans}
    assert {"core.check", "core.build", "compiler.lower", "compiler.pipeline",
            "core.run_input", "vm.decode", "vm.decoded", "minic.parse"} <= names
    assert {span[3] for span in rec.spans} == {7}
    calls, total, own = spans.self_times(rec.spans)
    assert 0 <= own["core.check"] < total["core.check"]
    assert abs(sum(own.values()) - sum(
        end - start for _, parent, _, _, start, end in rec.spans if parent is None
    )) < 1e-6


def test_self_time_subtracts_children():
    spans_ = [(2, 1, "child", 0, 1.0, 3.0), (1, None, "parent", 0, 0.0, 10.0)]
    calls, total, own = spans.self_times(spans_)
    assert own == {"parent": 8.0, "child": 2.0} and total["parent"] == 10.0


def _burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_paused_work_is_charged_to_no_span():
    """Benchmark-side work (the IR digests) leaves inclusive times alone too."""
    rec = spans.Recorder(trace=True)
    rec._open("generative.test")
    rec._open("core.build")
    _burn(0.01)
    with rec.paused():
        _burn(0.2)
    rec._close()
    spans._on_test(rec, None, (), {})
    rec._close()
    calls, total, own = spans.self_times(rec.spans)
    assert 0.01 <= total["generative.test"] < 0.1
    assert 0.01 <= own["core.build"] < 0.1
    assert 10 <= rec.test_ms[0] < 100


def test_yardstick_time_is_left_out_of_its_clock():
    from yardstick import REFERENCE_S, Yardstick

    yardstick = Yardstick()
    with yardstick:
        clock, cpu = yardstick.clock(), time.thread_time()
        _burn(0.7)
        clock, cpu = yardstick.clock() - clock, time.thread_time() - cpu
    # One sample on entry, one on exit, and one per INTERVAL_S between.
    between = yardstick.samples[1:-1]
    assert len(between) >= 2
    assert abs((cpu - clock) - sum(between)) < 1e-3
    mean = statistics.mean(yardstick.samples)
    assert yardstick.scale() * mean == pytest.approx(REFERENCE_S)


def test_yardstick_scales_each_interval_by_the_samples_around_it():
    from yardstick import INTERVAL_S, REFERENCE_S, Yardstick

    yardstick = Yardstick()
    # The host ran at half speed for three samples, then at full speed.
    step = INTERVAL_S
    yardstick.sampled_at = [0.0, step, 2 * step, 100 * step, 101 * step, 102 * step]
    yardstick.samples = [2 * REFERENCE_S] * 3 + [REFERENCE_S] * 3
    intervals = [(0.0, 2 * step), (100 * step, 2 * step)]
    assert yardstick.to_reference(intervals) == pytest.approx([step, 2 * step])
    # Samples within INTERVAL_S of either end count too.
    assert yardstick.scale(103 * step, 110 * step) == pytest.approx(1.0)
    assert yardstick.scale() == pytest.approx(2 / 3)


# ---------------------------------------------------------- statistics


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 101))
    value, percentile = run.tail(samples)
    assert value == 90 and percentile == 90.0
    assert sum(1 for s in samples if s > value) == 10
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_plans_depend_only_on_the_seed():
    suite = workloads.build_suite(scale=workloads.JULIET_SCALE, seed=workloads.JULIET_SUITE_SEED)
    weights = {uid: workloads.cost(work)
               for uid, work in workloads.load_expected("juliet-check")["work"].items()}

    def draw(seed):
        plan = workloads.bucket_draw(
            suite.cases, 200, lambda case: weights[case.uid],
            workloads.seeded_rng("juliet-check", seed))
        return [case.uid for case in plan]

    assert draw(3) == draw(3) and draw(3) != draw(4)
    assert len(set(draw(3))) == 200
    cost = lambda seed: sum(weights[uid] for uid in draw(seed))  # noqa: E731
    assert abs(cost(3) - cost(4)) < 0.05 * cost(3)

    items = workloads.load_expected("fuzz-tcpdump")["items"]
    picks = [workloads.balanced_draw(items, 25, random.Random(seed)) for seed in range(5)]
    assert len({len(pick) for pick in picks}) == 1 and len({str(p) for p in picks}) > 1
    target = len(picks[0]) * sum(workloads.cost(item["work"]) for item in items) / len(items)
    for pick in picks:
        total = sum(workloads.cost(item["work"]) for item in pick)
        assert abs(total - target) <= workloads.WEIGHT_TOLERANCE * target

    # A run measures the default seed's draw; its own seed orders it.
    plans = [workloads.draw_pool("generate-ub", seed, 30) for seed in range(6)]
    assert len({str(sorted(p, key=str)) for p in plans}) == 1
    assert len({str(p) for p in plans}) > 1


# ----------------------------------------------------------- smoke runs


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_prints_every_end_to_end_metric(workload):
    code, lines, result = bench(workload)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_matches_untraced_and_prints_every_layer_metric():
    code, lines, result = bench("juliet-check", seed=5, trace=1)
    # The traced run itself fails when its work counts or verdicts differ
    # from the untraced pass over the same plan.
    assert code == 0, lines
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert any(line.startswith("tracing overhead:") for line in lines)
    dump = next(line for line in lines if line.startswith("spans:")).split(" written to ")[1]
    first = json.loads((ROOT / dump).read_text().splitlines()[0])
    assert set(first) == {"id", "parent", "name", "op", "start", "end"}
    assert result["metrics"]["compiler.lower.calls"]["value"] > 0


def test_work_counts_repeat_across_runs():
    first = bench("juliet-check", seed=9)[1]
    second = bench("juliet-check", seed=9)[1]
    assert work_counts(first) == work_counts(second)
    assert work_counts(first)["compiles"] > 0


def test_names_in_benchmark_json_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == spans.layer_metric_names()
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_missing_program_fails_without_a_result():
    bare = workloads.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "e2e_bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", "juliet-check", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
