"""Write the committed expectations under ``expected/`` for one workload.

For every input a benchmark plan can draw, this records the right
answer (as the code computes it now) and the deterministic work the
input does (compiles, pass applications, VM instructions and so on).
Plans turn that work into a cost weight with
:data:`workloads.COST_MODEL`, so the weights repeat exactly on any
host.  Run it only when the workload definition or the program's
answers change on purpose, and commit the result with that change::

    python3 e2e_bench/calibrate.py --workload generate-ub --seeds 0:48
    python3 e2e_bench/calibrate.py --workload sancheck-ub --seeds 0:48
    python3 e2e_bench/calibrate.py --workload juliet-check
    python3 e2e_bench/calibrate.py --workload fuzz-tcpdump --seeds 0:24

For ``juliet-check``, ``--seeds S:S+1`` builds the suite from seed S
instead of :data:`workloads.JULIET_SUITE_SEED`.

Generator seeds that take more than :data:`workloads.POOL_CAP_S` CPU
seconds alone are left out of the pool and listed under ``excluded``:
a plan must fit several seeds into one run of a few tens of seconds.
Each line printed for an input also gives the reference seconds it
took (``ref_s``, see ``yardstick.py``), the data
:data:`workloads.COST_MODEL` was fitted to.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.compdiff import CompDiff  # noqa: E402
from repro.generative.bank import CorpusBank  # noqa: E402
from repro.generative.generator import GENERATOR_VERSION, generate_program  # noqa: E402

import workloads as wl  # noqa: E402
from spans import WORK_COUNTS, Recorder  # noqa: E402
from yardstick import Yardstick  # noqa: E402


class _OverCap(BaseException):
    pass


def _on_cap(signum, frame):
    raise _OverCap()


def measure(run) -> tuple[object, dict, float]:
    """Run ``run()`` under the probes: its result, work counts and reference seconds."""
    yardstick = Yardstick()
    with yardstick, Recorder(trace=False, yardstick=yardstick) as rec:
        started = yardstick.clock()
        result = run()
        seconds = yardstick.clock() - started
    work = {name: rec.counts[name] for name in WORK_COUNTS}
    return result, work, seconds * yardstick.scale()


def report(entry: dict, seconds: float) -> None:
    print(json.dumps({**entry, "ref_s": round(seconds, 3)}, sort_keys=True), flush=True)


def calibrate_campaign(workload: wl.Workload, seeds: range) -> dict:
    items, excluded = [], []
    # The cap counts the process's user CPU time (the yardstick has
    # ITIMER_PROF).
    signal.signal(signal.SIGVTALRM, _on_cap)
    for seed in seeds:
        wl.OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="calibrate-", dir=wl.OUT_DIR))
        state = wl.State(plan=[], shared={"engine": CompDiff(), "workdir": workdir})
        if isinstance(workload, wl.GenerateUb):
            state.shared["bank"] = CorpusBank(workdir / "bank")
        signal.setitimer(signal.ITIMER_VIRTUAL, wl.POOL_CAP_S)
        try:
            problem, work, seconds = measure(lambda: workload.run_op(state, {"seed": seed}))
        except _OverCap:
            excluded.append({"seed": seed, "over_cpu_s": wl.POOL_CAP_S})
            print(f"seed {seed}: over {wl.POOL_CAP_S} CPU s, excluded", flush=True)
            continue
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            shutil.rmtree(workdir, ignore_errors=True)
        if problem is not None:
            raise SystemExit(problem)
        _, answer = state.outputs[-1]
        entry = {
            "seed": seed,
            "digest": wl.source_digest(generate_program(seed, workload.profile).source),
            "work": work,
        }
        if isinstance(workload, wl.GenerateUb):
            if len(answer) != 1:
                raise SystemExit(f"seed {seed}: not divergent, keys {answer}")
            entry["key"] = answer[0]
        else:
            entry["counts"] = answer
        items.append(entry)
        report(entry, seconds)
    return {
        "profile": workload.profile,
        "generator_version": GENERATOR_VERSION,
        "items": items,
        "excluded": excluded,
    }


def calibrate_juliet(workload: wl.JulietCheck, suite_seed: int) -> dict:
    suite = wl.build_suite(scale=wl.JULIET_SCALE, seed=suite_seed)
    state = wl.State(plan=[], shared={"suite": suite, "detected": set()})
    work = {}
    for case in suite.cases:
        problem, work[case.uid], seconds = measure(lambda: workload.run_op(state, case))
        if problem is not None or state.outputs[-1][2]:
            raise SystemExit(problem or f"{case.uid}: good variant diverged")
        report({"uid": case.uid, "work": work[case.uid]}, seconds)
    return {
        "scale": wl.JULIET_SCALE,
        "suite_seed": suite_seed,
        "suite_digest": wl.suite_digest(suite),
        "work": work,
        "detected": sorted(uid for uid, detected, _ in state.outputs if detected),
    }


def calibrate_fuzz(workload: wl.FuzzTcpdump, seeds: range) -> dict:
    state = wl.State(plan=[], shared=workload.compiled())
    items = []
    for seed in seeds:
        problem, work, seconds = measure(lambda: workload.run_op(state, seed))
        problems = workload.check(state)
        if problem is not None or problems:
            raise SystemExit(f"rng seed {seed}: {problem or problems}")
        items.append({"seed": seed, "work": work})
        report(items[-1], seconds)
    return {"execs": wl.FUZZ_EXECS, "items": items}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seeds", help="start:stop generator/rng seeds (a suite seed for Juliet)")
    args = parser.parse_args()
    workload = wl.WORKLOADS[args.workload]
    if args.seeds is None:
        if not isinstance(workload, wl.JulietCheck):
            parser.error("--seeds is required for this workload")
        args.seeds = f"{wl.JULIET_SUITE_SEED}:{wl.JULIET_SUITE_SEED + 1}"
    start, stop = (int(part) for part in args.seeds.split(":"))
    if isinstance(workload, wl.JulietCheck):
        doc = calibrate_juliet(workload, start)
    elif isinstance(workload, wl.FuzzTcpdump):
        doc = calibrate_fuzz(workload, range(start, stop))
    else:
        doc = calibrate_campaign(workload, range(start, stop))
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    path = wl.EXPECTED_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
