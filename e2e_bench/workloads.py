"""The four end-to-end workloads: what each runs and how it is checked.

Every workload is a closed loop of *operations* (the next starts when
the previous one finishes) planned up front from ``(seed, seconds)``:

* ``fuzz-tcpdump``  — one op is a whole CompDiff-AFL campaign of
  :data:`FUZZ_EXECS` executions on the tcpdump target, from one rng seed;
* ``juliet-check``  — one op is one Juliet test case (its bad and its
  good variant) through ``evaluate_juliet``;
* ``generate-ub``   — one op is one generator seed through a
  ``GenerativeCampaign`` (generate, diff, reduce, bisect, bank);
* ``sancheck-ub``   — one op is one generator seed through a
  ``SancheckCampaign`` (relocate, three sanitizers, ground truth).

Inputs come from the seed alone.  The expected outputs of every input
a plan can draw are committed under ``expected/`` (written by
``calibrate.py``), together with the deterministic work each input
does.  :func:`cost` turns that work into a weight, and plans are drawn
so that every seed gets the same amount of work (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.compdiff import CompDiff
from repro.evaluation.juliet_eval import evaluate_juliet
from repro.fuzzing import CompDiffFuzzer, FuzzerOptions
from repro.generative.bank import CorpusBank
from repro.generative.campaign import GenerativeCampaign, GenerativeOptions
from repro.generative.generator import generate_program
from repro.juliet.suite import JulietSuite, build_suite
from repro.minic import load
from repro.parallel.cache import CompileCache
from repro.sanval.campaign import SancheckCampaign, SancheckOptions
from repro.targets import build_target

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
#: Run artifacts (work directories, span dumps); never committed.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Executions per fuzz campaign.  At 2000, rng seed 26 missed one of the
#: four tcpdump bugs; calibration checks that every pool campaign finds
#: all four within this length.
FUZZ_EXECS = 3000
FUZZ_STRIDE = 3
#: The Juliet pool: the suite generator's default seed at this scale
#: (734 programs, about 20 s).
JULIET_SCALE = 0.02
JULIET_SUITE_SEED = 20230325
#: A small program every campaign set-up checks once before timing.
WARM_UP = "int main(void) { int x = 6; printf(\"%d\\n\", x * 7); return 0; }\n"
#: A drawn campaign plan may miss its target weight by this share.
WEIGHT_TOLERANCE = 0.02
#: Generator seeds over this many CPU seconds alone stay out of the pools.
POOL_CAP_S = 16
#: Reference seconds per unit of work (see ``yardstick.py``), fitted by
#: least squares to the reference seconds ``calibrate.py`` printed for
#: every input of the ``fuzz-tcpdump`` and ``juliet-check`` pools.  A
#: weight sets how many inputs fill ``--seconds`` and which inputs a
#: balanced draw may take; it repeats on any host.
COST_MODEL = {
    "pass_applications": 4.53e-5,
    "ir_instructions_out": 9.35e-5,
    "executions": 2.93e-4,
    "vm_instructions": 9.07e-7,
}


def cost(work: dict) -> float:
    """The weight of one input: its work in (reference) CPU seconds."""
    return sum(rate * work[name] for name, rate in COST_MODEL.items())


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


@dataclass
class State:
    """One set-up: the plan and whatever the ops share."""

    plan: list
    shared: dict = field(default_factory=dict)
    #: Per-op outputs, for the checks after the timed loop.
    outputs: list = field(default_factory=list)
    #: Counts the workload itself knows (fuzzer executions and so on).
    extra: Counter = field(default_factory=Counter)


#: The seed whose draw every run measures (see :func:`draw_pool`).
DEFAULT_SEED = 0


class Workload:
    name = ""
    #: Whether a verdict is a whole operation (a generator seed's
    #: program, from generation to its banked or scored outcome) rather
    #: than each oracle call inside it.
    verdict_per_op = False

    def setup(self, seed: int, seconds: float, workdir: Path) -> State:
        raise NotImplementedError

    def run_op(self, state: State, op) -> str | None:
        """Run one op and record its answer in ``state.outputs``.

        Returns why the op failed when a cross-check ran without every
        implementation, else None; answers are checked by :meth:`check`.
        """
        raise NotImplementedError

    def check(self, state: State) -> list[str]:
        """Compare the recorded answers with the committed ones, after
        the timed loop; one line per wrong answer."""
        raise NotImplementedError

    def execs(self, extra: Counter, counts: Counter) -> int:
        """Executions of the program under test: oracle inputs by default."""
        return counts["oracle_inputs"]


def _degraded_total(engine: CompDiff) -> int:
    """Cross-checks this engine has run without every implementation."""
    return sum(engine.stats.degraded.values())


# --------------------------------------------------------------- fuzzing


class FuzzTcpdump(Workload):
    name = "fuzz-tcpdump"

    def setup(self, seed, seconds, workdir):
        plan = [item["seed"] for item in draw_pool(self.name, seed, seconds)]
        return State(plan=plan, shared=self.compiled())

    def compiled(self) -> dict:
        """The target, compiled: B_fuzz and the ten differential binaries
        go into a cache that every campaign reuses."""
        target = build_target("tcpdump")
        program = load(target.source)
        cache = CompileCache()
        CompDiffFuzzer(program, target.seeds, self._options(0, cache), name=target.name).close()
        return {"target": target, "program": program, "cache": cache}

    @staticmethod
    def _options(rng_seed: int, cache: CompileCache) -> FuzzerOptions:
        return FuzzerOptions(
            rng_seed=rng_seed,
            max_executions=FUZZ_EXECS,
            compdiff_stride=FUZZ_STRIDE,
            compile_cache=cache,
        )

    def run_op(self, state, rng_seed):
        target = state.shared["target"]
        with CompDiffFuzzer(
            state.shared["program"], target.seeds,
            self._options(rng_seed, state.shared["cache"]), name=target.name,
        ) as fuzzer:
            result = fuzzer.run()
            degraded = _degraded_total(fuzzer.compdiff)
        state.extra["fuzz_execs"] += result.executions
        state.extra["fuzz_oracle_execs"] += result.oracle_executions
        found = sorted(result.sites_diverged & {bug.site for bug in target.bugs})
        state.outputs.append((rng_seed, found))
        if degraded:
            return f"campaign {rng_seed}: degraded cross-check"
        return None

    def check(self, state):
        """Every campaign found every seeded bug."""
        sites = sorted(bug.site for bug in state.shared["target"].bugs)
        return [
            f"campaign {rng_seed}: found bug sites {found}, expected {sites} "
            f"within {FUZZ_EXECS} executions"
            for rng_seed, found in state.outputs if found != sites
        ]

    def execs(self, extra, counts):
        return extra["fuzz_execs"]


# ----------------------------------------------------------------- Juliet


class JulietCheck(Workload):
    name = "juliet-check"

    def setup(self, seed, seconds, workdir):
        expected = load_expected(self.name)
        suite = build_suite(scale=expected["scale"], seed=expected["suite_seed"])
        # The committed answers hold only for the committed programs.
        if suite_digest(suite) != expected["suite_digest"]:
            raise RuntimeError("the Juliet suite no longer matches the committed pool")
        weights = {uid: cost(work) for uid, work in expected["work"].items()}
        count = max(1, round(seconds * len(weights) / sum(weights.values())))
        plan = bucket_draw(
            suite.cases, count, lambda case: (weights[case.uid], case.uid),
            seeded_rng(self.name, DEFAULT_SEED),
        )
        seeded_rng(self.name, seed).shuffle(plan)
        # Let lazy set-up finish before timing: one case end to end.
        self._evaluate(suite, suite.cases[0])
        return State(plan=plan, shared={
            "suite": suite, "detected": set(expected["detected"]),
        })

    @staticmethod
    def _evaluate(suite: JulietSuite, case):
        one = JulietSuite(seed=suite.seed, scale=suite.scale, cases=[case])
        return evaluate_juliet(one, include_static=False, include_sanitizers=False)

    def run_op(self, state, case):
        evaluation = self._evaluate(state.shared["suite"], case)
        detected = evaluation.counts(case.group, "compdiff").detected == 1
        good_divergent = evaluation.compdiff_false_positives > 0
        state.outputs.append((case.uid, detected, good_divergent))
        if evaluation.engine_stats.degraded:
            return f"{case.uid}: degraded cross-check"
        return None

    def check(self, state):
        """The detected set equals the committed one; no good variant diverges."""
        expected = state.shared["detected"]
        problems = []
        for uid, detected, good_divergent in state.outputs:
            if good_divergent:
                problems.append(f"{uid}: good variant diverged")
            if detected != (uid in expected):
                problems.append(f"{uid}: detected={detected}, committed {not detected}")
        return problems


def bucket_draw(items: list, count: int, weight, rng: random.Random) -> list:
    """One item from each of *count* cost buckets, shuffled.

    The items are sorted by ``weight(item)`` and cut into *count*
    buckets of neighbours, so every draw has the same cost distribution,
    its slow items included, while the items differ.
    """
    ordered = sorted(items, key=weight)
    count = min(count, len(ordered))
    plan = [
        rng.choice(ordered[len(ordered) * b // count: len(ordered) * (b + 1) // count])
        for b in range(count)
    ]
    rng.shuffle(plan)
    return plan


def suite_digest(suite: JulietSuite) -> str:
    return source_digest("".join(c.uid + c.bad_source + c.good_source for c in suite.cases))


# -------------------------------------------------------------- campaigns


def balanced_draw(items: list[dict], seconds: float, rng: random.Random) -> list[dict]:
    """A seeded draw of pool items whose total weight is the same on every seed.

    The number of items is fixed by *seconds* and the pool's mean
    weight (:func:`cost` of each item's work); the draw is resampled
    until its total weight is within :data:`WEIGHT_TOLERANCE` of that
    count times the mean (or the closest of a bounded number of tries).
    """
    weight = {id(item): cost(item["work"]) for item in items}
    mean = sum(weight.values()) / len(items)
    count = min(len(items), max(1, round(seconds / mean)))
    target = count * mean
    best: tuple[float, list[dict]] | None = None
    for _ in range(20000):
        pick = rng.sample(items, count)
        error = abs(sum(weight[id(item)] for item in pick) - target)
        if best is None or error < best[0]:
            best = (error, pick)
        if error <= WEIGHT_TOLERANCE * target:
            break
    return best[1]


def draw_pool(name: str, seed: int, seconds: float) -> list[dict]:
    """The plan of a pool workload: the default seed's balanced draw from
    its committed pool, in the order *seed* gives.

    Two campaigns or generator seeds fill a run, and swapping one for
    another moves a metric by up to a quarter (the verdict median of
    one fuzz campaign against another, say); so every seed measures the
    same draw.
    """
    plan = balanced_draw(load_expected(name)["items"], seconds, seeded_rng(name, DEFAULT_SEED))
    seeded_rng(name, seed).shuffle(plan)
    return plan


class _SeedCampaign(Workload):
    """Shared set-up of the two campaign workloads: one op per generator seed.

    A user of these campaigns waits on each generated program's outcome,
    so a verdict is a whole op; the oracle calls inside it check reducer
    candidates and relocation variants, not programs.
    """

    profile = "ub"
    verdict_per_op = True

    def setup(self, seed, seconds, workdir):
        plan = draw_pool(self.name, seed, seconds)
        # The committed answers hold only for the committed programs.
        for item in plan:
            digest = source_digest(generate_program(item["seed"], self.profile).source)
            if digest != item["digest"]:
                raise RuntimeError(
                    f"generator seed {item['seed']} no longer yields the "
                    f"committed program ({digest} != {item['digest']})"
                )
        engine = CompDiff()
        # Let lazy set-up finish before timing.
        engine.check_source(WARM_UP, [b""])
        return State(plan=plan, shared={"engine": engine, "workdir": workdir})


class GenerateUb(_SeedCampaign):
    name = "generate-ub"

    def setup(self, seed, seconds, workdir):
        state = super().setup(seed, seconds, workdir)
        state.shared["bank"] = CorpusBank(workdir / "bank")
        return state

    def run_op(self, state, item):
        shared = state.shared
        options = GenerativeOptions(
            seed=item["seed"], budget=1, profile=self.profile,
            checkpoint_dir=str(shared["workdir"] / f"ckpt-{item['seed']}"),
        )
        before = _degraded_total(shared["engine"])
        campaign = GenerativeCampaign(options, shared["bank"], engine=shared["engine"])
        result = campaign.run()
        state.outputs.append((item["seed"], result.keys))
        if _degraded_total(shared["engine"]) != before:
            return f"seed {item['seed']}: degraded cross-check"
        return None

    def check(self, state):
        """Each seed's class key, and the bank's keys, equal the committed ones."""
        committed = {item["seed"]: item["key"] for item in state.plan}
        problems = [
            f"seed {seed}: keys {keys}, committed {[committed[seed]]}"
            for seed, keys in state.outputs if keys != [committed[seed]]
        ]
        want = sorted(set(committed.values()))
        banked = sorted(state.shared["bank"].keys())
        if banked != want:
            problems.append(f"banked keys {banked}, expected {want}")
        # The bank on disk must load back to the same classes.
        reloaded = sorted(CorpusBank(state.shared["workdir"] / "bank").keys())
        if reloaded != want:
            problems.append(f"reloaded bank keys {reloaded}, expected {want}")
        return problems


class SancheckUb(_SeedCampaign):
    name = "sancheck-ub"

    def run_op(self, state, item):
        options = SancheckOptions(seed=item["seed"], budget=1, profile=self.profile)
        before = _degraded_total(state.shared["engine"])
        campaign = SancheckCampaign(options, engine=state.shared["engine"])
        counts = campaign.run().counts()
        state.outputs.append((item["seed"], counts))
        if _degraded_total(state.shared["engine"]) != before:
            return f"seed {item['seed']}: degraded cross-check"
        return None

    def check(self, state):
        """Each seed's per-sanitizer TP/FN/FP/TN scoreboard equals the committed one."""
        committed = {item["seed"]: item["counts"] for item in state.plan}
        return [
            f"seed {seed}: scoreboard {counts}, committed {committed[seed]}"
            for seed, counts in state.outputs if counts != committed[seed]
        ]


WORKLOADS = {w.name: w for w in (FuzzTcpdump(), JulietCheck(), GenerateUb(), SancheckUb())}
