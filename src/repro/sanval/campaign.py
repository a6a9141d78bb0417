"""The sanitizer-validation campaign behind ``repro sancheck``.

One campaign sweeps a deterministic seed list through
relocation × sanitizer classification:

1. **seed** — UB programs come from three sources, in fixed order:
   a planted fixture corpus (``tests/fixtures/sanval``), the PR 6
   generative corpus bank, and fresh generator seeds from the ``ub``
   profile.  Each seed is a (bad, good-twin) pair; generator seeds are
   stabilized on the fly with the PR 6 single-step machinery.
2. **relocate** — the bad side fans out into identity + every
   applicable relocation (:mod:`repro.sanval.relocate`), each variant
   re-validated: a relocation that loses the oracle's *confirmed*
   verdict is dropped (and counted), never judged.
3. **judge** — every (sanitizer, variant) pair is classified TP/FN/FP/TN
   by the :class:`~repro.sanval.verdict.VerdictEngine` against the
   interprocedural oracle and the ten-implementation differential
   verdict.
4. **bank** — every FN and FP whose evidence class is new to the bank
   is delta-debugged under its pinning predicate
   (:class:`SanitizerStillSilent` / :class:`SanitizerStillFires`) and
   banked as a :class:`~repro.sanval.bank.BankedFinding`.

Determinism is a hard contract: the same options over the same seed
sources produce byte-identical verdict lists and scoreboards at any
worker count (the differential engine already guarantees byte-identical
verdicts; everything above it is sequential and sorted).  The seed
loop, checkpoint/resume, and banking are the campaign kernel's
(:mod:`repro.campaigns.kernel`); this module is the per-seed step.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

from repro.campaigns.bank import GENERATIVE, Bank
from repro.campaigns.kernel import Campaign, CampaignResult
from repro.errors import ReproError
from repro.generative.generator import generate_program
from repro.generative.reducer import (
    DEFAULT_STEP_BUDGET,
    DEFAULT_TEST_BUDGET,
    Reducer,
    single_step_variants,
)
from repro.minic import count_nodes, load
from repro.sanval.bank import BankedFinding
from repro.sanval.relocate import RELOCATION_KINDS, relocation_variants
from repro.sanval.verdict import (
    FN,
    FP,
    OUTCOMES,
    GroundTruth,
    SanitizerStillFires,
    SanitizerStillSilent,
    SanVerdict,
    VerdictEngine,
)
from repro.static_analysis.ub_oracle import UBOracle

#: Fixture-corpus manifest version.
FIXTURES_VERSION = 1

#: The untransformed variant's kind label.
IDENTITY = "identity"

#: Scoreboard schema version (benchmarks/BENCH_sanval.json).
SCOREBOARD_VERSION = 1

#: Relocations applied to good twins.  ``carry`` is keyed to a UB site
#: and twins have none, so only the site-independent relocations run.
GOOD_RELOCATIONS = ("outline", "loop_shift")


@dataclass(frozen=True)
class SanSeed:
    """One campaign seed: a UB program and (optionally) its good twin."""

    label: str
    bad_source: str
    good_source: str | None
    inputs: tuple[bytes, ...]


@dataclass
class SancheckOptions:
    """Campaign configuration (everything verdict-relevant is digested)."""

    #: Planted fixture corpus directory (None = skip the source).
    fixtures: str | None = None
    #: PR 6 generative corpus bank directory (None = skip the source).
    corpus: str | None = None
    #: Generator seed range ``seed .. seed+budget-1`` (budget 0 = skip).
    seed: int = 0
    budget: int = 0
    profile: str = "ub"
    #: Inputs for generator-sourced seeds (fixtures/corpus carry their own).
    inputs: list[bytes] = field(default_factory=lambda: [b""])
    relocations: tuple[str, ...] = RELOCATION_KINDS
    #: Reduce banked FN/FP repros (disable to bank raw variants).
    reduce: bool = True
    step_budget: int = DEFAULT_STEP_BUDGET
    test_budget: int = DEFAULT_TEST_BUDGET
    #: Candidate cap for stabilizing generator seeds into good twins.
    stabilize_budget: int = 20
    #: Directory for progress checkpoints (None = no checkpointing).
    checkpoint_dir: str | None = None
    #: Checkpoint cadence in processed seeds.
    checkpoint_every: int = 1
    #: CompDiff worker processes (>1 = the supervised pool).
    workers: int = 1

    def digest(self) -> str:
        """Digest of every option that changes the verdict stream."""
        parts = (
            SCOREBOARD_VERSION,
            self.fixtures,
            self.corpus,
            self.seed,
            self.budget,
            self.profile,
            tuple(self.inputs),
            self.relocations,
            self.reduce,
            self.step_budget,
            self.test_budget,
            self.stabilize_budget,
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@dataclass
class SancheckResult(CampaignResult):
    """Outcome of one campaign run."""

    #: Seeds judged (bad side reached classification).
    seeds: int = 0
    #: (sanitizer, variant) pairs classified, both roles.
    variants: int = 0
    #: Relocated bad variants dropped for losing the confirmed verdict.
    dropped: int = 0
    #: Good-twin variants rejected by the cleanliness screen.
    screened: int = 0
    #: Seeds skipped entirely (no oracle-confirmed UB on the bad side).
    skipped: int = 0
    verdicts: list[SanVerdict] = field(default_factory=list)

    # ------------------------------------------------------------ scoreboard

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-sanitizer outcome counts, fully populated, sorted keys."""
        table: dict[str, dict[str, int]] = {}
        for verdict in self.verdicts:
            row = table.setdefault(
                verdict.sanitizer, {outcome: 0 for outcome in OUTCOMES}
            )
            row[verdict.outcome] += 1
        return {name: table[name] for name in sorted(table)}

    def kind_counts(self) -> dict[str, dict[str, dict[str, int]]]:
        """Per-sanitizer per-report-kind outcome counts.

        FN rows tally the *expected* kinds (what went unreported); the
        other outcomes tally the kinds actually reported.
        """
        table: dict[str, dict[str, dict[str, int]]] = {}
        for verdict in self.verdicts:
            kinds = verdict.expected if verdict.outcome == FN else verdict.reported_kinds
            for kind in kinds:
                row = table.setdefault(verdict.sanitizer, {}).setdefault(
                    kind, {outcome: 0 for outcome in OUTCOMES}
                )
                row[verdict.outcome] += 1
        return {
            name: {kind: kinds[kind] for kind in sorted(kinds)}
            for name, kinds in sorted(table.items())
        }

    def findings(self) -> list[SanVerdict]:
        """The FN/FP verdicts, in judgment order."""
        return [v for v in self.verdicts if v.outcome in (FN, FP)]

    def to_json(self) -> dict:
        """The scoreboard document (benchmarks/BENCH_sanval.json shape)."""
        return {
            "version": SCOREBOARD_VERSION,
            "seeds": self.seeds,
            "variants": self.variants,
            "dropped": self.dropped,
            "screened": self.screened,
            "skipped": self.skipped,
            "per_sanitizer": self.counts(),
            "per_kind": self.kind_counts(),
            "findings": [v.to_json() for v in self.findings()],
        }

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"sancheck: {self.seeds} seeds, {self.variants} variants judged "
            f"({self.dropped} relocations dropped, {self.screened} twins "
            f"screened out, {self.skipped} seeds skipped)",
            f"{'sanitizer':<10} {'TP':>4} {'FN':>4} {'FP':>4} {'TN':>4}",
        ]
        for name, row in counts.items():
            lines.append(
                f"{name:<10} {row['TP']:>4} {row['FN']:>4} {row['FP']:>4} {row['TN']:>4}"
            )
        if self.bank_size:
            lines.append(
                f"bank: {self.banked_new} newly banked "
                f"({self.duplicates} duplicate classes), size {self.bank_size}"
            )
        if self.resumed_at is not None:
            lines.append(f"resumed at seed offset {self.resumed_at}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Seed sources
# --------------------------------------------------------------------------


def fixture_seeds(fixtures_dir: str | os.PathLike) -> list[SanSeed]:
    """Load a planted fixture corpus, in manifest order.

    Manifest shape (``manifest.json``)::

        {"version": 1,
         "cases": [{"id": ..., "bad": "x.c", "good": "x.good.c",
                    "inputs_hex": [""]}, ...]}

    ``good`` is optional; ``inputs_hex`` defaults to the empty input.
    """
    root = Path(fixtures_dir)
    try:
        manifest = json.loads((root / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"sanval fixtures at {root} are unreadable: {exc}") from exc
    if manifest.get("version") != FIXTURES_VERSION:
        raise ReproError(
            f"sanval fixtures version {manifest.get('version')!r}; "
            f"expected {FIXTURES_VERSION}"
        )
    seeds = []
    for case in manifest["cases"]:
        good = case.get("good")
        inputs = tuple(bytes.fromhex(i) for i in case.get("inputs_hex", [""]))
        seeds.append(
            SanSeed(
                label=case["id"],
                bad_source=(root / case["bad"]).read_text(),
                good_source=(root / good).read_text() if good else None,
                inputs=inputs or (b"",),
            )
        )
    return seeds


def corpus_seeds(corpus_dir: str | os.PathLike) -> list[SanSeed]:
    """The PR 6 generative corpus bank as campaign seeds, key order."""
    seeds = []
    for repro in Bank(corpus_dir, kind=GENERATIVE):
        seeds.append(
            SanSeed(
                label=f"corpus-{repro.key}",
                bad_source=repro.source,
                good_source=repro.good_source,
                inputs=tuple(repro.inputs) or (b"",),
            )
        )
    return seeds


def generator_seeds(
    seed: int, budget: int, profile: str, inputs: list[bytes]
) -> list[SanSeed]:
    """Fresh generator programs as campaign seeds (twins come later)."""
    seeds = []
    for offset in range(budget):
        generated = generate_program(seed + offset, profile)
        seeds.append(
            SanSeed(
                label=f"gen-{profile}-{seed + offset}",
                bad_source=generated.source,
                good_source=None,
                inputs=tuple(inputs) or (b"",),
            )
        )
    return seeds


# --------------------------------------------------------------------------
# Campaign
# --------------------------------------------------------------------------


class SancheckCampaign(Campaign):
    """The seed → relocate → judge step behind ``repro sancheck``.

    One offset is one entry of the deterministic seed list: fixtures,
    then corpus bank, then fresh generator seeds.  The list is built
    once per campaign object, on first use.
    """

    kind = BankedFinding.KIND
    result_type = SancheckResult

    def __init__(self, options: SancheckOptions, bank=None, engine=None) -> None:
        super().__init__(options, bank, engine)
        self.oracle = UBOracle(mode="interproc")

    @cached_property
    def verdicts(self) -> VerdictEngine:
        return VerdictEngine(self.engine, oracle=self.oracle)

    @cached_property
    def seeds(self) -> list[SanSeed]:
        """The campaign's full seed list, deterministic order."""
        options = self.options
        seeds: list[SanSeed] = []
        if options.fixtures:
            seeds.extend(fixture_seeds(options.fixtures))
        if options.corpus:
            seeds.extend(corpus_seeds(options.corpus))
        if options.budget > 0:
            seeds.extend(
                generator_seeds(options.seed, options.budget, options.profile, options.inputs)
            )
        return seeds

    def total(self) -> int:
        return len(self.seeds)

    def label(self, offset: int) -> str:
        return self.seeds[offset].label

    def step(self, offset: int, result: SancheckResult):
        options = self.options
        seed = self.seeds[offset]
        inputs = list(seed.inputs)
        name = f"sanval-{seed.label}"
        try:
            truth0 = self.verdicts.ground_truth(seed.bad_source, inputs, name=name)
        except ReproError:
            result.skipped += 1
            return
        if not truth0.confirmed_checkers:
            # Without a confirmed oracle verdict there is no FN ground
            # truth to validate sanitizers against; skip the seed.
            result.skipped += 1
            return
        result.seeds += 1

        variants: list[tuple[str, str, GroundTruth | None]] = [
            (IDENTITY, seed.bad_source, truth0)
        ]
        for relocated in relocation_variants(
            seed.bad_source, line=truth0.line, kinds=options.relocations
        ):
            variants.append((relocated.kind, relocated.source, None))

        pinned = set(truth0.confirmed_checkers)
        for kind, source, truth in variants:
            if truth is None:
                try:
                    truth = self.verdicts.ground_truth(source, inputs, name=name)
                except ReproError:  # pragma: no cover - relocate pre-validates
                    result.dropped += 1
                    continue
                if not (set(truth.confirmed_checkers) & pinned):
                    # The relocation lost the oracle's confirmed verdict;
                    # judging it would have no FN ground truth behind it.
                    result.dropped += 1
                    continue
            for verdict in self.verdicts.judge_bad(
                source, inputs, seed=seed.label, variant=kind, truth=truth, name=name
            ):
                result.variants += 1
                result.verdicts.append(verdict)
                if verdict.outcome == FN:
                    yield self._finding(verdict)

        good = seed.good_source
        if good is None:
            good = self._stabilize(seed.bad_source, inputs, name=name)
        if good is None:
            return
        good_variants: list[tuple[str, str]] = [(IDENTITY, good)]
        good_kinds = tuple(k for k in options.relocations if k in GOOD_RELOCATIONS)
        for relocated in relocation_variants(good, kinds=good_kinds):
            good_variants.append((relocated.kind, relocated.source))
        for kind, source in good_variants:
            try:
                judged = self.verdicts.judge_good(
                    source, inputs, seed=seed.label, variant=kind, name=name
                )
            except ReproError:  # pragma: no cover - sources pre-validated
                result.screened += 1
                continue
            if judged is None:
                result.screened += 1
                continue
            for verdict in judged:
                result.variants += 1
                result.verdicts.append(verdict)
                if verdict.outcome == FP:
                    yield self._finding(verdict)

    # ---------------------------------------------------------------- banking

    def _finding(self, verdict: SanVerdict):
        """The ``(key, build)`` pair of an FN/FP verdict's evidence class."""
        truth = verdict.truth
        finding = BankedFinding(
            sanitizer=verdict.sanitizer,
            outcome=verdict.outcome,
            seed=verdict.seed,
            variant=verdict.variant,
            kinds=verdict.expected if verdict.outcome == FN else verdict.reported_kinds,
            checkers=truth.confirmed_checkers,
            oracle_fingerprints=truth.oracle_fingerprints,
            partition=truth.partition,
            impl_ref=truth.impl_ref,
            impl_target=truth.impl_target,
            source=verdict.source,
            inputs=list(verdict.inputs),
        )

        def build() -> BankedFinding:
            nodes = count_nodes(load(finding.source))
            reduction = self._reduce(verdict, finding.source) if self.options.reduce else None
            if reduction is None:
                return replace(finding, original_nodes=nodes, reduced_nodes=nodes)
            return replace(
                finding,
                source=reduction.reduced_source,
                original_nodes=reduction.original_nodes,
                reduced_nodes=reduction.reduced_nodes,
                reduction_steps=len(reduction.steps),
                reduction_tests=reduction.tests_run,
            )

        return finding.key, build

    def _reduce(self, verdict: SanVerdict, source: str):
        sanitizer = next(
            s for s in self.verdicts.sanitizers if s.name == verdict.sanitizer
        )
        inputs = list(verdict.inputs)
        if verdict.outcome == FN:
            predicate = SanitizerStillSilent(
                sanitizer=sanitizer,
                engine=self.engine,
                oracle=self.oracle,
                inputs=inputs,
                checkers=frozenset(verdict.truth.confirmed_checkers),
            )
        else:
            predicate = SanitizerStillFires(
                sanitizer=sanitizer,
                engine=self.engine,
                oracle=self.oracle,
                inputs=inputs,
                kind=verdict.reported_kinds[0],
            )
        reducer = Reducer(
            predicate,
            step_budget=self.options.step_budget,
            test_budget=self.options.test_budget,
        )
        try:
            return reducer.reduce(source)
        except ReproError:  # pragma: no cover - predicate held on the original
            return None

    # ------------------------------------------------------------- good twins

    def _stabilize(self, source: str, inputs: list[bytes], name: str) -> str | None:
        """A screened good twin for a generator seed, or None.

        Unlike the generative campaign's stabilizer this screens on the
        *confirmed* oracle verdict only (plus stability): a POSSIBLE
        warning on a stable neighbor is FP-measurement signal, not a
        disqualifier.
        """
        budget = self.options.stabilize_budget
        for candidate in single_step_variants(source):
            if budget <= 0:
                break
            budget -= 1
            try:
                truth = self.verdicts.ground_truth(candidate, inputs, name=f"{name}-good")
            except ReproError:
                continue
            if truth.divergent or truth.confirmed_checkers:
                continue
            return candidate
        return None
