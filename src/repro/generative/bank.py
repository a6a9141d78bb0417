"""Generative repros as bank records: a reduced divergent program and its twin.

A campaign's end product is not a log line — it is a *corpus*: the set
of minimal, still-divergent programs it discovered, banked on disk (a
:class:`~repro.campaigns.bank.Bank`) so later runs extend it and the
precision scoreboard can score the oracle against found-in-the-wild
instabilities, not just planted Juliet flaws.  Each entry stores two
programs::

    programs/<key>.c       # reduced divergent program
    programs/<key>.good.c  # its stabilized, non-divergent twin

Dedupe is by **equivalence class**, not source text: the key hashes the
fired checker set, the culprit pass (``"baseline"`` when the divergence
predates the pass schedule), and the canonical implementation
partition.  Two seeds that reduce to the same *kind* of instability —
same diagnostics, same attribution, same implementations disagreeing —
bank once.  Exact diagnostic fingerprints stay in the metadata for
drill-down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaigns.bank import (
    GENERATIVE,
    Bank,
    BankRecord,
    class_key,
    partition_signature,
)
from repro.juliet.generator import TestCase

#: Bisect attribution recorded when divergence predates the pass
#: schedule (front-end/layout difference, ``repro bisect`` status
#: ``baseline_divergent``).
BASELINE_CULPRIT = "baseline"

#: Table 5 category -> precision-corpus group, in priority order: a
#: repro whose reduced form fires checkers in several categories is
#: grouped by the first match.  Repros with *no* surviving diagnostic
#: get group "unclassified", which has no expected categories — they
#: contribute divergence counts to ``repro precision`` but never TP/FN.
CATEGORY_GROUP = (
    ("UninitMem", "uninit"),
    ("PointerCmp", "ptr_sub"),
    ("IntError", "integer_error"),
    ("MemError", "memory_error"),
    ("EvalOrder", "eval_order"),
    ("LINE", "line_macro"),
    ("Misc", "ub"),
)

UNCLASSIFIED_GROUP = "unclassified"


def classify_group(categories: set[str]) -> str:
    """Precision-corpus group for a repro firing *categories*."""
    for category, group in CATEGORY_GROUP:
        if category in categories:
            return group
    return UNCLASSIFIED_GROUP


@dataclass
class BankedRepro(BankRecord):
    """One banked equivalence class: sources, attribution, provenance."""

    KIND = GENERATIVE
    PROGRAMS = {"source": ".c", "good_source": ".good.c"}

    #: Generator provenance (seed regenerates the unreduced original).
    seed: int
    profile: str
    generator_version: int
    ub_shapes: tuple[str, ...]
    #: Reduced divergent program and its stabilized twin.
    source: str
    good_source: str
    inputs: list[bytes]
    #: Checkers the UB oracle fires on the reduced program, and their
    #: exact diagnostic fingerprints (drill-down metadata).
    checkers: tuple[str, ...]
    fingerprints: tuple[str, ...]
    group: str
    #: Canonical implementation partition of the reduced divergence.
    partition: tuple[tuple[str, ...], ...]
    #: Bisection pair pinned from the *original* diff.
    impl_ref: str
    impl_target: str
    #: Pass attribution before and after reduction.  ``culprit_drifted``
    #: records the documented ``repro bisect`` instability: reduction
    #: preserves the divergence *verdict* (the predicate pins it) but
    #: not necessarily its *attribution* — see docs/GENERATIVE.md.
    culprit_original: str = BASELINE_CULPRIT
    culprit_reduced: str = BASELINE_CULPRIT
    culprit_drifted: bool = False
    original_nodes: int = 0
    reduced_nodes: int = 0
    reduction_steps: int = 0
    reduction_tests: int = 0

    @property
    def key(self) -> str:
        """Dedupe key: checker set, original culprit, implementation partition."""
        return class_key(
            ",".join(sorted(self.checkers)),
            self.culprit_original,
            partition_signature(self.partition),
        )

    def test_case(self) -> TestCase:
        """This repro as a precision-scoreboard case.

        The reduced program is the *bad* variant (its divergence is the
        engine-confirmed ground truth) and the stabilized twin is the
        *good* variant; ``cwe=0`` marks generative provenance.
        """
        return TestCase(
            uid=f"gen_{self.profile}_{self.key}",
            cwe=0,
            group=self.group,
            bad_source=self.source,
            good_source=self.good_source,
            mech="generative",
            flow=self.culprit_original,
            inputs=list(self.inputs),
        )


#: A generative corpus is a :class:`Bank`; the name stays for its callers.
CorpusBank = Bank
