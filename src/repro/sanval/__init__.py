"""Sanitizer-implementation validation: turn the UB oracle on the checkers.

The UBfuzz workload (docs/SANVAL.md): generate semantically-equivalent
variants of UB programs that move the UB activation site across
function/loop/call boundaries, run every variant under the three
sanitizer analogs, and classify each outcome (TP/FN/FP/TN) against two
independent ground truths — the interprocedural UB oracle and the
ten-implementation differential verdict.  Confirmed sanitizer misses
(FN) and spurious reports (FP) are delta-debugged and banked with their
full evidence chains.  Entry point: ``repro sancheck``.
"""

from repro.sanval.bank import BankedFinding
from repro.sanval.campaign import (
    SancheckCampaign,
    SancheckOptions,
    SancheckResult,
    SanSeed,
    corpus_seeds,
    fixture_seeds,
    generator_seeds,
)
from repro.sanval.relocate import (
    RELOCATION_KINDS,
    RelocatedVariant,
    relocate,
    relocation_variants,
)
from repro.sanval.verdict import (
    FN,
    FP,
    ORACLE_KIND_SCOPE,
    OUTCOMES,
    TN,
    TP,
    GroundTruth,
    SanitizerStillFires,
    SanitizerStillSilent,
    SanVerdict,
    VerdictEngine,
    expected_kinds,
)

__all__ = [
    "BankedFinding",
    "FN",
    "FP",
    "GroundTruth",
    "ORACLE_KIND_SCOPE",
    "OUTCOMES",
    "RELOCATION_KINDS",
    "RelocatedVariant",
    "SanSeed",
    "SanVerdict",
    "SancheckCampaign",
    "SancheckOptions",
    "SancheckResult",
    "SanitizerStillFires",
    "SanitizerStillSilent",
    "TN",
    "TP",
    "VerdictEngine",
    "corpus_seeds",
    "expected_kinds",
    "fixture_seeds",
    "generator_seeds",
    "relocate",
    "relocation_variants",
]
