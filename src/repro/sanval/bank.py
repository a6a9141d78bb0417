"""Confirmed sanitizer FNs/FPs as bank records: evidence chain + reduced repro.

Banked into a :class:`~repro.campaigns.bank.Bank` of kind
``sancheck``; each entry stores one program, ``programs/<key>.c``, the
reduced program that exhibits the FN/FP.

Dedupe is by *evidence class*, not source text: the key hashes the
sanitizer, the outcome, the report kinds involved, the oracle checkers
and their fingerprints, and the implementation partition.  The same
miss rediscovered through a different relocation of the same seed (same
function, same oracle fingerprint) banks once; a miss that moved into a
different function (distinct fingerprint) is new evidence and banks
separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaigns.bank import SANCHECK, BankRecord, class_key, partition_signature


@dataclass
class BankedFinding(BankRecord):
    """One banked sanitizer defect: evidence chain + reduced repro."""

    KIND = SANCHECK
    PROGRAMS = {"source": ".c"}

    sanitizer: str
    #: "FN" or "FP".
    outcome: str
    #: Seed label and relocation kind that first exposed the defect.
    seed: str
    variant: str
    #: Report kinds: expected-but-missing (FN) or spuriously fired (FP).
    kinds: tuple[str, ...]
    #: Oracle side of the evidence chain (empty for FPs by construction).
    checkers: tuple[str, ...]
    oracle_fingerprints: tuple[str, ...]
    #: Differential side: partition + culprit pair ("" for stable FPs).
    partition: tuple[tuple[str, ...], ...]
    impl_ref: str
    impl_target: str
    #: Reduced program exhibiting the defect, and the inputs that drive it.
    source: str
    inputs: list[bytes]
    original_nodes: int = 0
    reduced_nodes: int = 0
    reduction_steps: int = 0
    reduction_tests: int = 0

    @property
    def key(self) -> str:
        """Dedupe key of the finding's evidence class."""
        return class_key(
            self.sanitizer,
            self.outcome,
            ",".join(sorted(self.kinds)),
            ",".join(sorted(self.checkers)),
            ",".join(sorted(self.oracle_fingerprints)),
            partition_signature(self.partition),
        )
