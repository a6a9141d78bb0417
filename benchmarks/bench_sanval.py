"""E-SANVAL — the sanitizer-validation scoreboard and its regression gate.

Runs the planted fixture corpus (``tests/fixtures/sanval``) through the
``repro sancheck`` campaign — relocation × sanitizer classification
against the interprocedural UB oracle and the ten-implementation
differential verdict — and scores every sanitizer per outcome and per
report kind.  The committed baseline (``BENCH_sanval.json``) is the
contract: the pytest gate fails when a previously-caught planted
defect (a sanitizer FN or FP) goes undetected, when any sanitizer's
FN/FP tally drops below the baseline, or when the campaign stops being
byte-deterministic across worker counts.

Run directly (``make sancheck-baseline``) to refresh the committed
baseline::

    python benchmarks/bench_sanval.py   # rewrites BENCH_sanval.json

or through pytest (``python -m pytest benchmarks/bench_sanval.py``),
which checks the current run against the committed baseline.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.campaigns.bank import Bank
from repro.sanval import SancheckCampaign, SancheckOptions

from _common import write_result

BASELINE = pathlib.Path(__file__).parent / "BENCH_sanval.json"
FIXTURES = pathlib.Path(__file__).parent.parent / "tests" / "fixtures" / "sanval"


def measure(tmp_bank=None, workers: int = 1):
    options = SancheckOptions(fixtures=str(FIXTURES), workers=workers)
    bank = Bank(tmp_bank) if tmp_bank is not None else None
    with SancheckCampaign(options, bank=bank) as campaign:
        return campaign.run()


def finding_identities(document: dict) -> set[tuple[str, str, str, str]]:
    """The (sanitizer, outcome, seed, variant) identity of each finding."""
    return {
        (f["sanitizer"], f["outcome"], f["seed"], f["variant"])
        for f in document["findings"]
    }


@pytest.mark.sanval
def test_sanval_matches_baseline():
    """Every baseline FN/FP is still caught; tallies never shrink."""
    result = measure()
    print("\n" + result.render())
    write_result("sanval.txt", result.render())
    current = result.to_json()
    baseline = json.loads(BASELINE.read_text())
    assert current["version"] == baseline["version"]

    missing = finding_identities(baseline) - finding_identities(current)
    assert not missing, (
        "previously-caught sanitizer defects went undetected: "
        + ", ".join("/".join(m) for m in sorted(missing))
    )
    for sanitizer, row in baseline["per_sanitizer"].items():
        now = current["per_sanitizer"].get(sanitizer, {})
        for outcome in ("FN", "FP"):
            assert now.get(outcome, 0) >= row[outcome], (
                f"{sanitizer}: {outcome} tally regressed "
                f"({row[outcome]} -> {now.get(outcome, 0)})"
            )


@pytest.mark.sanval
def test_sanval_deterministic_across_workers(tmp_path):
    """Scoreboard and bank are byte-identical at any worker count."""
    serial = measure(tmp_bank=tmp_path / "serial")
    pooled = measure(tmp_bank=tmp_path / "pooled", workers=2)
    assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(
        pooled.to_json(), sort_keys=True
    )
    serial_bank = Bank(tmp_path / "serial")
    pooled_bank = Bank(tmp_path / "pooled")
    assert serial_bank.keys() == pooled_bank.keys()
    for key in serial_bank.keys():
        assert serial_bank.get(key).source == pooled_bank.get(key).source


@pytest.mark.sanval
def test_sanval_banks_reduced_repros(tmp_path):
    """Every banked finding carries a reduced, still-loading program."""
    from repro.minic import load

    measure(tmp_bank=tmp_path)
    bank = Bank(tmp_path)
    assert len(bank) > 0
    for finding in bank:
        load(finding.source)  # must still parse and check
        assert finding.reduced_nodes <= finding.original_nodes
        assert finding.outcome in ("FN", "FP")


if __name__ == "__main__":
    data = measure()
    BASELINE.write_text(json.dumps(data.to_json(), indent=2, sort_keys=True) + "\n")
    write_result("sanval.txt", data.render())
    sys.stdout.write(data.render() + "\n")
    sys.stdout.write(f"\nbaseline written to {BASELINE}\n")
