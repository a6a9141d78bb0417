"""Chaos smoke: shard-level fault injection must not change the corpus.

The sharded campaign runtime's headline invariant (docs/ROBUSTNESS.md,
"Sharded campaigns & salvage"): for any deterministic shard fault plan,
the merged corpus is **byte-identical** to a fault-free serial run,
minus only the contributions of seeds a ``poison`` fault drives into
the quarantine ledger.  This script drives that invariant end-to-end
with real subprocess shards, real SIGKILLs, and a really corrupted
checkpoint:

1. a fault-free serial generative campaign (the reference corpus);
2. the same campaign under ``--shards 2`` with a crash, a checkpoint
   corruption, and a hang injected — must merge byte-identical;
3. the same campaign with a poison seed — must quarantine exactly that
   seed into the ledger and complete with the rest of the corpus;
4. a sharded sancheck campaign over the planted fixtures — must match
   its serial verdict stream and bank bytes.

Run directly (``make chaos``)::

    python benchmarks/chaos_smoke.py

Exits 0 on PASS, 1 on any divergence.  The hard timeout in the make
target and CI job is part of the contract: a watchdog regression that
stops reclaiming hung shards fails by timeout instead of stalling.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaigns.bank import Bank
from repro.campaigns.runtime import CampaignRuntime, ShardPolicy
from repro.generative.campaign import GenerativeCampaign, GenerativeOptions
from repro.parallel.faults import ShardFaultPlan
from repro.sanval.campaign import SancheckCampaign, SancheckOptions

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "sanval")

BUDGET = 4
POLICY = ShardPolicy(seed_deadline=8.0, backoff_base=0.01, backoff_max=0.1)


def corpus_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def check(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"  [{status}] {label}" + (f" — {detail}" if detail else ""))
    return ok


def gen_options() -> GenerativeOptions:
    return GenerativeOptions(seed=0, budget=BUDGET, reduce=False, stabilize_budget=4)


def run_sharded(workdir: str, name: str, fault_plan, policy=POLICY):
    bank_dir = os.path.join(workdir, f"{name}-merged")
    runtime = CampaignRuntime(
        GenerativeCampaign(gen_options(), Bank(bank_dir)),
        root=os.path.join(workdir, f"{name}-campaign"),
        shards=2,
        policy=policy,
        fault_plan=fault_plan,
    )
    result = runtime.run()
    return runtime, result, corpus_bytes(bank_dir)


def main() -> int:
    started = time.monotonic()
    ok = True
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        print(f"chaos smoke: {BUDGET}-seed generative campaign, 2 shards")

        serial_dir = os.path.join(workdir, "serial")
        with GenerativeCampaign(gen_options(), Bank(serial_dir)) as campaign:
            serial = campaign.run()
        reference = corpus_bytes(serial_dir)
        ok &= check(
            "serial reference banked something",
            serial.banked_new > 0,
            f"{serial.banked_new} repros from {serial.generated} seeds",
        )

        plan = ShardFaultPlan(once={1: "crash", 2: "hang", 3: "corrupt"})
        runtime, merged, merged_bytes = run_sharded(workdir, "faulted", plan)
        shards = runtime.stats.snapshot()["shards"]
        ok &= check(
            "crash+hang+corrupt: merged corpus byte-identical to serial",
            merged_bytes == reference,
            f"{shards['restarts']} shard restarts absorbed",
        )
        ok &= check(
            "crash+hang+corrupt: counters identical",
            (merged.generated, merged.banked_new, merged.keys)
            == (serial.generated, serial.banked_new, serial.keys),
        )
        ok &= check("no seeds quarantined by transient faults", not runtime.quarantine)

        poison_policy = ShardPolicy(
            seed_deadline=8.0, max_seed_attempts=2, backoff_base=0.01, backoff_max=0.1
        )
        runtime, merged, merged_bytes = run_sharded(
            workdir, "poison", ShardFaultPlan(poison={2: "crash"}), poison_policy
        )
        ledger = [(entry.seq, entry.label) for entry in runtime.quarantine]
        ok &= check(
            "poison seed quarantined and campaign completed",
            ledger == [(2, "gen-ub-2")] and merged.generated == serial.generated - 1,
            f"ledger={ledger}",
        )
        ok &= check(
            "poisoned run banked exactly the serial corpus minus that seed",
            merged.keys == [k for i, k in enumerate(serial.keys) if i != 2],
        )

        san_options = SancheckOptions(
            fixtures=FIXTURES, relocations=("outline",), reduce=False
        )
        san_serial_dir = os.path.join(workdir, "san-serial")
        with SancheckCampaign(san_options, bank=Bank(san_serial_dir)) as c:
            san_serial = c.run()
        san_merged_dir = os.path.join(workdir, "san-merged")
        san_runtime = CampaignRuntime(
            SancheckCampaign(san_options, Bank(san_merged_dir)),
            root=os.path.join(workdir, "san-campaign"),
            shards=2,
            policy=POLICY,
        )
        san_merged = san_runtime.run()
        ok &= check(
            "sancheck sharded run matches serial bank and verdicts",
            corpus_bytes(san_merged_dir) == corpus_bytes(san_serial_dir)
            and [v.to_json() for v in san_merged.verdicts]
            == [v.to_json() for v in san_serial.verdicts],
            f"{san_merged.banked_new} findings banked",
        )

    elapsed = time.monotonic() - started
    print(f"chaos smoke: {'PASS' if ok else 'FAIL'} in {elapsed:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
