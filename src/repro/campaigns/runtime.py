"""Sharded, self-healing campaign runtime: partition, supervise, merge.

Campaigns in this repo are deterministic walks over a seed range, so
parallelising them is a *partitioning* problem, not a queueing one: the
range is split into contiguous blocks, one per shard, and each shard
worker process runs the ordinary campaign kernel
(:func:`~repro.campaigns.kernel.run_campaign`) over its block with its
own checkpoint directory and its own bank shard.  Because blocks are
contiguous and in shard order, concatenating shard results reproduces
the serial discovery order exactly — which is what lets the merge be
held to a byte-identity contract rather than a fuzzy "same-ish corpus"
one.

Supervision (one poll loop, no threads):

* **heartbeats** — a shard's campaign loop reports each seed boundary
  through the ``progress`` hook; the worker writes the offset to an
  atomic ``heartbeat.json``.  A shard whose heartbeat stops advancing
  for ``seed_deadline`` seconds is declared hung and killed.
* **restart + bounded retry** — a dead or killed shard is relaunched
  after exponential backoff; its checkpoint resumes it at the seed
  boundary it last completed.  The failure is *blamed* on the heartbeat
  offset, and a seed that accumulates ``max_seed_attempts`` blamed
  failures is a **poison seed**: it is appended to the durable
  quarantine ledger (``quarantine.json``) and skipped by every
  subsequent launch, so one pathological seed cannot wedge the
  campaign.
* **corrupt-state self-heal** — a worker that finds its own checkpoint
  or bank shard unloadable (torn write, bit rot, an injected corrupt
  fault) wipes the shard's state and deterministically replays its
  block from the start instead of dying on it.
* **range adoption** — a shard that exhausts ``max_shard_restarts`` is
  not retried again in a subprocess: the supervisor adopts its
  remaining range and runs it in-process (fault injection disabled), so
  the campaign always terminates with full coverage minus quarantined
  seeds.
* **crash recovery on resume** — the shard plan (``shards.json``), the
  ledger, every shard checkpoint, and every completed shard's result
  record (``result.rec``) are durable; rerunning after the *supervisor*
  itself died relaunches only the unfinished shards and converges on
  the same corpus.

The merge (:func:`~repro.campaigns.kernel.merge_shards`) replays serial
banking order: shard key streams are concatenated in shard order and
run through the kernel's dedupe step, and each key's banked entry is the
one discovered at the lowest global seed offset — exactly the entry a
serial run would have banked first.  Invariant (pinned by
``tests/test_campaign_runtime.py`` and ``make chaos``): for any
:class:`~repro.parallel.faults.ShardFaultPlan`, the merged corpus is
byte-identical to a fault-free serial run, minus only the contributions
of seeds the plan's ``poison`` entries drove into the ledger.

Layout under the campaign root::

    shards.json            # digest + shard count + block ranges
    quarantine.json        # poison-seed ledger, append-only
    shard-00/
        heartbeat.json     # {"offset": N, "pid": P} at each boundary
        result.rec         # RPRSHRD1 record once the block completed
        ckpt/              # the shard campaign's ordinary checkpoint
        bank/              # the shard's private bank
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.campaigns.bank import Bank
from repro.campaigns.kernel import CHECKPOINT_FILE, Campaign, merge_shards, run_campaign
from repro.campaigns.sigint import DeferredInterrupt
from repro.errors import CheckpointError, EngineConfigError, ReproError
from repro.parallel.faults import ShardFaultPlan, execute_shard_fault
from repro.parallel.stats import EngineStats
from repro.parallel.supervisor import QuarantineEntry, backoff_delay
from repro.persist import atomic_write_json, read_record, write_record

#: Shard result record magic (distinct from every campaign checkpoint).
SHARD_MAGIC = b"RPRSHRD1"

#: Files under the campaign root / each shard directory.
SHARDS_FILE = "shards.json"
QUARANTINE_FILE = "quarantine.json"
HEARTBEAT_FILE = "heartbeat.json"
RESULT_FILE = "result.rec"
SHARD_CKPT_DIR = "ckpt"
SHARD_BANK_DIR = "bank"

#: Shard-plan format version.
SHARDS_VERSION = 1
#: Quarantine-ledger format version.
QUARANTINE_VERSION = 1


def partition_range(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into *shards* contiguous blocks, in order.

    Blocks differ in size by at most one, earlier blocks taking the
    remainder, so the partition is a pure function of ``(total,
    shards)`` — the property shard-plan resume and the merge's
    serial-order reconstruction both rely on.
    """
    if shards < 1:
        raise EngineConfigError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(total, shards)
    ranges = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class ShardPolicy:
    """Recovery knobs for one :class:`CampaignRuntime`."""

    #: Seconds a shard's heartbeat may stand still before the shard is
    #: declared hung and killed.  ``None`` disables the watchdog.  Must
    #: comfortably exceed the cost of one seed (generate + diff +
    #: reduce), which is wall-clock work, not a hang.
    seed_deadline: Optional[float] = 120.0
    #: Blamed failures a seed may accumulate before quarantine.
    max_seed_attempts: int = 3
    #: Relaunches a shard may consume before its range is adopted
    #: in-process.
    max_shard_restarts: int = 16
    #: Exponential backoff between a shard's relaunches, in seconds.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: Supervisor poll interval, in seconds.
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.seed_deadline is not None and self.seed_deadline <= 0:
            raise EngineConfigError(
                f"seed_deadline must be positive or None, got {self.seed_deadline}"
            )
        if self.max_seed_attempts < 1:
            raise EngineConfigError(
                f"max_seed_attempts must be >= 1, got {self.max_seed_attempts}"
            )
        if self.max_shard_restarts < 0:
            raise EngineConfigError(
                f"max_shard_restarts must be >= 0, got {self.max_shard_restarts}"
            )

    def backoff(self, recovery_round: int) -> float:
        """Sleep before relaunch *recovery_round* (0-based) of a shard."""
        return backoff_delay(
            recovery_round, self.backoff_base, self.backoff_factor, self.backoff_max
        )


@dataclass
class ShardRecord:
    """A completed shard's durable result (``result.rec``)."""

    options_digest: str
    lo: int
    hi: int
    #: The shard campaign's ordinary result object
    #: (a :class:`~repro.campaigns.kernel.CampaignResult`).
    result: object


# --------------------------------------------------------------------------
# Shard worker
# --------------------------------------------------------------------------


def _shard_worker(
    campaign_type: type[Campaign],
    options,
    lo: int,
    hi: int,
    skip: frozenset[int],
    shard_dir: str,
    fault_plan: ShardFaultPlan | None,
    attempts: dict[int, int],
) -> None:
    """Drive one shard's block to completion and persist its record.

    Module-level (picklable) so it works under both fork and spawn.
    The supervisor owns interrupt semantics, so SIGINT is ignored here;
    the heartbeat is written at every seed boundary *before* the seed
    (and before any injected fault), which is what makes the
    supervisor's failure blame exact.  A shard whose own checkpoint or
    bank is unloadable self-heals: wipe the shard state, replay the
    block deterministically.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    heartbeat_path = os.path.join(shard_dir, HEARTBEAT_FILE)
    ckpt_dir = os.path.join(shard_dir, SHARD_CKPT_DIR)
    bank_dir = os.path.join(shard_dir, SHARD_BANK_DIR)
    ckpt_path = os.path.join(ckpt_dir, CHECKPOINT_FILE)
    # Boundary-exact checkpoints: an injected crash at offset k resumes
    # at exactly k.  The shard *is* the parallelism, so its engine runs
    # single-worker; ``min_banked`` is order-dependent and never applies.
    options = replace(options, checkpoint_dir=ckpt_dir, checkpoint_every=1, workers=1)

    def progress(offset: int) -> None:
        atomic_write_json(heartbeat_path, {"offset": offset, "pid": os.getpid()})
        if fault_plan is not None and offset not in skip:
            kind = fault_plan.decide(offset, attempts.get(offset, 0))
            if kind is not None:
                execute_shard_fault(kind, checkpoint_path=ckpt_path)

    def run():
        bank = Bank(bank_dir, kind=campaign_type.kind)
        with campaign_type(options, bank) as campaign:
            return run_campaign(
                campaign, seed_slice=(lo, hi), skip=skip, progress=progress,
                interruptible=False,
            )

    try:
        result = run()
    except ReproError:
        # Torn/corrupt shard state (CheckpointError from the checkpoint,
        # ReproError from the bank manifest): wipe this shard only and
        # replay its block from the start.  A second failure is a real
        # campaign error and propagates.
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        shutil.rmtree(bank_dir, ignore_errors=True)
        result = run()
    write_record(
        os.path.join(shard_dir, RESULT_FILE),
        SHARD_MAGIC,
        ShardRecord(options_digest=options.digest(), lo=lo, hi=hi, result=result),
    )


# --------------------------------------------------------------------------
# Supervisor
# --------------------------------------------------------------------------


@dataclass
class _ShardState:
    """Supervisor-side view of one live shard process."""

    process: multiprocessing.process.BaseProcess
    last_offset: Optional[int] = None
    last_progress: float = field(default_factory=time.monotonic)


class CampaignRuntime:
    """Partition *campaign* across shard workers and merge into its bank.

    The supervisor only sizes, labels, and digests the campaign; each
    shard worker builds its own campaign of the same type from the same
    options.  ``run()`` returns the same result type the campaign's
    serial ``run()`` would; recovery accounting lands in :attr:`stats`
    and poison seeds in :attr:`quarantine`.
    """

    def __init__(
        self,
        campaign: Campaign,
        root: str,
        shards: int,
        policy: ShardPolicy | None = None,
        fault_plan: ShardFaultPlan | None = None,
        stats: EngineStats | None = None,
    ) -> None:
        if shards < 1:
            raise EngineConfigError(f"shards must be >= 1, got {shards}")
        self.campaign = campaign
        self.digest = campaign.options.digest()
        self.root = root
        self.shards = shards
        self.policy = policy if policy is not None else ShardPolicy()
        self.fault_plan = fault_plan
        self.stats = stats if stats is not None else EngineStats()
        #: Poison-seed ledger entries (``seq`` is the global offset).
        self.quarantine: list[QuarantineEntry] = []
        self._ranges: list[tuple[int, int]] = []
        self._skip: set[int] = set()
        #: Global offset -> blamed failure count (drives fault replay
        #: decisions and quarantine).
        self._attempts: dict[int, int] = {}

    # -------------------------------------------------------------- layout

    def _shard_dir(self, index: int) -> str:
        return os.path.join(self.root, f"shard-{index:02d}")

    def _shards_path(self) -> str:
        return os.path.join(self.root, SHARDS_FILE)

    def _quarantine_path(self) -> str:
        return os.path.join(self.root, QUARANTINE_FILE)

    # ---------------------------------------------------------------- plan

    def _load_or_create_plan(self) -> None:
        """Adopt the durable shard plan, refusing incompatible reuse."""
        total = self.campaign.total()
        digest = self.digest
        path = self._shards_path()
        if os.path.exists(path):
            try:
                plan = json.loads(open(path).read())
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"shard plan {path!r} is unreadable: {exc} "
                    "(delete the campaign directory to start fresh)"
                ) from exc
            if (
                plan.get("version") != SHARDS_VERSION
                or plan.get("digest") != digest
                or plan.get("total") != total
                or plan.get("shards") != self.shards
            ):
                raise CheckpointError(
                    f"shard plan {path!r} was written for a different "
                    "campaign (options digest, seed total, or shard count "
                    "changed); refusing to resume"
                )
            self._ranges = [tuple(block) for block in plan["ranges"]]
        else:
            self._ranges = partition_range(total, self.shards)
            atomic_write_json(
                path,
                {
                    "version": SHARDS_VERSION,
                    "digest": digest,
                    "total": total,
                    "shards": self.shards,
                    "ranges": [list(block) for block in self._ranges],
                },
            )

    def _load_quarantine(self) -> None:
        path = self._quarantine_path()
        if not os.path.exists(path):
            return
        try:
            ledger = json.loads(open(path).read())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"quarantine ledger {path!r} is unreadable: {exc}"
            ) from exc
        for entry in ledger.get("entries", []):
            record = QuarantineEntry(
                seq=entry["offset"],
                label=entry["label"],
                attempts=entry["attempts"],
                reason=entry["reason"],
            )
            self.quarantine.append(record)
            self._skip.add(record.seq)
            self._attempts[record.seq] = record.attempts

    def _save_quarantine(self) -> None:
        atomic_write_json(
            self._quarantine_path(),
            {
                "version": QUARANTINE_VERSION,
                "entries": [
                    {
                        "offset": entry.seq,
                        "label": entry.label,
                        "attempts": entry.attempts,
                        "reason": entry.reason,
                    }
                    for entry in self.quarantine
                ],
            },
        )

    def _quarantine_seed(self, offset: int, reason: str) -> None:
        if offset in self._skip:
            return
        entry = QuarantineEntry(
            seq=offset,
            label=self.campaign.label(offset),
            attempts=self._attempts.get(offset, 0),
            reason=reason,
        )
        self.quarantine.append(entry)
        self._skip.add(offset)
        self._save_quarantine()
        self.stats.record_seed_quarantine()

    # ------------------------------------------------------------- shard io

    def _shard_record(self, index: int) -> ShardRecord | None:
        """The shard's completed result, or None if absent/invalid."""
        path = os.path.join(self._shard_dir(index), RESULT_FILE)
        if not os.path.exists(path):
            return None
        try:
            record = read_record(path, SHARD_MAGIC, ShardRecord)
        except CheckpointError:
            return None
        if record.options_digest != self.digest:
            return None
        if (record.lo, record.hi) != self._ranges[index]:
            return None
        return record

    def _read_heartbeat(self, index: int) -> Optional[int]:
        path = os.path.join(self._shard_dir(index), HEARTBEAT_FILE)
        try:
            return json.loads(open(path).read()).get("offset")
        except (OSError, json.JSONDecodeError, ValueError):
            return None

    # -------------------------------------------------------------- running

    def run(self):
        """Drive every shard to completion, then merge.

        Returns the merged campaign result.  Ctrl-C is deferred to the
        supervisor's poll boundary: live shards are killed (their
        checkpoints are boundary-durable) and ``KeyboardInterrupt``
        propagates with the campaign resumable from disk.
        """
        os.makedirs(self.root, exist_ok=True)
        self._load_or_create_plan()
        self._load_quarantine()
        pending = [
            index
            for index in range(self.shards)
            if self._shard_record(index) is None and self._ranges[index][0] < self._ranges[index][1]
        ]
        restarts: dict[int, int] = {index: 0 for index in pending}
        backoff_until: dict[int, float] = {}
        active: dict[int, _ShardState] = {}
        try:
            with DeferredInterrupt() as intr:
                while pending or active:
                    if intr.pending:
                        raise KeyboardInterrupt(
                            "sharded campaign interrupted; shard checkpoints "
                            "are flushed at seed boundaries — rerun to resume"
                        )
                    now = time.monotonic()
                    for index in list(pending):
                        if now < backoff_until.get(index, 0.0):
                            continue
                        pending.remove(index)
                        active[index] = self._launch(index)
                    self._poll(active, pending, restarts, backoff_until)
                    if pending or active:
                        time.sleep(self.policy.poll_interval)
        finally:
            for state in active.values():
                state.process.kill()
                state.process.join()
        return self._merge()

    def _launch(self, index: int) -> _ShardState:
        lo, hi = self._ranges[index]
        shard_dir = self._shard_dir(index)
        os.makedirs(shard_dir, exist_ok=True)
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        process = context.Process(
            target=_shard_worker,
            args=(
                type(self.campaign),
                self.campaign.options,
                lo,
                hi,
                frozenset(self._skip),
                shard_dir,
                self.fault_plan,
                dict(self._attempts),
            ),
            daemon=True,
        )
        process.start()
        return _ShardState(process=process)

    def _poll(
        self,
        active: dict[int, _ShardState],
        pending: list[int],
        restarts: dict[int, int],
        backoff_until: dict[int, float],
    ) -> None:
        now = time.monotonic()
        for index, state in list(active.items()):
            offset = self._read_heartbeat(index)
            if offset is not None and offset != state.last_offset:
                state.last_offset = offset
                state.last_progress = now
            if not state.process.is_alive():
                state.process.join()
                del active[index]
                if state.process.exitcode == 0 and self._shard_record(index) is not None:
                    continue
                self._recover(
                    index,
                    state,
                    pending,
                    restarts,
                    backoff_until,
                    reason=f"shard worker exited with code {state.process.exitcode}",
                )
            elif (
                self.policy.seed_deadline is not None
                and now - state.last_progress > self.policy.seed_deadline
            ):
                state.process.kill()
                state.process.join()
                del active[index]
                self._recover(
                    index,
                    state,
                    pending,
                    restarts,
                    backoff_until,
                    reason=(
                        f"seed deadline expired after {self.policy.seed_deadline}s "
                        "without a heartbeat (shard hung)"
                    ),
                )

    def _recover(
        self,
        index: int,
        state: _ShardState,
        pending: list[int],
        restarts: dict[int, int],
        backoff_until: dict[int, float],
        reason: str,
    ) -> None:
        """Blame, maybe quarantine, and relaunch or adopt shard *index*."""
        blamed = state.last_offset
        if blamed is None:
            blamed = self._ranges[index][0]
        if blamed not in self._skip:
            self._attempts[blamed] = self._attempts.get(blamed, 0) + 1
            if self._attempts[blamed] >= self.policy.max_seed_attempts:
                self._quarantine_seed(
                    blamed, f"{reason}; seed blamed on {self._attempts[blamed]} attempts"
                )
        restarts[index] = restarts.get(index, 0) + 1
        self.stats.record_shard_restart()
        if restarts[index] > self.policy.max_shard_restarts:
            self._adopt(index)
        else:
            backoff_until[index] = time.monotonic() + self.policy.backoff(
                restarts[index] - 1
            )
            pending.append(index)

    def _adopt(self, index: int) -> None:
        """Run shard *index*'s remaining range in-process, fault-free.

        The shard's checkpoint resumes it at its last completed seed
        boundary, so adoption pays only for the unfinished tail.
        """
        self.stats.record_shard_adoption()
        lo, hi = self._ranges[index]
        _shard_worker(
            type(self.campaign),
            self.campaign.options,
            lo,
            hi,
            frozenset(self._skip),
            self._shard_dir(index),
            None,
            {},
        )

    # --------------------------------------------------------------- merge

    def _merge(self):
        payloads = []
        for index in range(self.shards):
            lo, hi = self._ranges[index]
            if lo >= hi:
                continue
            record = self._shard_record(index)
            if record is None:  # pragma: no cover - run() drives all shards
                raise CheckpointError(
                    f"shard {index} finished without a valid result record"
                )
            payloads.append(
                (record.result, os.path.join(self._shard_dir(index), SHARD_BANK_DIR))
            )
        return merge_shards(self.campaign, payloads)
