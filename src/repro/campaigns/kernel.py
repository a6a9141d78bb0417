"""The campaign kernel: one seed loop for ``generate`` and ``sancheck``.

Both campaigns have the same shape: a deterministic seed list walked in
order, each seed turned into zero or more bank classes, each new class
built (stabilized, reduced) and banked.  They differ only in what one
seed does, so a campaign is a :class:`Campaign` subclass that provides

* ``kind`` and ``result_type`` — the bank kind it writes and its
  :class:`CampaignResult` subclass;
* ``options`` — with ``digest()``, ``checkpoint_dir``,
  ``checkpoint_every`` and ``workers``;
* ``total()`` and ``label(offset)`` — the seed list's size and the
  human name of one seed (quarantine ledger entries);
* ``step(offset, result)`` — process one seed, tally into *result*, and
  yield a ``(key, build)`` pair per class found.  ``build()`` runs only
  for keys the bank lacks, so expensive work that only a new class needs
  (the generative good-twin search, the sanval FN/FP reduction) is
  never paid for a duplicate.

:func:`run_campaign` owns everything else: the seed slice, quarantine
skips, the ``progress`` hook, the deferred-SIGINT flush, the checkpoint
cadence, ``min_banked``, and dedupe + banking.  Its checkpoint is one
magic+CRC record (:mod:`repro.persist`) holding the campaign kind, the
options digest, the next seed offset, and the result object itself; a
checkpoint written by another kind of campaign or under other options is
refused with :class:`~repro.errors.CheckpointError`.  Because banking
is keyed, replaying the seeds between the last checkpoint and a crash
is idempotent: a resumed campaign converges on the uninterrupted bank.

:func:`merge_shards` is the sharded runtime's merge: shard key streams,
concatenated in shard order, replay through the same dedupe step, with
each new key's record taken from the shard bank that first banked it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Callable, Iterator, Optional

from repro.campaigns.bank import Bank
from repro.campaigns.sigint import DeferredInterrupt
from repro.core.compdiff import CompDiff
from repro.errors import CheckpointError
from repro.persist import read_record, write_record

#: Checkpoint record magic (distinct from the fuzzer's ``RPRCKPT1``).
MAGIC = b"RPRCAMP1"
#: Checkpoint file name inside the checkpoint directory.
CHECKPOINT_FILE = "campaign.ckpt"


@dataclass
class CampaignResult:
    """Banking tallies every campaign result shares.

    Subclasses add their per-seed tallies (ints summed and lists
    concatenated when shard results merge); names in ``BANKING`` are
    recomputed by the merge's replay instead.
    """

    BANKING = ("keys", "banked_new", "duplicates", "bank_size", "resumed_at")

    #: Bank keys this run's seeds produced (banked or duplicate), in
    #: discovery order.  Empty when the campaign has no bank.
    keys: list[str] = field(default_factory=list)
    #: Classes newly banked by this run.
    banked_new: int = 0
    #: Classes found that the bank already held.
    duplicates: int = 0
    #: Bank size after the run (0 when no bank is attached).
    bank_size: int = 0
    #: Seed offset this run resumed from (None = fresh start).
    resumed_at: int | None = None

    def banked(self, record) -> None:
        """Tally one newly banked *record*."""
        self.banked_new += 1

    def absorb(self, other: "CampaignResult") -> None:
        """Add *other*'s per-seed tallies (a later shard's) to this one."""
        for spec in fields(self):
            if spec.name in self.BANKING:
                continue
            mine = getattr(self, spec.name)
            if isinstance(mine, list):
                mine.extend(getattr(other, spec.name))
            else:
                setattr(self, spec.name, mine + getattr(other, spec.name))


@dataclass
class Checkpoint:
    """Campaign progress at a seed boundary."""

    kind: str
    options_digest: str
    #: Seed offsets below this one are fully processed and banked.
    offset: int
    result: CampaignResult


class Campaign:
    """Base for the kernel-driven campaigns (see the module docstring).

    Owns the CompDiff engine unless one is passed in; the engine is
    built on first use, so a campaign that only sizes and labels its
    seed list (the sharded runtime's supervisor) never starts one.
    """

    kind: str
    result_type: type[CampaignResult]

    def __init__(self, options, bank: Bank | None = None, engine: CompDiff | None = None,
                 policy=None, fault_plan=None) -> None:
        self.options = options
        self.bank = bank
        self._policy = policy
        self._fault_plan = fault_plan
        self._owns_engine = False
        if engine is not None:
            self.engine = engine

    @cached_property
    def engine(self) -> CompDiff:
        self._owns_engine = True
        return CompDiff(
            workers=self.options.workers, policy=self._policy, fault_plan=self._fault_plan
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the engine's worker pool if this campaign owns it."""
        if self._owns_engine:
            self.engine.close()

    def run(self, **loop) -> CampaignResult:
        """Run the campaign; *loop* takes :func:`run_campaign`'s keywords."""
        loop.setdefault("min_banked", getattr(self.options, "min_banked", None))
        return run_campaign(self, **loop)

    # The per-kind protocol.

    def total(self) -> int:  # pragma: no cover - every subclass overrides
        raise NotImplementedError

    def label(self, offset: int) -> str:  # pragma: no cover
        raise NotImplementedError

    def step(self, offset: int, result) -> Iterator[tuple[str, Callable]]:  # pragma: no cover
        raise NotImplementedError


def _bank(result: CampaignResult, bank: Bank, key: str, build: Callable) -> None:
    """The dedupe step: count a known key, build and bank a new one."""
    result.keys.append(key)
    if key in bank:
        result.duplicates += 1
        return
    record = build()
    assert record.key == key, f"built record keys {record.key}, not {key}"
    bank.add(record)
    result.banked(record)


def run_campaign(
    campaign: Campaign,
    seed_slice: tuple[int, int] | None = None,
    skip: frozenset[int] = frozenset(),
    progress: Optional[Callable[[int], None]] = None,
    interruptible: bool = True,
    min_banked: int | None = None,
) -> CampaignResult:
    """Walk *campaign*'s seeds through ``step``, banking as they go.

    ``seed_slice`` restricts the walk to global offsets ``[start,
    stop)`` (the sharded runtime's partitioning hook; default: every
    seed).  Offsets in ``skip`` are quarantined poison seeds: they
    advance the checkpoint but never run.  ``progress`` is called with
    each offset at the seed boundary *before* that seed runs.  With
    ``interruptible``, Ctrl-C is deferred to the next seed boundary,
    where the checkpoint is flushed before ``KeyboardInterrupt``
    propagates.  ``min_banked`` stops the walk once that many classes
    were newly banked.
    """
    options = campaign.options
    bank = campaign.bank
    lo, hi = seed_slice if seed_slice is not None else (0, campaign.total())
    path = None
    if options.checkpoint_dir is not None:
        path = os.path.join(options.checkpoint_dir, CHECKPOINT_FILE)
    result, start = campaign.result_type(), lo
    if path is not None and os.path.exists(path):
        checkpoint = read_record(path, MAGIC, Checkpoint)
        if checkpoint.kind != campaign.kind:
            raise CheckpointError(
                f"{path!r} is a {checkpoint.kind} checkpoint, not a "
                f"{campaign.kind} one; refusing to resume"
            )
        if checkpoint.options_digest != options.digest():
            raise CheckpointError(
                f"{campaign.kind} checkpoint was written with different campaign "
                f"options; refusing to resume (move or delete {path!r} to start fresh)"
            )
        result, start = checkpoint.result, max(lo, checkpoint.offset)
        result.resumed_at = start

    def save(offset: int) -> None:
        if path is not None:
            write_record(
                path, MAGIC, Checkpoint(campaign.kind, options.digest(), offset, result)
            )

    done = start
    with DeferredInterrupt(enabled=interruptible) as intr:
        for offset in range(start, hi):
            if intr.pending:
                save(done)
                raise KeyboardInterrupt("campaign interrupted; checkpoint flushed")
            if min_banked is not None and result.banked_new >= min_banked:
                break
            if progress is not None:
                progress(offset)
            if offset not in skip:
                for key, build in campaign.step(offset, result):
                    if bank is not None:
                        _bank(result, bank, key, build)
            done = offset + 1
            if (done - start) % options.checkpoint_every == 0:
                save(done)
    save(done)
    result.bank_size = len(bank) if bank is not None else 0
    return result


def merge_shards(
    campaign: Campaign, shards: list[tuple[CampaignResult, str]]
) -> CampaignResult:
    """Merge shard ``(result, bank_dir)`` pairs, in shard order, serially.

    Shard blocks are contiguous and in order, so their concatenated key
    streams are the serial discovery order; replaying them through the
    dedupe step banks into ``campaign.bank`` exactly what a serial run
    would have, each record from the first shard that banked its key.
    """
    merged = campaign.result_type()
    for result, _ in shards:
        merged.absorb(result)
    bank = campaign.bank
    if bank is None:
        return merged
    for result, bank_dir in shards:
        shard_bank = Bank(bank_dir, kind=campaign.kind)
        for key in result.keys:
            _bank(merged, bank, key, partial(shard_bank.get, key))
    merged.bank_size = len(bank)
    return merged
