"""Shared campaign infrastructure: kernel, bank, sharded runtime, salvage.

The generative campaign (``repro generate``) and the sanitizer-validation
campaign (``repro sancheck``) are one loop with two per-seed steps: a
deterministic seed list walked in order, checkpointed at seed
boundaries, banking into a keyed, deduped bank.  This package holds
everything but the steps:

* :mod:`repro.campaigns.kernel` — the :class:`Campaign` protocol, the
  seed loop, its checkpoint record, and the dedupe step;
* :mod:`repro.campaigns.bank` — the one on-disk bank both kinds write;
* :mod:`repro.campaigns.sigint` — deferred Ctrl-C: interrupt at a seed
  boundary with the checkpoint flushed, never mid-seed;
* :mod:`repro.campaigns.runtime` — the sharded, self-healing campaign
  supervisor (seed-range partitioning, watchdogs, quarantine,
  deterministic merge);
* :mod:`repro.campaigns.fsck` — salvage and v1 migration for banks
  (``repro bank fsck``).
"""
