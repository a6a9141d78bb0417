"""EngineStats folding: ``merge`` and ``restore`` cover every field.

Both are derived from ``dataclasses.fields``, so these tests enumerate
the fields the same way: a counter added later is covered without
touching this file.
"""

from __future__ import annotations

import pickle
from dataclasses import fields

from repro.parallel.stats import EngineStats


def _filled(base: int) -> EngineStats:
    """Every field set to a non-default value derived from *base*."""
    stats = EngineStats()
    for f in fields(stats):
        default = getattr(stats, f.name)
        if isinstance(default, list):
            value = [float(base)]
        elif f.name == "pass_timings":
            value = {"shared": [base, base, base / 4], f"only{base}": [base, base, base / 4]}
        elif isinstance(default, dict):
            value = {"shared": base, f"only{base}": base}
        else:
            value = base
        setattr(stats, f.name, value)
    return stats


def test_merge_folds_every_field():
    mine, other = _filled(1), _filled(2)
    mine.merge(other)
    for f in fields(mine):
        got = getattr(mine, f.name)
        if isinstance(got, list):
            assert got == [1.0, 2.0], f.name
        elif f.name == "pass_timings":
            assert got == {
                "shared": [3, 3, 0.75],
                "only1": [1, 1, 0.25],
                "only2": [2, 2, 0.5],
            }
        elif isinstance(got, dict):
            assert got == {"shared": 3, "only1": 1, "only2": 2}, f.name
        else:
            assert got == 3, f.name
    # The folded-in rows are copies: *other* is left as it was.
    mine.pass_timings["only2"][0] += 100
    assert other.pass_timings["only2"] == [2, 2, 0.5]
    assert other.snapshot() == _filled(2).snapshot()


def test_restore_copies_every_field_without_aliasing():
    source, target = _filled(2), _filled(1)
    target.restore(source)
    for f in fields(target):
        got, want = getattr(target, f.name), getattr(source, f.name)
        assert got == want, f.name
        if isinstance(got, (list, dict)):
            assert got is not want, f.name
    target.pass_timings["shared"][0] += 1
    target.exec_counts["shared"] += 1
    target.batch_latencies.append(9.0)
    assert source.snapshot() == _filled(2).snapshot()


def test_restore_accepts_a_checkpoint_with_removed_counters():
    # Fuzz checkpoints pickle the stats object; one written before the
    # reference-fallback counters were removed still carries them.
    old = _filled(2)
    old.lockstep_runs = 7
    old.fallback_runs = 3
    revived = pickle.loads(pickle.dumps(old))
    stats = EngineStats()
    stats.restore(revived)
    assert stats.snapshot() == _filled(2).snapshot()
    assert not hasattr(stats, "lockstep_runs")
