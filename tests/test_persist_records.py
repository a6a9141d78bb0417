"""Durable-record corruption tests for every campaign checkpoint format.

``tests/test_checkpoint.py`` pins these properties for the fuzzer's
``RPRCKPT1`` records; this module pins the same contract for the
formats added since — the campaign kernel's checkpoint (``RPRCAMP1``,
one format for both kinds of campaign, exercised here with each kind's
result object) and the shard result record (``RPRSHRD1``): any
truncated, short, empty, wrong-magic, or bit-flipped record raises
:class:`~repro.errors.CheckpointError` instead of deserializing
garbage, and the atomic-write helpers leave no temp droppings.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaigns.bank import Bank
from repro.campaigns.kernel import CHECKPOINT_FILE, MAGIC, Checkpoint
from repro.campaigns.runtime import SHARD_MAGIC, ShardRecord
from repro.errors import CheckpointError
from repro.generative.campaign import GenerativeCampaign, GenerativeOptions, GenerativeResult
from repro.persist import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    read_record,
    write_record,
)
from repro.sanval.campaign import SancheckCampaign, SancheckOptions, SancheckResult

pytestmark = pytest.mark.faults


def _gen_checkpoint() -> Checkpoint:
    return Checkpoint(
        kind="generative",
        options_digest="d" * 16,
        offset=3,
        result=GenerativeResult(
            generated=3, divergent=1, banked_new=1, keys=["abcd" * 4]
        ),
    )


def _san_checkpoint() -> Checkpoint:
    return Checkpoint(
        kind="sancheck",
        options_digest="e" * 16,
        offset=2,
        result=SancheckResult(
            seeds=2, variants=4, screened=1, banked_new=1, duplicates=1
        ),
    )


def _shard_record() -> ShardRecord:
    return ShardRecord(
        options_digest="f" * 16,
        lo=0,
        hi=2,
        result=GenerativeResult(generated=2, divergent=1, banked_new=1),
    )


FORMATS = [
    pytest.param(MAGIC, _gen_checkpoint, Checkpoint, id="generative"),
    pytest.param(MAGIC, _san_checkpoint, Checkpoint, id="sancheck"),
    pytest.param(SHARD_MAGIC, _shard_record, ShardRecord, id="shard"),
]


@pytest.mark.parametrize("magic,make,cls", FORMATS)
def test_round_trip(tmp_path, magic, make, cls):
    path = str(tmp_path / "state.rec")
    original = make()
    write_record(path, magic, original)
    assert read_record(path, magic, cls) == original


@pytest.mark.parametrize("magic,make,cls", FORMATS)
def test_empty_record_is_rejected(tmp_path, magic, make, cls):
    path = tmp_path / "state.rec"
    path.write_bytes(b"")
    with pytest.raises(CheckpointError):
        read_record(str(path), magic, cls)


@pytest.mark.parametrize("magic,make,cls", FORMATS)
def test_short_record_is_rejected(tmp_path, magic, make, cls):
    # Shorter than magic + CRC: no payload to even checksum.
    path = tmp_path / "state.rec"
    path.write_bytes(magic[:5])
    with pytest.raises(CheckpointError):
        read_record(str(path), magic, cls)


@pytest.mark.parametrize("magic,make,cls", FORMATS)
def test_truncated_record_is_rejected(tmp_path, magic, make, cls):
    path = str(tmp_path / "state.rec")
    write_record(path, magic, make())
    blob = open(path, "rb").read()
    for cut in (len(blob) // 2, len(blob) - 1):
        open(path, "wb").write(blob[:cut])
        with pytest.raises(CheckpointError):
            read_record(path, magic, cls)


@pytest.mark.parametrize("magic,make,cls", FORMATS)
def test_wrong_magic_is_rejected(tmp_path, magic, make, cls):
    path = str(tmp_path / "state.rec")
    write_record(path, magic, make())
    with pytest.raises(CheckpointError):
        read_record(path, b"RPRWRNG1", make().__class__)


def test_campaign_magics_are_mutually_incompatible(tmp_path):
    # A generative campaign's checkpoint directory handed to a sancheck
    # campaign is refused, not resumed from.
    write_record(str(tmp_path / CHECKPOINT_FILE), MAGIC, _gen_checkpoint())
    options = SancheckOptions(checkpoint_dir=str(tmp_path))
    with pytest.raises(CheckpointError, match="generative checkpoint"):
        SancheckCampaign(options, Bank(tmp_path / "bank")).run()
    # A shard result record is no campaign checkpoint either.
    write_record(str(tmp_path / CHECKPOINT_FILE), SHARD_MAGIC, _shard_record())
    with pytest.raises(CheckpointError, match="bad magic"):
        GenerativeCampaign(GenerativeOptions(checkpoint_dir=str(tmp_path)), None).run()


@pytest.mark.parametrize("magic,make,cls", FORMATS)
def test_bit_flip_fails_integrity_check(tmp_path, magic, make, cls):
    path = str(tmp_path / "state.rec")
    write_record(path, magic, make())
    blob = bytearray(open(path, "rb").read())
    blob[len(magic) + 6] ^= 0x40
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError):
        read_record(path, magic, cls)


@pytest.mark.parametrize("magic,make,cls", FORMATS)
def test_foreign_payload_type_is_rejected(tmp_path, magic, make, cls):
    path = str(tmp_path / "state.rec")
    write_record(path, magic, {"not": "a checkpoint"})
    with pytest.raises(CheckpointError):
        read_record(path, magic, cls)


def test_atomic_writers_leave_no_temp_files(tmp_path):
    atomic_write_bytes(tmp_path / "a.bin", b"\x00\x01")
    atomic_write_text(tmp_path / "b.txt", "hello\n")
    atomic_write_json(tmp_path / "c.json", {"k": [1, 2]})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt", "c.json"]
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
    assert json.loads((tmp_path / "c.json").read_text()) == {"k": [1, 2]}


def test_atomic_write_replaces_existing_content(tmp_path):
    target = tmp_path / "state.json"
    atomic_write_json(target, {"generation": 1})
    atomic_write_json(target, {"generation": 2})
    assert json.loads(target.read_text()) == {"generation": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
