"""``repro bank merge SRC DST``: fold one bank into another.

Sharing a bank across campaigns is the cross-campaign dedupe; merging
is how two banks grown apart become one.  Entries go through
:meth:`~repro.campaigns.bank.Bank.add`, so the first claim on a key
wins, a merge is idempotent, and a round trip through an empty bank
reproduces every entry and program file byte for byte.  Banks are
crafted by hand: no engine run is needed.
"""

from __future__ import annotations

import os

import pytest

from repro.campaigns.bank import Bank
from repro.cli import main as cli_main
from repro.generative.bank import BankedRepro
from repro.sanval.bank import BankedFinding

pytestmark = pytest.mark.faults


def make_repro(tag: str = "a", good: str = "good") -> BankedRepro:
    return BankedRepro(
        seed=7,
        profile="ub",
        generator_version=1,
        ub_shapes=("uninit",),
        source=f"int main(void) {{ return 1; }} /* {tag} */\n",
        good_source=f"int main(void) {{ return 0; }} /* {good} */\n",
        inputs=[b"", b"\x01"],
        checkers=(f"uninit-read-{tag}",),
        fingerprints=("deadbeef01",),
        group="uninit",
        partition=(("gcc-O0",), ("gcc-O2",)),
        impl_ref="gcc-O0",
        impl_target="gcc-O2",
    )


def make_finding(tag: str = "a") -> BankedFinding:
    return BankedFinding(
        sanitizer="asan",
        outcome="FN",
        seed="fixture/oob",
        variant="outline",
        kinds=("heap-buffer-overflow",),
        checkers=(f"oob-write-{tag}",),
        oracle_fingerprints=("beefcafe02",),
        partition=(("gcc-O0", "gcc-O2"),),
        impl_ref="gcc-O0",
        impl_target="gcc-O2",
        source=f"int main(void) {{ return 2; }} /* {tag} */\n",
        inputs=[b""],
    )


def _bank_bytes(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _merge(src, dst, capsys) -> tuple[int, str]:
    code = cli_main(["bank", "merge", str(src), str(dst)])
    captured = capsys.readouterr()
    return code, captured.out + captured.err


@pytest.mark.parametrize("make", [make_repro, make_finding], ids=["generative", "sancheck"])
def test_round_trip_into_empty_bank_is_byte_identical(make, tmp_path, capsys):
    source = Bank(tmp_path / "src")
    for tag in ("a", "b"):
        assert source.add(make(tag))
    code, out = _merge(tmp_path / "src", tmp_path / "dst", capsys)
    assert code == 0 and "2 new" in out
    assert _bank_bytes(tmp_path / "dst") == _bank_bytes(tmp_path / "src")
    restored = Bank(tmp_path / "dst")
    assert restored.kind == source.kind
    assert list(restored) == list(source)


def test_first_claim_wins(tmp_path, capsys):
    # Same class (same key), different twin: the bank already holding
    # the key keeps its own entry.
    first, second = make_repro(good="first"), make_repro(good="second")
    assert first.key == second.key
    Bank(tmp_path / "dst").add(first)
    source = Bank(tmp_path / "src")
    source.add(second)
    source.add(make_repro("other"))
    code, out = _merge(tmp_path / "src", tmp_path / "dst", capsys)
    assert code == 0 and "1 new" in out and "1 already present" in out
    merged = Bank(tmp_path / "dst")
    assert len(merged) == 2
    assert merged.get(first.key).good_source == first.good_source


@pytest.mark.parametrize("make", [make_repro, make_finding], ids=["generative", "sancheck"])
def test_merge_is_idempotent(make, tmp_path, capsys):
    Bank(tmp_path / "src").add(make())
    assert _merge(tmp_path / "src", tmp_path / "dst", capsys)[0] == 0
    before = _bank_bytes(tmp_path / "dst")
    code, out = _merge(tmp_path / "src", tmp_path / "dst", capsys)
    assert code == 0 and "0 new" in out
    assert _bank_bytes(tmp_path / "dst") == before


def test_kind_mismatch_is_refused(tmp_path, capsys):
    Bank(tmp_path / "src").add(make_finding())
    Bank(tmp_path / "dst").add(make_repro())
    before = _bank_bytes(tmp_path / "dst")
    code, out = _merge(tmp_path / "src", tmp_path / "dst", capsys)
    assert code == 2 and "holds generative entries, not sancheck" in out
    assert _bank_bytes(tmp_path / "dst") == before


def test_missing_source_is_refused(tmp_path, capsys):
    code, out = _merge(tmp_path / "nowhere", tmp_path / "dst", capsys)
    assert code == 2 and "not a bank" in out
    assert not (tmp_path / "dst").exists()
