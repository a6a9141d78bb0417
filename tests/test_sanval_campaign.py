"""Sancheck campaign driver: determinism, banking, checkpoints, CLI."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.campaigns.bank import Bank
from repro.cli import main as cli_main
from repro.errors import CheckpointError, ReproError
from repro.sanval import (
    SancheckCampaign,
    SancheckOptions,
    fixture_seeds,
)

pytestmark = pytest.mark.sanval

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "sanval"


def run_campaign(bank=None, **overrides):
    options = SancheckOptions(fixtures=str(FIXTURES), **overrides)
    with SancheckCampaign(options, bank=bank) as campaign:
        return campaign.run()


@pytest.fixture(scope="module")
def fixture_result():
    return run_campaign()


class TestFixtureCampaign:
    def test_planted_defects_are_found(self, fixture_result):
        counts = fixture_result.counts()
        assert counts["asan"]["FN"] >= 1
        assert counts["msan"]["FN"] >= 1
        assert counts["ubsan"]["FP"] >= 1
        assert counts["ubsan"]["TP"] >= 1

    def test_every_variant_is_accounted_for(self, fixture_result):
        counts = fixture_result.counts()
        judged = sum(sum(row.values()) for row in counts.values())
        assert fixture_result.seeds == 3
        assert judged == fixture_result.variants == len(fixture_result.verdicts)

    def test_findings_carry_complete_evidence(self, fixture_result):
        findings = fixture_result.findings()
        assert findings, "campaign must surface FN/FP findings"
        for verdict in findings:
            assert verdict.outcome in ("FN", "FP")
            assert verdict.source
            if verdict.outcome == "FN":
                assert verdict.expected
                assert verdict.truth.confirmed_checkers
                assert verdict.truth.oracle_fingerprints
                assert verdict.truth.impl_ref != verdict.truth.impl_target
            else:
                assert verdict.reported_kinds
                assert not verdict.truth.divergent

    def test_render_mentions_scoreboard_rows(self, fixture_result):
        text = fixture_result.render()
        for sanitizer in ("asan", "msan", "ubsan"):
            assert sanitizer in text


class TestDeterminism:
    def test_rerun_is_byte_identical(self, fixture_result):
        again = run_campaign()
        assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(
            fixture_result.to_json(), sort_keys=True
        )

    def test_worker_count_does_not_change_verdicts(self, fixture_result):
        pooled = run_campaign(workers=2)
        assert json.dumps(pooled.to_json(), sort_keys=True) == json.dumps(
            fixture_result.to_json(), sort_keys=True
        )


class TestBanking:
    def test_findings_are_banked_reduced_and_deduped(self, tmp_path):
        bank = Bank(tmp_path / "bank")
        first = run_campaign(bank=bank)
        assert first.banked_new >= 2
        assert first.bank_size == len(bank)
        for finding in bank:
            assert finding.reduced_nodes <= finding.original_nodes
        # A rerun over the same bank discovers only duplicates.
        second = run_campaign(bank=Bank(tmp_path / "bank"))
        assert second.banked_new == 0
        assert second.duplicates >= first.banked_new

    def test_bank_survives_reopen(self, tmp_path):
        bank = Bank(tmp_path / "bank")
        run_campaign(bank=bank)
        reopened = Bank(tmp_path / "bank")
        assert reopened.keys() == bank.keys()


class TestCheckpointing:
    def test_resume_after_interrupt_completes_identically(self, tmp_path, fixture_result):
        ckpt = tmp_path / "ckpt"
        options = SancheckOptions(fixtures=str(FIXTURES), checkpoint_dir=str(ckpt))

        class Boom(RuntimeError):
            pass

        with SancheckCampaign(options) as campaign:
            original = campaign.step
            calls = 0

            def explode(offset, result):
                nonlocal calls
                calls += 1
                if calls > 1:
                    raise Boom()
                return original(offset, result)

            campaign.step = explode
            with pytest.raises(Boom):
                campaign.run()

        with SancheckCampaign(options) as campaign:
            resumed = campaign.run()
        assert resumed.resumed_at == 1
        assert json.dumps(resumed.to_json(), sort_keys=True) == json.dumps(
            fixture_result.to_json(), sort_keys=True
        )

    def test_checkpoint_refuses_mismatched_options(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_campaign(checkpoint_dir=str(ckpt))
        options = SancheckOptions(
            fixtures=str(FIXTURES),
            checkpoint_dir=str(ckpt),
            relocations=("outline",),
        )
        with SancheckCampaign(options) as campaign:
            with pytest.raises(CheckpointError):
                campaign.run()


class TestSeedLoading:
    def test_fixture_seeds_load_manifest(self):
        seeds = fixture_seeds(str(FIXTURES))
        assert [s.label for s in seeds] == [
            "asan_far_oob",
            "msan_value_flow",
            "ubsan_scope",
        ]
        for seed in seeds:
            assert seed.bad_source
            assert seed.good_source
            assert seed.inputs == (b"",)

    def test_fixture_seeds_reject_bad_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 99, "cases": []}')
        with pytest.raises(ReproError):
            fixture_seeds(str(tmp_path))

    def test_fixture_seeds_require_manifest(self, tmp_path):
        with pytest.raises(ReproError):
            fixture_seeds(str(tmp_path / "missing"))


class TestCLI:
    def test_sancheck_gates_on_planted_defects(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = cli_main(
            [
                "sancheck",
                "--fixtures",
                str(FIXTURES),
                "--bank",
                str(tmp_path / "bank"),
                "--min-fn",
                "1",
                "--min-fp",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["findings"]
        text = capsys.readouterr().out
        assert "FN" in text

    def test_sancheck_fails_unreachable_minimum(self, capsys):
        code = cli_main(
            ["sancheck", "--fixtures", str(FIXTURES), "--min-fn", "99"]
        )
        assert code == 1
        capsys.readouterr()

    def test_sancheck_requires_a_seed_source(self, capsys):
        assert cli_main(["sancheck"]) == 2
        capsys.readouterr()

    def test_sancheck_rejects_unknown_relocation(self, capsys):
        code = cli_main(
            ["sancheck", "--fixtures", str(FIXTURES), "--relocations", "warp"]
        )
        assert code == 2
        capsys.readouterr()

    def test_sancheck_writes_valid_sarif(self, tmp_path, capsys):
        from repro.static_analysis import validate_sarif

        sarif = tmp_path / "report.sarif"
        code = cli_main(
            ["sancheck", "--fixtures", str(FIXTURES), "--sarif", str(sarif), "--json"]
        )
        assert code == 0
        assert validate_sarif(json.loads(sarif.read_text())) == []
        capsys.readouterr()
