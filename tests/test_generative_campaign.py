"""Campaign and corpus-bank suite: deterministic, crash-safe banking.

The end-to-end invariants (generate→diff→reduce→bank on real engines):

* two clean runs over the same seed range bank byte-identical corpora;
* a campaign on the supervised pool with injected worker crashes banks
  the *same* corpus as the fault-free run (faults are verdict- and
  therefore corpus-transparent);
* a campaign killed between checkpoints and resumed converges on the
  uninterrupted corpus without losing or double-banking repros;
* banked repros carry both pass attributions (original and reduced)
  with the drift flag consistent between them;
* the banked corpus plugs into the precision scoreboard: every
  classified repro scores a TP for a checker it fired, and stabilized
  good twins contribute zero false positives.
"""

from __future__ import annotations

import pytest

from repro.core.compdiff import CompDiff
from repro.errors import CheckpointError
from repro.evaluation.precision_eval import evaluate_precision, precision_corpus
from repro.generative import CorpusBank, GenerativeCampaign, GenerativeOptions
from dataclasses import replace

from repro.generative.bank import BASELINE_CULPRIT, BankedRepro, classify_group
from repro.parallel import FaultPlan, SupervisorPolicy

pytestmark = [pytest.mark.generative, pytest.mark.slow]

#: Two seeds keep the end-to-end suite under a couple of minutes while
#: still exercising reduction, attribution, stabilization, and banking.
BUDGET = 2

FAST_POLICY = SupervisorPolicy(
    max_attempts=3,
    task_deadline=0.6,
    backoff_base=0.01,
    backoff_max=0.05,
    poll_interval=0.002,
)


def _options(**overrides) -> GenerativeOptions:
    base = dict(seed=0, budget=BUDGET, profile="ub")
    base.update(overrides)
    return GenerativeOptions(**base)


def _corpus_bytes(bank: CorpusBank) -> dict[str, tuple[str, str]]:
    return {r.key: (r.source, r.good_source) for r in bank}


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    """One clean serial campaign; the reference corpus for every test."""
    bank = CorpusBank(tmp_path_factory.mktemp("clean"))
    with GenerativeCampaign(_options(), bank) as campaign:
        result = campaign.run()
    assert result.banked_new >= 1
    return bank, result


# ------------------------------------------------------------- unit: bank


def test_corpus_key_is_deterministic_and_discriminating():
    repro = replace(
        _dummy_repro(),
        checkers=("signed_overflow",),
        culprit_original="exploit_ub",
        partition=(("clang-O0",), ("gcc-O0", "gcc-O2")),
    )
    key = repro.key
    assert key == replace(repro).key
    assert len(key) == 16
    # Pinned: dedupe keys must stay stable across bank format changes.
    assert key == "335bdce1f494fc66"
    assert key != replace(repro, checkers=("uninit_read",)).key
    assert key != replace(repro, culprit_original=BASELINE_CULPRIT).key
    assert key != replace(repro, partition=(("gcc-O0",),)).key
    # Provenance and drill-down metadata do not split a class.
    assert key == replace(repro, seed=99, fingerprints=("ff" * 8,), source="x").key


def test_classify_group_priority():
    assert classify_group({"UninitMem", "IntError"}) == "uninit"
    assert classify_group({"IntError", "Misc"}) == "integer_error"
    assert classify_group({"EvalOrder"}) == "eval_order"
    assert classify_group(set()) == "unclassified"


def _dummy_repro() -> BankedRepro:
    return BankedRepro(
        seed=1,
        profile="ub",
        generator_version=1,
        ub_shapes=("overflow_guard",),
        source="int main(void) {\n    return 1;\n}\n",
        good_source="int main(void) {\n    return 0;\n}\n",
        inputs=[b"", b"\x01"],
        checkers=("signed_overflow",),
        fingerprints=("ab" * 8,),
        group="integer_error",
        partition=(("clang-O0",), ("gcc-O0",)),
        impl_ref="gcc-O0",
        impl_target="gcc-O3",
        culprit_original="exploit_ub",
        culprit_reduced="exploit_ub",
    )


def test_bank_dedupes_and_reloads(tmp_path):
    bank = CorpusBank(tmp_path / "bank")
    repro = _dummy_repro()
    assert bank.add(repro)
    assert not bank.add(_dummy_repro()), "same key must dedupe"
    assert len(bank) == 1

    reloaded = CorpusBank(tmp_path / "bank")
    assert reloaded.keys() == [repro.key]
    banked = reloaded.get(repro.key)
    assert banked.source == repro.source
    assert banked.good_source == repro.good_source
    assert banked.inputs == repro.inputs
    assert banked.partition == repro.partition


def test_banked_repro_as_precision_case():
    case = _dummy_repro().test_case()
    assert case.group == "integer_error"
    assert case.bad_source != case.good_source
    assert case.mech == "generative"
    assert case.inputs == [b"", b"\x01"]


# -------------------------------------------------------- e2e: determinism


def test_campaign_is_deterministic(clean_corpus, tmp_path):
    bank_a, result_a = clean_corpus
    bank_b = CorpusBank(tmp_path / "again")
    with GenerativeCampaign(_options(), bank_b) as campaign:
        result_b = campaign.run()
    assert _corpus_bytes(bank_a) == _corpus_bytes(bank_b)
    assert result_a.keys == result_b.keys
    assert result_a.banked_new == result_b.banked_new


def test_banked_attribution_metadata(clean_corpus):
    for repro in clean_corpus[0]:
        assert repro.culprit_original
        assert repro.culprit_reduced
        assert repro.culprit_drifted == (
            repro.culprit_original != repro.culprit_reduced
        )
        assert repro.reduced_nodes <= repro.original_nodes
        assert repro.reduction_steps > 0


# ------------------------------------------------- e2e: faults + resume


@pytest.mark.parallel
@pytest.mark.faults
def test_campaign_survives_worker_crashes(clean_corpus, tmp_path):
    """Injected worker crashes on the supervised pool change nothing:
    the banked corpus is byte-identical to the fault-free serial run."""
    bank = CorpusBank(tmp_path / "faulted")
    plan = FaultPlan(seed=3, crash=0.2)
    with GenerativeCampaign(
        _options(workers=2), bank, policy=FAST_POLICY, fault_plan=plan
    ) as campaign:
        result = campaign.run()
        stats = campaign.engine.stats
    assert _corpus_bytes(bank) == _corpus_bytes(clean_corpus[0])
    assert result.banked_new == clean_corpus[1].banked_new
    assert stats.worker_restarts >= 1, "crash faults must have fired"


@pytest.mark.faults
def test_campaign_checkpoint_resume_converges(clean_corpus, tmp_path):
    """A campaign killed at a seed boundary resumes into the same corpus
    — nothing lost, nothing double-banked."""
    bank = CorpusBank(tmp_path / "resumed")
    checkpoint_dir = str(tmp_path / "ckpt")
    with GenerativeCampaign(
        _options(budget=1, checkpoint_dir=checkpoint_dir, checkpoint_every=1),
        bank,
    ) as campaign:
        partial = campaign.run()
    assert partial.generated == 1

    with GenerativeCampaign(
        _options(checkpoint_dir=checkpoint_dir, checkpoint_every=1), bank
    ) as campaign:
        result = campaign.run()
    assert result.resumed_at == 1
    assert _corpus_bytes(bank) == _corpus_bytes(clean_corpus[0])
    assert result.generated == clean_corpus[1].generated
    assert result.banked_new == clean_corpus[1].banked_new
    assert result.keys == clean_corpus[1].keys
    assert len(bank.keys()) == len(set(bank.keys()))


@pytest.mark.faults
def test_checkpoint_refuses_option_drift(tmp_path):
    bank = CorpusBank(tmp_path / "drift")
    checkpoint_dir = str(tmp_path / "ckpt")
    with GenerativeCampaign(
        _options(budget=0, checkpoint_dir=checkpoint_dir), bank
    ) as campaign:
        campaign.run()
    with pytest.raises(CheckpointError):
        with GenerativeCampaign(
            _options(budget=0, profile="interproc", checkpoint_dir=checkpoint_dir),
            bank,
        ) as campaign:
            campaign.run()


# ----------------------------------------------- precision integration


@pytest.mark.interproc
def test_banked_corpus_scores_on_precision_scoreboard(clean_corpus):
    """Every classified banked repro is a confirmed TP for at least one
    checker it fired, and the stabilized twins are FP-free."""
    bank, _ = clean_corpus
    cases = [repro.test_case() for repro in bank]
    assert cases
    report = evaluate_precision(cases, modes=("interproc",))
    assert report.cases == len(cases)
    assert report.divergent == len(cases), "banked repros must still diverge"
    scores = report.scores["interproc"]
    for score in scores.values():
        assert score.fp == 0, f"{score.checker}: stabilized twin flagged"
    for repro in bank:
        if repro.group == "unclassified":
            continue
        assert any(
            scores[checker].tp >= 1 for checker in repro.checkers if checker in scores
        ), f"{repro.key} produced no TP"


@pytest.mark.interproc
def test_precision_corpus_accepts_bank(clean_corpus):
    bank, _ = clean_corpus
    base = precision_corpus(scale=0.001, per_shape=1)
    merged = precision_corpus(scale=0.001, per_shape=1, corpus=bank)
    assert len(merged) == len(base) + len(bank)
    assert precision_corpus(scale=0.001, per_shape=1, corpus=str(bank.root))[-1].uid \
        == merged[-1].uid
