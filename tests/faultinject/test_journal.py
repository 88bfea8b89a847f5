"""Campaign journal: durability, identity, and duplicate detection."""

import hashlib
import json

import pytest

from repro.errors import JournalError
from repro.faultinject import (
    CampaignConfig,
    CampaignEngine,
    InjectionPlan,
    InjectionResult,
    Outcome,
    seeded_plans,
)
from repro.faultinject.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    JournalHeader,
    plan_to_dict,
    plans_digest,
    result_from_dict,
    result_to_dict,
)
from repro.machine.signals import Signal

SEED = 5


@pytest.fixture
def plans():
    return seeded_plans(100_000, 8, SEED)


@pytest.fixture
def header(plans):
    return JournalHeader.for_campaign("pennant", "LetGo-E", 8, SEED, plans)


def _result(plan, outcome=Outcome.BENIGN):
    return InjectionResult(outcome=outcome, plan=plan, steps=123)


def test_roundtrip(tmp_path, plans, header):
    path = tmp_path / "c.journal"
    journal = CampaignJournal.create(path, header)
    journal.record_shard([0, 1], [_result(plans[0]), _result(plans[1])])
    journal.record_shard([4], [_result(plans[4], Outcome.SDC)])
    journal.record_quarantine(2, plans[2], "RuntimeError('poison')", attempts=3)

    loaded = CampaignJournal.load(path)
    assert loaded.header == header
    assert loaded.completed_indices == {0, 1, 4}
    assert loaded.settled_indices == {0, 1, 2, 4}
    pairs = loaded.take_pairs()
    assert [idx for idx, _ in pairs] == [0, 1, 4]
    assert pairs[2][1].outcome is Outcome.SDC
    assert loaded.take_pairs() == []  # handed over, not kept
    (record,) = loaded.quarantined
    assert record.index == 2 and record.plan == plans[2]
    assert record.attempts == 3 and "poison" in record.error


def test_result_codec_round_trip(plans):
    """Every field of a result survives the journal's line encoding."""
    result = InjectionResult(
        outcome=Outcome.C_SDC,
        plan=plans[3],
        target_pc=17,
        target_reg=("f", 2),
        first_signal=Signal.SIGSEGV,
        interventions=2,
        steps=4321,
    )
    encoded = json.loads(json.dumps(result_to_dict(result)))
    assert result_from_dict(encoded) == result
    assert result_from_dict(result_to_dict(_result(plans[0]))) == _result(plans[0])


def _shard_line_with(path, plans, **extra):
    """A journal at *path* with one shard line for plans 3 and 5 whose
    second result carries *extra* keys."""
    journal = CampaignJournal.create(path, JournalHeader.for_campaign(
        "pennant", "LetGo-E", 8, SEED, plans
    ))
    journal.record_shard([3], [_result(plans[3])])
    first, second = result_to_dict(_result(plans[3])), result_to_dict(
        _result(plans[5], Outcome.HANG)
    )
    second.update(extra)
    with path.open("a") as handle:
        handle.write(json.dumps({
            "kind": "shard", "indices": [4, 5], "results": [first, second],
        }) + "\n")


def test_a_result_cut_short_by_a_watchdog_is_refused(tmp_path, plans):
    """Older versions could stop a run on the clock and journal it as a
    HANG marked ``timed_out``; such a result depends on the clock, so
    resuming it would mix it into a campaign that does not."""
    path = tmp_path / "c.journal"
    _shard_line_with(path, plans, timed_out=True)
    with pytest.raises(JournalError, match="plan 5 .*watchdog"):
        CampaignJournal.load(path)


@pytest.mark.parametrize("extra", [{}, {"timed_out": False}], ids=["absent", "false"])
def test_a_result_the_clock_did_not_stop_loads(tmp_path, plans, extra):
    path = tmp_path / "c.journal"
    _shard_line_with(path, plans, **extra)
    pairs = CampaignJournal.load(path).take_pairs()
    assert [idx for idx, _ in pairs] == [3, 4, 5]
    assert pairs[2][1] == _result(plans[5], Outcome.HANG)
    assert "timed_out" not in result_to_dict(pairs[2][1])


def test_writer_keeps_indices_not_results(tmp_path, plans, header):
    """A journal being written claims indices; only load reads results."""
    journal = CampaignJournal.create(tmp_path / "c.journal", header)
    journal.record_shard([0, 1], [_result(plans[0]), _result(plans[1])])
    journal.record_quarantine(2, plans[2], "boom", attempts=1)
    assert journal.completed_indices == {0, 1}
    assert journal.settled_indices == {0, 1, 2}
    assert journal.take_pairs() == []
    assert [i for i, _ in CampaignJournal.load(journal.path).take_pairs()] == [0, 1]


def test_every_append_is_durable_and_atomic(tmp_path, plans, header):
    """The on-disk file parses after every append, which adds one line to
    the same file: no rewrite, no temp litter."""
    path = tmp_path / "c.journal"
    journal = CampaignJournal.create(path, header)
    inode = path.stat().st_ino
    assert CampaignJournal.load(path).completed_indices == frozenset()
    for idx in range(3):
        journal.record_shard([idx], [_result(plans[idx])])
        assert CampaignJournal.load(path).completed_indices == set(range(idx + 1))
        assert len(path.read_bytes().splitlines()) == 1 + idx + 1
        assert path.stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == ["c.journal"]


def test_create_refuses_existing(tmp_path, header):
    path = tmp_path / "c.journal"
    CampaignJournal.create(path, header)
    with pytest.raises(JournalError, match="already exists"):
        CampaignJournal.create(path, header)


def test_duplicate_plan_rejected_on_append(tmp_path, plans, header):
    journal = CampaignJournal.create(tmp_path / "c.journal", header)
    journal.record_shard([0, 1], [_result(plans[0]), _result(plans[1])])
    with pytest.raises(JournalError, match="twice"):
        journal.record_shard([1], [_result(plans[1])])
    with pytest.raises(JournalError, match="twice"):
        journal.record_quarantine(0, plans[0], "boom", attempts=1)


def test_duplicate_plan_rejected_on_load(tmp_path, plans, header):
    """A journal doctored to repeat a shard must raise, not double-count."""
    path = tmp_path / "c.journal"
    journal = CampaignJournal.create(path, header)
    journal.record_shard([3], [_result(plans[3])])
    header, shard = path.read_text().splitlines(keepends=True)
    with path.open("a") as handle:
        handle.write(shard)
    with pytest.raises(JournalError, match="twice"):
        CampaignJournal.load(path)


def test_out_of_range_index_rejected(tmp_path, plans, header):
    journal = CampaignJournal.create(tmp_path / "c.journal", header)
    with pytest.raises(JournalError, match="outside"):
        journal.record_shard([8], [_result(plans[0])])


def test_shard_length_mismatch_rejected(tmp_path, plans, header):
    journal = CampaignJournal.create(tmp_path / "c.journal", header)
    with pytest.raises(JournalError, match="indices"):
        journal.record_shard([0, 1], [_result(plans[0])])


def test_verify_rejects_other_campaign(tmp_path, plans, header):
    journal = CampaignJournal.create(tmp_path / "c.journal", header)
    journal.verify(header)  # same campaign: fine
    other_seed = JournalHeader.for_campaign("pennant", "LetGo-E", 8, 99, plans)
    with pytest.raises(JournalError, match="seed"):
        journal.verify(other_seed)
    other_plans = seeded_plans(100_000, 8, SEED + 1)
    shifted = JournalHeader.for_campaign("pennant", "LetGo-E", 8, SEED, other_plans)
    with pytest.raises(JournalError, match="plans"):
        journal.verify(shifted)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "c.journal"
    with pytest.raises(JournalError, match="no journal"):
        CampaignJournal.load(path)
    path.write_text("{ not json")
    with pytest.raises(JournalError, match="unreadable"):
        CampaignJournal.load(path)
    path.write_text(json.dumps({"format": 99, "header": {}}))
    with pytest.raises(JournalError, match="format"):
        CampaignJournal.load(path)
    path.write_text(json.dumps({"format": JOURNAL_FORMAT, "header": {"bad": 1}}))
    with pytest.raises(JournalError, match="malformed"):
        CampaignJournal.load(path)


def test_plans_digest_pins_population(plans):
    assert plans_digest(plans) == plans_digest(list(plans))
    assert plans_digest(plans) != plans_digest(plans[:-1])
    reordered = [plans[1], plans[0], *plans[2:]]
    assert plans_digest(plans) != plans_digest(reordered)


def test_plans_digest_matches_journals_already_written():
    """The digest is streamed plan by plan; it must still equal the one in
    the header of a journal written when it hashed one JSON string."""
    plans = [
        InjectionPlan(
            dyn_index=1 + 997 * i,
            bit=(7 * i) % 64,
            reg_choice=i / 41,
            extra_bits=tuple(range(i % 3)),
        )
        for i in range(40)
    ]
    assert plans_digest(plans) == (
        "f375ac4950204e746a9e98db08dfc1dbf8e2e4bcfef3be844939f354b542f1d3"
    )
    assert plans_digest([]) == (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    )


def test_plans_digest_across_chunks_equals_the_one_string_hash():
    """2,500 plans span three hashing chunks (the last one partial); the
    digest is still SHA-256 of the whole list encoded as one string."""
    plans = [
        InjectionPlan(
            dyn_index=1 + 31 * i,
            bit=i % 64,
            reg_choice=(i % 97) / 97,
            extra_bits=tuple(range(i % 2)),
        )
        for i in range(2500)
    ]
    for n in (999, 1000, 1001, 2000, 2500):
        whole = json.dumps(
            [plan_to_dict(plan) for plan in plans[:n]],
            sort_keys=True,
            separators=(",", ":"),
        )
        expected = hashlib.sha256(whole.encode()).hexdigest()
        assert plans_digest(plans[:n]) == expected, n


def _fingerprint(result):
    return result.n, result.counts, result.results


def test_torn_final_line_is_cut_before_the_resumed_appends(
    tmp_path, pennant_app
):
    """A crash mid-append leaves a final line without its newline: load
    ignores it, the resume re-runs that shard and appends after the cut,
    and the reloaded journal equals the uninterrupted campaign."""
    path = tmp_path / "c.journal"
    knobs = dict(jobs=1, shard_size=2, keep_results=True)
    full = CampaignEngine(config=CampaignConfig(journal=str(path), **knobs))
    reference = full.run(pennant_app, 8, SEED)
    data = path.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    path.write_bytes(data[: (last + len(data)) // 2])

    assert CampaignJournal.load(path).completed_indices == set(range(6))
    engine = CampaignEngine(config=CampaignConfig(resume=str(path), **knobs))
    resumed = engine.run(pennant_app, 8, SEED)
    assert engine.stats.resumed == 6
    assert _fingerprint(resumed) == _fingerprint(reference)
    assert path.read_bytes() == data
    assert CampaignJournal.load(path).take_pairs() == list(
        enumerate(reference.results)
    )


@pytest.mark.parametrize(
    "bad", [b"{not json}", b'{"kind":"shard","indices":[5]', b'{"kind":"x"}']
)
def test_malformed_middle_line_raises(tmp_path, plans, header, bad):
    path = tmp_path / "c.journal"
    journal = CampaignJournal.create(path, header)
    for idx in range(3):
        journal.record_shard([idx], [_result(plans[idx])])
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = bad + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(JournalError, match="malformed journal .*line 3"):
        CampaignJournal.load(path)


def test_format_1_document_is_rejected_by_name(tmp_path, plans, header):
    """Journals written before the append-only format were one JSON
    document, rewritten whole per append."""
    path = tmp_path / "c.journal"
    path.write_text(json.dumps({
        "format": 1,
        "header": header.to_dict(),
        "shards": [{"indices": [0], "results": []}],
        "quarantined": [],
    }, indent=1))
    with pytest.raises(JournalError, match="format 1"):
        CampaignJournal.load(path)
