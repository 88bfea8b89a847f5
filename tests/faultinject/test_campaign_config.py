"""CampaignConfig: CLI parity, validation, the engine hand-off.

One frozen config object is the single source of truth for every
campaign knob, and the CLI derives its flags from the dataclass fields,
so the two surfaces cannot drift.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.cli import build_parser
from repro.faultinject import (
    CampaignConfig,
    CampaignEngine,
    add_campaign_arguments,
    campaign_config_from_args,
)

FIELD_NAMES = {spec.name for spec in dataclasses.fields(CampaignConfig)}

#: The campaign's whole configuration surface.  Adding a knob means
#: adding it here on purpose.
EXPECTED_FIELDS = {
    "jobs",
    "ladder_interval",
    "shard_size",
    "backend",
    "keep_results",
    "journal",
    "resume",
    "telemetry",
    "trace",
    "chrome_trace",
}


def _campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="test")
    add_campaign_arguments(parser)
    return parser


# -- CLI parity --------------------------------------------------------------


def test_configuration_surface_is_pinned():
    assert FIELD_NAMES == EXPECTED_FIELDS
    parser = _campaign_parser()
    for flag in (
        "--probe-interval",
        "--max-retries",
        "--retry-backoff",
        "--retry-backoff-cap",
        "--wall-clock-limit",
        "--max-pool-rebuilds",
    ):
        with pytest.raises(SystemExit):
            parser.parse_args([flag, "1"])
    for switch in ("--serial-fallback", "--no-serial-fallback"):
        with pytest.raises(SystemExit):
            parser.parse_args([switch])


def test_every_config_field_has_a_flag_and_vice_versa():
    parser = _campaign_parser()
    dests = {
        action.dest
        for action in parser._actions
        if action.dest != "help"
    }
    assert dests == FIELD_NAMES  # both directions at once


def test_cli_campaign_subcommand_exposes_all_config_fields():
    parser = build_parser()
    args = parser.parse_args(["campaign", "--app", "pennant"])
    for name in FIELD_NAMES:
        assert hasattr(args, name), f"campaign subcommand lost --{name}"


def test_parsed_defaults_round_trip_into_a_config():
    args = _campaign_parser().parse_args([])
    cfg = campaign_config_from_args(args)
    # jobs is the one deliberate CLI-vs-API divergence: the CLI defaults
    # to all cores (None), the library to serial determinism (1).
    assert cfg.jobs is None
    assert dataclasses.replace(cfg, jobs=1) == CampaignConfig()


def test_flags_parse_types_and_groups():
    parser = _campaign_parser()
    args = parser.parse_args(
        [
            "--jobs", "3",
            "--ladder-interval", "0",
            "--keep-results",
            "--telemetry",
            "--trace", "t.jsonl",
            "--journal", "j.path",
        ]
    )
    cfg = campaign_config_from_args(args)
    assert cfg.jobs == 3
    assert cfg.ladder_interval == 0
    assert cfg.keep_results is True
    assert cfg.telemetry is True and cfg.trace == "t.jsonl"
    assert cfg.journal == "j.path" and cfg.resume is None


def test_journal_and_resume_flags_are_mutually_exclusive():
    parser = _campaign_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--journal", "a", "--resume", "b"])


def test_negative_ladder_interval_rejected_at_parse_time():
    parser = _campaign_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--ladder-interval", "-1"])


def test_every_field_has_help_text():
    for spec in dataclasses.fields(CampaignConfig):
        assert spec.metadata.get("help"), f"{spec.name} has no help metadata"


# -- the config object -------------------------------------------------------


def test_config_is_frozen():
    cfg = CampaignConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.jobs = 8


def test_config_validation():
    with pytest.raises(ValueError, match="jobs"):
        CampaignConfig(jobs=0)
    with pytest.raises(ValueError, match="shard_size"):
        CampaignConfig(shard_size=0)
    with pytest.raises(ValueError, match="ladder_interval"):
        CampaignConfig(ladder_interval=-1)
    # The bounds themselves are valid.
    CampaignConfig(jobs=None, ladder_interval=0, shard_size=1)
    with pytest.raises(ValueError, match="journal"):
        CampaignConfig(journal="a", resume="b")


def test_negative_ladder_interval_fails_before_the_journal_exists(tmp_path):
    # Rejected when the config is built, not in the ladder build after the
    # engine has created the journal (a rerun would then find it in place).
    journal = tmp_path / "c.journal"
    with pytest.raises(ValueError, match="ladder_interval"):
        CampaignConfig(ladder_interval=-1, journal=str(journal))
    assert not journal.exists()


def test_telemetry_enabled_implied_by_outputs():
    assert not CampaignConfig().telemetry_enabled
    assert CampaignConfig(telemetry=True).telemetry_enabled
    assert CampaignConfig(trace="t.jsonl").telemetry_enabled
    assert CampaignConfig(chrome_trace="c.json").telemetry_enabled


# -- the engine ---------------------------------------------------------------


def test_engine_accepts_config_object_silently():
    import warnings

    cfg = CampaignConfig(jobs=2, shard_size=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine = CampaignEngine(config=cfg)
    assert engine.config is cfg
    assert CampaignEngine().config == CampaignConfig()
