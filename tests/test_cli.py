"""CLI smoke tests."""

import pytest

from repro.cli import main


def test_apps(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "lulesh" in out and "pennant" in out and "direct" in out


def test_objdump(capsys):
    assert main(["objdump", "--app", "hpl"]) == 0
    out = capsys.readouterr().out
    assert "factor" in out and "frame=" in out


def test_golden(capsys):
    assert main(["golden", "--app", "pennant"]) == 0
    out = capsys.readouterr().out
    assert "acceptance check: PASS" in out


def test_inject_baseline(capsys):
    code = main(
        ["inject", "--app", "pennant", "--dyn-index", "5000", "--bit", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome:" in out


def test_inject_with_letgo(capsys):
    code = main(
        [
            "inject",
            "--app",
            "pennant",
            "--dyn-index",
            "5000",
            "--bit",
            "45",
            "--letgo",
            "LetGo-E",
        ]
    )
    assert code == 0
    assert "interventions:" in capsys.readouterr().out


def test_campaign(capsys):
    assert main(["campaign", "--app", "pennant", "-n", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "continuability" in out
    assert "crash rate" in out


def test_campaign_telemetry_table_shows_convergence(capsys):
    assert main([
        "campaign", "--app", "pennant", "-n", "12", "--seed", "2",
        "--letgo", "LetGo-E", "--telemetry",
    ]) == 0
    rows = {
        line.split()[0]: line.split()[1:]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("converged")
    }
    assert int(rows["converged"][0]) > 0
    # a repaired (C-Benign) run converges behind the rung grid
    assert 0 < int(rows["converged-lagged"][0]) <= int(rows["converged"][0])
    assert int(rows["converged-skipped-instr"][0]) > 0


def test_simulate_paper_params(capsys):
    assert main(["simulate", "--app", "lulesh", "--t-chk", "120"]) == 0
    out = capsys.readouterr().out
    assert "paper Table 3" in out and "gain" in out


def test_simulate_estimated(capsys):
    code = main(
        ["simulate", "--app", "pennant", "--estimate", "-n", "10",
         "--t-chk", "120", "--years", "0.2"]
    )
    assert code == 0
    assert "fresh campaign" in capsys.readouterr().out


def test_unknown_variant_rejected():
    with pytest.raises(SystemExit):
        main(["inject", "--app", "hpl", "--dyn-index", "10", "--letgo", "LetGo-X"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_sites(capsys):
    assert main(["sites", "--app", "pennant", "-n", "15"]) == 0
    out = capsys.readouterr().out
    assert "instr class" in out and "crash" in out


def test_parallel(capsys):
    assert main(["parallel", "--ranks", "2", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "cr+letgo" in out and "efficiency" in out


def test_campaign_journal_then_resume(tmp_path, capsys):
    journal = str(tmp_path / "c.journal")
    base = ["campaign", "--app", "pennant", "-n", "6", "--seed", "2",
            "--wall-clock-limit", "3600"]
    assert main([*base, "--journal", journal]) == 0
    capsys.readouterr()
    assert main([*base, "--resume", journal]) == 0
    out = capsys.readouterr().out
    assert "resumed=6" in out  # nothing re-run; result rebuilt from journal
    assert "crash rate" in out


def test_campaign_journal_resume_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--app", "pennant", "-n", "4",
              "--journal", str(tmp_path / "a"), "--resume", str(tmp_path / "b")])


def test_campaign_out_of_range_knob_is_a_one_line_error():
    with pytest.raises(SystemExit, match="^campaign: jobs must be >= 1"):
        main(["campaign", "--app", "pennant", "-n", "4", "--jobs", "0"])


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_campaign_wall_clock_limit_must_be_positive(limit):
    # A limit of zero or less would report every run as a hang.
    with pytest.raises(SystemExit, match="^campaign: wall_clock_limit must be > 0"):
        main(["campaign", "--app", "pennant", "-n", "4",
              "--wall-clock-limit", limit])


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dyn-index", "0", "dyn_index is 1-based"),
        ("--bit", "64", "bit must be in"),
        ("--reg-choice", "1.0", "reg_choice must be in"),
    ],
)
def test_inject_out_of_range_plan_is_a_one_line_error(flag, value, message):
    argv = ["inject", "--app", "pennant", "--dyn-index", "10", flag, value]
    with pytest.raises(SystemExit, match=f"^inject: {message}"):
        main(argv)


def test_campaign_abort_prints_one_line_error(monkeypatch, capsys):
    from repro.errors import CampaignAbortedError
    from repro.faultinject.engine import CampaignEngine

    def doomed(self, *args, **kwargs):
        raise CampaignAbortedError("worker pool broke 3 times; giving up",
                                   journal="pennant.journal")

    monkeypatch.setattr(CampaignEngine, "run", doomed)
    assert main(["campaign", "--app", "pennant", "-n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1  # one line, not a traceback
    assert "campaign failed" in captured.err
    assert "--resume pennant.journal" in captured.err


def test_campaign_interrupt_names_resume_journal(monkeypatch, capsys, tmp_path):
    from repro.faultinject.engine import CampaignEngine

    journal = str(tmp_path / "c.journal")

    def interrupted(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(CampaignEngine, "run", interrupted)
    assert main(["campaign", "--app", "pennant", "-n", "4",
                 "--journal", journal]) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err and f"--resume {journal}" in err
    assert main(["campaign", "--app", "pennant", "-n", "4"]) == 130
    assert "no journal" in capsys.readouterr().err
