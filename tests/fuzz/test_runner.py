"""Runner contracts: zero findings on the fixed substrate, determinism
across jobs counts, coverage floor, and the long nightly loop."""

import json
from pathlib import Path

import pytest

from repro.fuzz.coverage import FuzzCoverage
from repro.fuzz.oracles import ALL_ORACLES
from repro.fuzz.runner import FuzzConfig, plan_cases, run_case, run_fuzz

pytestmark = pytest.mark.fuzz

FLOOR_PATH = Path(__file__).parent / "coverage_floor.json"
#: The exact configuration the checked-in floor was recorded from.
FLOOR_CONFIG = FuzzConfig(
    iterations=120, lang_iterations=24, seed=0,
    oracles=tuple(o for o in ALL_ORACLES if o != "jobs"),
)


@pytest.fixture(scope="module")
def floor_report():
    return run_fuzz(FLOOR_CONFIG)


def test_fixed_substrate_has_zero_findings(floor_report):
    assert [f.to_dict() for f in floor_report.findings] == []


def test_coverage_meets_checked_in_floor(floor_report):
    floor = json.loads(FLOOR_PATH.read_text())
    deficits = floor_report.coverage.deficits(floor)
    assert deficits == [], (
        "coverage regressed below tests/fuzz/coverage_floor.json; if the "
        "generator changed intentionally, regenerate the floor (see "
        "docs/TESTING.md): " + "; ".join(deficits)
    )


def test_case_results_are_deterministic():
    config = FuzzConfig(iterations=4, lang_iterations=2, seed=9)
    for kind, index in plan_cases(config):
        if kind == "jobs":
            continue  # pool-spawning; covered by the jobs oracle test
        f1, c1 = run_case(config, kind, index)
        f2, c2 = run_case(config, kind, index)
        assert [f.to_dict() for f in f1] == [f.to_dict() for f in f2]
        assert c1.to_dict() == c2.to_dict()


def test_jobs_partitioning_does_not_change_results():
    base = FuzzConfig(iterations=16, lang_iterations=2, seed=5,
                      oracles=("backend", "snapshot"))
    fanned = FuzzConfig(iterations=16, lang_iterations=2, seed=5,
                        oracles=("backend", "snapshot"), jobs=2)
    r1 = run_fuzz(base)
    r2 = run_fuzz(fanned)
    assert [f.to_dict() for f in r1.findings] == [f.to_dict() for f in r2.findings]
    assert r1.coverage.to_dict() == r2.coverage.to_dict()


def test_mutation_run_produces_shrunk_findings():
    config = FuzzConfig(
        iterations=60, lang_iterations=0, seed=0,
        oracles=("backend",), budget=96, mutation="halt-pc",
    )
    report = run_fuzz(config)
    assert report.findings, "halt-pc mutant survived 60 programs"
    for finding in report.findings:
        assert finding.case is not None
        assert finding.shrunk_len <= 25


def test_coverage_merge_is_additive():
    a, b = FuzzCoverage(), FuzzCoverage()
    a.opcodes["ADD"] = 2
    a.stops["halt"] = 1
    b.opcodes["ADD"] = 3
    b.heuristics["H1"] = 1
    a.merge(b)
    assert a.opcodes["ADD"] == 5
    assert a.stops["halt"] == 1
    assert a.heuristics["H1"] == 1
    assert a.deficits({"opcodes": {"ADD": 5}, "heuristics": {"H1": 1}}) == []
    assert a.deficits({"opcodes": {"SUB": 1}}) == ["opcodes:SUB = 0 < 1"]


@pytest.mark.slow
def test_long_fuzz_loop_finds_nothing():
    """The nightly loop (10k ISA + 1k lang programs); hours of margin."""
    report = run_fuzz(FuzzConfig(iterations=10_000, lang_iterations=1_000,
                                 seed=0))
    assert [f.to_dict() for f in report.findings] == []
