"""Differential fuzzing & property verification for the repro substrate.

Generates random programs (raw ISA sequences and MiniC sources), runs
them through differential oracles (interpreter vs compiled, debugger
stepping, snapshot round-trips) and campaign metamorphic oracles
(merge/resume/jobs/converge/paired invariance), shrinks any divergence
to a minimal reproducer, and replays the accumulated corpus as tier-1
tests.

Entry points: the ``repro fuzz`` CLI subcommand and
:func:`repro.fuzz.runner.run_fuzz`.
"""

from repro.fuzz.generator import (
    DEFAULT_BUDGET,
    gen_isa_program,
    gen_lang_source,
)
from repro.fuzz.oracles import (
    ALL_ORACLES,
    CAMPAIGN_ORACLES,
    PROGRAM_ORACLES,
    Divergence,
    check_program,
)
from repro.fuzz.runner import (
    Finding,
    FuzzConfig,
    FuzzReport,
    mutation_selftest,
    run_fuzz,
)
from repro.fuzz.shrinker import shrink

__all__ = [
    "DEFAULT_BUDGET",
    "gen_isa_program",
    "gen_lang_source",
    "ALL_ORACLES",
    "CAMPAIGN_ORACLES",
    "PROGRAM_ORACLES",
    "Divergence",
    "check_program",
    "Finding",
    "FuzzConfig",
    "FuzzReport",
    "mutation_selftest",
    "run_fuzz",
    "shrink",
]
