"""Fault-site analysis: where crashes come from and what LetGo saves.

Post-processes the per-run records a campaign keeps (``keep_results=True``)
into the characterisation views the paper discusses qualitatively: outcome
by faulting *function*, by instruction class (memory / control / integer /
float), by crash signal, and by flipped-bit position.  Useful both for
understanding a campaign and for debugging the heuristics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.analysis.functions import FunctionTable
from repro.apps.base import MiniApp
from repro.faultinject.campaign import CampaignResult
from repro.faultinject.injector import InjectionResult
from repro.faultinject.outcomes import Outcome
from repro.isa.instructions import BRANCH_OPS, LOAD_OPS, STORE_OPS, Op
from repro.reporting import ascii_table

#: Coarse instruction classes for site bucketing.
INSTR_CLASSES = ("load", "store", "branch", "float", "int", "other")


def classify_op(op: Op) -> str:
    """Coarse class of an opcode (site bucketing)."""
    if op in LOAD_OPS:
        return "load"
    if op in STORE_OPS:
        return "store"
    if op in BRANCH_OPS or op is Op.RET:
        return "branch"
    name = op.name
    if name.startswith("F") and op not in (Op.FTOI,):
        return "float"
    if op in (
        Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
        Op.SHL, Op.SHR, Op.NEG, Op.NOT, Op.ADDI, Op.SUBI, Op.MULI,
        Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI, Op.SEQ, Op.SNE,
        Op.SLT, Op.SLE, Op.MOV, Op.MOVI, Op.FTOI,
    ):
        return "int"
    return "other"


@dataclass
class SiteReport:
    """Aggregated views of one campaign's fault sites."""

    app_name: str
    config_name: str
    by_function: dict[str, Counter] = field(default_factory=dict)
    by_class: dict[str, Counter] = field(default_factory=dict)
    by_signal: Counter = field(default_factory=Counter)
    by_bit_range: dict[str, Counter] = field(default_factory=dict)

    def crashiest_functions(self, n: int = 5) -> list[tuple[str, int]]:
        """Functions ranked by crash-origin faults landing in them."""
        ranked = sorted(
            (
                (name, sum(c for o, c in counts.items() if o.crash_origin))
                for name, counts in self.by_function.items()
            ),
            key=lambda t: -t[1],
        )
        return [(name, count) for name, count in ranked[:n] if count > 0]

    def crash_rate_of_class(self, cls: str) -> float:
        """Crash-origin fraction of faults hitting one instruction class."""
        counts = self.by_class.get(cls)
        if not counts:
            return 0.0
        total = sum(counts.values())
        crash = sum(c for o, c in counts.items() if o.crash_origin)
        return crash / total if total else 0.0

    def render(self) -> str:
        """Human-readable multi-table report."""
        sections = [f"fault sites: {self.app_name} under {self.config_name}"]
        rows = [
            [cls,
             sum(self.by_class.get(cls, Counter()).values()),
             f"{self.crash_rate_of_class(cls):.1%}"]
            for cls in INSTR_CLASSES
            if cls in self.by_class
        ]
        sections.append(
            ascii_table(["instr class", "faults", "crash rate"], rows)
        )
        rows = [[name, count] for name, count in self.crashiest_functions(8)]
        if rows:
            sections.append(
                ascii_table(["function", "crash-origin faults"], rows,
                            title="crashiest functions")
            )
        if self.by_signal:
            rows = [[sig.name, count] for sig, count in self.by_signal.most_common()]
            sections.append(
                ascii_table(["first signal", "runs"], rows, title="crash signals")
            )
        rows = [
            [rng, sum(c.values()),
             f"{sum(v for o, v in c.items() if o.crash_origin) / max(sum(c.values()), 1):.1%}"]
            for rng, c in sorted(self.by_bit_range.items())
        ]
        sections.append(
            ascii_table(["bit range", "faults", "crash rate"], rows,
                        title="flipped-bit position")
        )
        return "\n\n".join(sections)


def _bit_range(bit: int) -> str:
    if bit < 16:
        return "00-15 (low mantissa)"
    if bit < 32:
        return "16-31"
    if bit < 48:
        return "32-47 (high value)"
    return "48-63 (exponent/sign)"


def analyze_sites(app: MiniApp, campaign: CampaignResult) -> SiteReport:
    """Aggregate a campaign's kept results into a :class:`SiteReport`.

    A campaign of zero runs gives an empty report; one that ran plans
    but kept no per-run records raises :class:`ValueError`.
    """
    if campaign.n and not campaign.results:
        raise ValueError(
            "campaign has no per-run records; run with keep_results=True"
        )
    table: FunctionTable = app.functions
    report = SiteReport(app_name=app.name, config_name=campaign.config_name)
    by_function: dict[str, Counter] = defaultdict(Counter)
    by_class: dict[str, Counter] = defaultdict(Counter)
    by_bits: dict[str, Counter] = defaultdict(Counter)
    for result in campaign.results:
        _tally(result, app, table, by_function, by_class, by_bits, report)
    report.by_function = dict(by_function)
    report.by_class = dict(by_class)
    report.by_bit_range = dict(by_bits)
    return report


def _tally(
    result: InjectionResult,
    app: MiniApp,
    table: FunctionTable,
    by_function,
    by_class,
    by_bits,
    report: SiteReport,
) -> None:
    if result.outcome is Outcome.NOT_INJECTED or result.target_pc is None:
        return
    function = table.function_at(result.target_pc).name
    by_function[function][result.outcome] += 1
    op = app.program.instrs[result.target_pc].op
    by_class[classify_op(op)][result.outcome] += 1
    by_bits[_bit_range(result.plan.bit)][result.outcome] += 1
    if result.first_signal is not None:
        report.by_signal[result.first_signal] += 1


__all__ = ["SiteReport", "analyze_sites", "classify_op", "INSTR_CLASSES"]
