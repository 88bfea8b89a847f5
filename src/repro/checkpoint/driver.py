"""In-vivo checkpoint/restart driver: the Figure-1 story, executed for real.

Runs an application on the machine with periodic checkpoints, Poisson
fault arrivals (single bit flips in the register the current instruction
produces), and one of three failure policies:

* ``NONE``   -- no fault tolerance: the first crash kills the run;
* ``CR``     -- roll back to the last checkpoint on every crash;
* ``CR_LETGO`` -- attempt a LetGo repair first; roll back only if the
  repair fails (double crash) or the signal is unhandled.

Time is measured in *instructions* (the substrate's clock): checkpoint,
recovery and repair costs are charged in instruction units, so measured
efficiency = useful work / total cost is directly comparable across
policies and against the Figure-6 analytical model's predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.apps.base import MiniApp
from repro.checkpoint.snapshot import Snapshot, restore, snapshot
from repro.core.config import LetGoConfig
from repro.core.modifier import Modifier
from repro.core.monitor import Monitor
from repro.errors import SimulationError
from repro.faultinject.fault_model import flip_bit, select_target
from repro.machine.debugger import (
    STOP_EXITED,
    STOP_STEPS_DONE,
    STOP_TRAP,
    DebugSession,
)


class Policy(Enum):
    """Failure-handling policy for a run."""

    NONE = "none"
    CR = "cr"
    CR_LETGO = "cr+letgo"


@dataclass(frozen=True)
class CRParams:
    """Platform parameters, in instruction units.

    ``interval`` is the useful work between checkpoints; ``t_chk`` /
    ``t_r`` / ``t_letgo`` are the charged costs of a checkpoint write, a
    recovery, and one LetGo repair.
    """

    interval: int
    t_chk: int
    t_r: int | None = None       # default: t_chk
    t_letgo: int = 0
    mtbf_faults: float = 50_000.0  # mean instructions between faults

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.t_chk < 0 or self.mtbf_faults <= 0:
            raise SimulationError("invalid CRParams")

    @property
    def recovery(self) -> int:
        return self.t_chk if self.t_r is None else self.t_r


@dataclass
class CRRunResult:
    """Everything observable about one driven run."""

    policy: Policy
    completed: bool
    outcome: str                 # 'benign' | 'sdc' | 'detected' | 'dead' | 'hung'
    useful: int                  # golden dynamic instructions (work delivered)
    cost: int                    # total charged instruction units
    checkpoints: int = 0
    rollbacks: int = 0
    faults_injected: int = 0
    letgo_repairs: int = 0
    letgo_giveups: int = 0
    output: list = field(default_factory=list, repr=False)

    @property
    def efficiency(self) -> float:
        """useful / cost; zero for runs that never completed."""
        if not self.completed or self.cost <= 0:
            return 0.0
        return self.useful / self.cost


class CheckpointedRun:
    """Drives one application run under a policy with injected faults."""

    def __init__(
        self,
        app: MiniApp,
        params: CRParams,
        policy: Policy,
        seed: int,
        letgo: LetGoConfig | None = None,
    ):
        if policy is Policy.CR_LETGO and letgo is None:
            raise SimulationError("CR_LETGO policy needs a LetGo config")
        self.app = app
        self.params = params
        self.policy = policy
        self.letgo = letgo
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self._monitor = Monitor(letgo) if letgo is not None else None
        self._modifier = (
            Modifier(letgo, app.functions) if letgo is not None else None
        )

    # -- driving ------------------------------------------------------------

    def run(self) -> CRRunResult:
        app, params = self.app, self.params
        program = app.program
        process = app.load()
        session = DebugSession(process)
        result = CRRunResult(
            policy=self.policy,
            completed=False,
            outcome="dead",
            useful=app.golden.instret,
            cost=0,
        )
        ckpt: Snapshot = snapshot(process)
        since_ckpt = 0           # instructions retired since the checkpoint
        to_fault = self._next_fault()
        budget = app.max_steps * 4  # generous: rollbacks repeat work
        interventions_since_crash = 0

        takes_checkpoints = self.policy is not Policy.NONE
        while result.cost < budget:
            if takes_checkpoints:
                stride = min(params.interval - since_ckpt, to_fault)
            else:
                stride = to_fault
            event = session.run_steps(stride)
            result.cost += event.steps
            since_ckpt += event.steps
            to_fault -= event.steps

            if event.kind == STOP_EXITED:
                result.completed = True
                result.output = list(process.output)
                result.outcome = self._classify(result.output)
                return result

            if event.kind == STOP_TRAP:
                assert event.trap is not None
                handled = (
                    self.policy is Policy.CR_LETGO
                    and self._monitor is not None
                    and self._monitor.intercepts(event.trap.signal)
                    and interventions_since_crash
                    < self.letgo.max_interventions  # type: ignore[union-attr]
                )
                if handled:
                    assert self._modifier is not None
                    self._modifier.repair(session, event.trap)
                    result.cost += params.t_letgo
                    result.letgo_repairs += 1
                    interventions_since_crash += 1
                    continue
                if self.policy is Policy.NONE:
                    result.outcome = "dead"
                    return result
                if interventions_since_crash:
                    result.letgo_giveups += 1
                # roll back to the last checkpoint
                process = restore(program, ckpt)
                session = DebugSession(process)
                result.cost += params.recovery
                result.rollbacks += 1
                since_ckpt = 0
                to_fault = self._next_fault()
                interventions_since_crash = 0
                continue

            assert event.kind == STOP_STEPS_DONE
            if to_fault <= 0:
                self._inject(process)
                result.faults_injected += 1
                to_fault = self._next_fault()
            if takes_checkpoints and since_ckpt >= params.interval:
                ckpt = snapshot(process)
                result.cost += params.t_chk
                result.checkpoints += 1
                since_ckpt = 0
                # a successful checkpoint forgives the crash budget
                interventions_since_crash = 0

        result.outcome = "hung"
        return result

    # -- internals -----------------------------------------------------------

    def _next_fault(self) -> int:
        return max(1, int(self.rng.exponential(self.params.mtbf_faults)))

    def _inject(self, process) -> None:
        """Flip one bit in the register produced by the next instruction."""
        pc = process.cpu.pc
        instrs = process.program.instrs
        if not 0 <= pc < len(instrs):
            return  # wild PC: the crash is already on its way
        target = select_target(instrs[pc], float(self.rng.random()))
        if target is None:
            return
        flip_bit(process.cpu, target[0], target[1], int(self.rng.integers(64)))

    def _classify(self, output) -> str:
        if not self.app.acceptance_check(output):
            return "detected"
        if self.app.matches_golden(output):
            return "benign"
        return "sdc"


def drive(
    app: MiniApp,
    params: CRParams,
    policy: Policy,
    seed: int = 0,
    letgo: LetGoConfig | None = None,
) -> CRRunResult:
    """One-shot convenience wrapper."""
    return CheckpointedRun(app, params, policy, seed, letgo).run()


__all__ = ["Policy", "CRParams", "CRRunResult", "CheckpointedRun", "drive"]
