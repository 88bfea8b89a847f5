"""Machine substrate: memory, CPU, processes, signals, and a debugger.

Replaces the hardware + Linux + gdb layer of the original LetGo prototype.
"""

from repro.machine.cluster import Cluster, ClusterEvent, Network
from repro.machine.compiled import BACKENDS, CompiledCPU, cpu_class
from repro.machine.cpu import CPU, STOP_HALT, STOP_STEPS
from repro.machine.debugger import (
    STOP_BREAKPOINT,
    STOP_BUDGET,
    STOP_EXITED,
    STOP_STEPS_DONE,
    STOP_TRAP,
    DebugSession,
    StopEvent,
)
from repro.machine.memory import (
    AccessError,
    Memory,
    Segment,
    float_to_pattern,
    int_to_pattern,
    pattern_to_float,
    pattern_to_int,
)
from repro.machine.process import Process, ProcessStatus, RunResult
from repro.machine.signals import LETGO_DEFAULT_SIGNALS, Blocked, Signal, Trap

__all__ = [
    "Cluster",
    "ClusterEvent",
    "Network",
    "Blocked",
    "CPU",
    "CompiledCPU",
    "BACKENDS",
    "cpu_class",
    "STOP_HALT",
    "STOP_STEPS",
    "DebugSession",
    "StopEvent",
    "STOP_EXITED",
    "STOP_TRAP",
    "STOP_BREAKPOINT",
    "STOP_BUDGET",
    "STOP_STEPS_DONE",
    "Memory",
    "Segment",
    "AccessError",
    "float_to_pattern",
    "pattern_to_float",
    "int_to_pattern",
    "pattern_to_int",
    "Process",
    "ProcessStatus",
    "RunResult",
    "Signal",
    "Trap",
    "LETGO_DEFAULT_SIGNALS",
]
