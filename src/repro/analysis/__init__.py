"""Static and dynamic binary analysis (the PIN substitute).

Provides exactly what LetGo needs from PIN -- next-PC is trivial in this
ISA (``pc+1``), so the load-bearing pieces are function/frame discovery
(:class:`FunctionTable`, Heuristic II) and per-instruction dynamic
profiling (:func:`profile_program`) -- plus a CFG builder and
objdump-style reports.
"""

from repro.analysis.cfg import (
    BasicBlock,
    build_cfg,
    function_cfg,
    leaders,
    reachable_blocks,
)
from repro.analysis.functions import PROLOGUE_WINDOW, FunctionInfo, FunctionTable
from repro.analysis.objdump import cfg_summary, objdump
from repro.analysis.profiler import Profile, profile_program

__all__ = [
    "BasicBlock",
    "build_cfg",
    "function_cfg",
    "leaders",
    "reachable_blocks",
    "FunctionTable",
    "FunctionInfo",
    "PROLOGUE_WINDOW",
    "objdump",
    "cfg_summary",
    "Profile",
    "profile_program",
]
