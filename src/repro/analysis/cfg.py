"""Control-flow-graph construction over program images.

Basic blocks are maximal straight-line instruction runs; edges follow
branches, fallthroughs and function fallthrough-into-RET.  CALL/RET are
treated intraprocedurally (a CALL falls through to its return point) --
standard for binary-level CFGs.  A :class:`CFG` is two plain dicts: the
blocks keyed by leader PC, and each edge ``(src, dst)`` mapped to its
kind; reachability is a breadth-first search over them.  Blocks start
at :func:`repro.isa.program.leaders`, the rule the compiled backend
also compiles by.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

from repro.isa.instructions import BLOCK_END_OPS, COND_BRANCH_OPS, Op
from repro.isa.program import Program, leaders


@dataclass(frozen=True)
class BasicBlock:
    """A maximal single-entry straight-line region ``[start, end)``."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class CFG:
    """Blocks keyed by leader PC; edge ``(src, dst)`` -> its kind."""

    blocks: dict[int, BasicBlock]
    edges: dict[tuple[int, int], str]

    def restricted(self, start: int, end: int) -> CFG:
        """The subgraph on the blocks whose leader lies in ``[start, end)``."""
        blocks = {pc: b for pc, b in self.blocks.items() if start <= pc < end}
        edges = {
            edge: kind
            for edge, kind in self.edges.items()
            if edge[0] in blocks and edge[1] in blocks
        }
        return CFG(blocks, edges)


def build_cfg(program: Program) -> CFG:
    """Whole-image CFG."""
    n = len(program.instrs)
    lead = leaders(program)
    blocks = {
        start: BasicBlock(start, lead[i + 1] if i + 1 < len(lead) else n)
        for i, start in enumerate(lead)
    }
    edges: dict[tuple[int, int], str] = {}
    for block in blocks.values():
        last = program.instrs[block.end - 1]
        op = last.op
        if op is Op.JMP:
            target = int(last.imm)
            if target in blocks:
                edges[block.start, target] = "jump"
        elif op in COND_BRANCH_OPS:
            target = int(last.imm)
            if target in blocks:
                edges[block.start, target] = "taken"
            if block.end < n:
                edges[block.start, block.end] = "fallthrough"
        elif op is Op.CALL:
            # Intraprocedural: the call returns to the next block.
            if block.end < n:
                edges[block.start, block.end] = "call-return"
        elif op in BLOCK_END_OPS:
            pass  # RET, HALT, ABORT: no static successor
        elif block.end < n:
            edges[block.start, block.end] = "fallthrough"
    return CFG(blocks, edges)


def function_cfg(program: Program, name: str) -> CFG:
    """CFG restricted to one function's extent."""
    from repro.analysis.functions import FunctionTable

    info = FunctionTable(program).by_name(name)
    return build_cfg(program).restricted(info.start, info.end)


def reachable_blocks(program: Program, cfg: CFG | None = None) -> set[int]:
    """Leader PCs reachable from the entry function (incl. via calls).

    *cfg* is the program's whole-image CFG, built here when not given.
    """
    if cfg is None:
        cfg = build_cfg(program)
    starts = list(cfg.blocks)
    successors: dict[int, list[int]] = {pc: [] for pc in starts}
    for src, dst in cfg.edges:
        successors[src].append(dst)
    # Add interprocedural call edges for reachability purposes only.
    for pc, ins in enumerate(program.instrs):
        if ins.op is Op.CALL and int(ins.imm) in cfg.blocks:
            successors[_leader_of(cfg, starts, pc)].append(int(ins.imm))
    start = _leader_of(cfg, starts, program.entry_pc)
    if start is None:
        return set()
    seen = {start}
    queue = deque(seen)
    while queue:
        for nxt in successors[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _leader_of(cfg: CFG, starts: list[int], pc: int) -> int | None:
    """Leader of the block holding *pc* (``starts`` sorted), or None."""
    i = bisect_right(starts, pc) - 1
    if i >= 0 and pc < cfg.blocks[starts[i]].end:
        return starts[i]
    return None


__all__ = ["BasicBlock", "CFG", "leaders", "build_cfg", "function_cfg", "reachable_blocks"]
