"""Control-flow-graph construction over program images.

Basic blocks are maximal straight-line instruction runs; edges follow
branches, fallthroughs and function fallthrough-into-RET.  CALL/RET are
treated intraprocedurally (a CALL falls through to its return point) --
standard for binary-level CFGs.  The graph is a :class:`networkx.DiGraph`
whose nodes are block leader PCs, so the rest of the ecosystem (dominators,
reachability) is available for free in tests and tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.isa.instructions import Op
from repro.isa.program import Program

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class BasicBlock:
    """A maximal single-entry straight-line region ``[start, end)``."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


_UNCOND = frozenset({Op.JMP, Op.RET, Op.HALT, Op.ABORT})
_COND = frozenset({Op.BEQZ, Op.BNEZ})


def leaders(program: Program) -> list[int]:
    """Block leader PCs: entry points, branch targets, post-branch PCs."""
    n = len(program.instrs)
    marks = set(program.functions.values())
    marks.add(0)
    for pc, ins in enumerate(program.instrs):
        op = ins.op
        if op in _COND or op is Op.JMP or op is Op.CALL:
            target = int(ins.imm)
            if 0 <= target < n:
                marks.add(target)
        if op in _COND or op in _UNCOND or op is Op.CALL:
            if pc + 1 < n:
                marks.add(pc + 1)
    return sorted(m for m in marks if 0 <= m < n)


def build_cfg(program: Program) -> nx.DiGraph:
    """Whole-image CFG.  Node attribute ``block`` holds the BasicBlock."""
    import networkx as nx

    n = len(program.instrs)
    lead = leaders(program)
    graph = nx.DiGraph()
    blocks: list[BasicBlock] = []
    for i, start in enumerate(lead):
        end = lead[i + 1] if i + 1 < len(lead) else n
        block = BasicBlock(start, end)
        blocks.append(block)
        graph.add_node(start, block=block)
    for block in blocks:
        last = program.instrs[block.end - 1]
        op = last.op
        if op is Op.JMP:
            target = int(last.imm)
            if graph.has_node(target):
                graph.add_edge(block.start, target, kind="jump")
        elif op in _COND:
            target = int(last.imm)
            if graph.has_node(target):
                graph.add_edge(block.start, target, kind="taken")
            if block.end < n:
                graph.add_edge(block.start, block.end, kind="fallthrough")
        elif op is Op.CALL:
            # Intraprocedural: the call returns to the next block.
            if block.end < n:
                graph.add_edge(block.start, block.end, kind="call-return")
        elif op in (Op.RET, Op.HALT, Op.ABORT):
            pass  # no static successor
        else:
            if block.end < n:
                graph.add_edge(block.start, block.end, kind="fallthrough")
    return graph


def function_cfg(program: Program, name: str) -> nx.DiGraph:
    """CFG restricted to one function's extent."""
    from repro.analysis.functions import FunctionTable

    info = FunctionTable(program).by_name(name)
    full = build_cfg(program)
    nodes = [n for n in full.nodes if info.start <= n < info.end]
    return full.subgraph(nodes).copy()


def reachable_blocks(program: Program) -> set[int]:
    """Leader PCs reachable from the entry function (incl. via calls)."""
    import networkx as nx

    graph = build_cfg(program)
    # Add interprocedural call edges for reachability purposes only.
    for pc, ins in enumerate(program.instrs):
        if ins.op is Op.CALL:
            src = _leader_of(graph, pc)
            target = int(ins.imm)
            if graph.has_node(target) and src is not None:
                graph.add_edge(src, target, kind="call")
    entry = program.entry_pc
    start = _leader_of(graph, entry)
    if start is None:
        return set()
    return set(nx.descendants(graph, start)) | {start}


def _leader_of(graph: nx.DiGraph, pc: int) -> int | None:
    best = None
    for node in graph.nodes:
        if node <= pc and (best is None or node > best):
            block = graph.nodes[node]["block"]
            if pc < block.end:
                best = node
    return best


__all__ = ["BasicBlock", "leaders", "build_cfg", "function_cfg", "reachable_blocks"]
