"""objdump-style textual reports combining disassembly and analysis."""

from __future__ import annotations

from repro.analysis.cfg import build_cfg, reachable_blocks
from repro.analysis.functions import FunctionTable
from repro.isa.disassembler import dump
from repro.isa.program import Program


def objdump(program: Program) -> str:
    """Full listing: headers, function table with frame sizes, code."""
    table = FunctionTable(program)
    lines = [
        f"image: {program.source_name or '<anonymous>'}",
        f"entry: {program.entry}   instructions: {len(program.instrs)}   "
        f"data cells: {program.data_cells}",
        f"checksum: {program.checksum()[:16]}",
        "",
        "functions:",
    ]
    for info in table.functions:
        frame = f"frame={info.frame_size:5d}B" if info.has_frame else "no frame  "
        lines.append(
            f"  {info.name:24s} [{info.start:6d}, {info.end:6d})  {frame}"
        )
    lines.append("")
    lines.append(dump(program))
    return "\n".join(lines)


def cfg_summary(program: Program) -> str:
    """One-line-per-function CFG statistics."""
    cfg = build_cfg(program)
    reachable = reachable_blocks(program, cfg)
    table = FunctionTable(program)
    lines = ["cfg summary (blocks / edges / reachable blocks per function):"]
    for info in table.functions:
        sub = cfg.restricted(info.start, info.end)
        reach = len(sub.blocks.keys() & reachable)
        lines.append(
            f"  {info.name:24s} blocks={len(sub.blocks):4d} edges={len(sub.edges):4d} "
            f"reachable={reach:4d}"
        )
    return "\n".join(lines)


__all__ = ["objdump", "cfg_summary"]
