"""Checked-in reproducer corpus: JSON on disk, replayed as tier-1 tests.

Every divergence the fuzzer ever shrank lives on as a corpus case under
``tests/corpus/*.json``; ``tests/fuzz/test_corpus.py`` parametrizes over
the directory so each case is an individually named tier-1 test forever.

Format (``"format": 1``)::

    {
      "format": 1,
      "name": "fmin-nan",
      "description": "why this case exists",
      "oracles": ["backend", "debugger", "snapshot"],
      "budget": 96,
      "segments": [3, 5, 88],        # optional lockstep schedule
      "cut": 7,                      # optional snapshot point
      "breakpoints": [2],            # optional debugger breakpoints
      "program": {
        "instrs": [["movi", 1, 0, 0, 65536], ["halt", 0, 0, 0, 0]],
        "data_cells": 4,
        "data_init": {"65536": 255}
      }
    }

Instruction operands are ``[opname, rd, ra, rb, imm]``.  JSON cannot
encode NaN/inf, so float immediates (FMOVI) are stored as ``repr``
strings and parsed back with ``float()`` -- the round trip is exact for
every IEEE double including NaN and the infinities.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fuzz.oracles import PROGRAM_ORACLES, Divergence, check_program
from repro.isa.instructions import Instr, Op
from repro.isa.layout import DATA_BASE
from repro.isa.program import DataSymbol, Program

FORMAT_VERSION = 1


def program_to_dict(program: Program) -> dict:
    """JSON-safe encoding of a fuzz program (entry ``main`` at pc 0)."""
    instrs = []
    for ins in program.instrs:
        imm: int | float | str = ins.imm
        if isinstance(imm, float):
            imm = repr(imm)
        instrs.append([ins.op.name.lower(), ins.rd, ins.ra, ins.rb, imm])
    return {
        "instrs": instrs,
        "data_cells": program.data_cells,
        "data_init": {str(a): p for a, p in sorted(program.data_init.items())},
    }


def program_from_dict(payload: dict, name: str = "corpus") -> Program:
    """Decode :func:`program_to_dict` output."""
    instrs = []
    for opname, rd, ra, rb, imm in payload["instrs"]:
        op = Op[opname.upper()]
        if isinstance(imm, str):
            imm = float(imm)
        instrs.append(Instr(op, rd=rd, ra=ra, rb=rb, imm=imm))
    cells = int(payload.get("data_cells", 0))
    symbols = {"g": DataSymbol("g", DATA_BASE, cells)} if cells else {}
    return Program(
        instrs=instrs,
        functions={"main": 0},
        data_symbols=symbols,
        data_init={int(a): p for a, p in payload.get("data_init", {}).items()},
        source_name=name,
    )


def case_to_dict(
    name: str,
    description: str,
    program: Program,
    *,
    budget: int,
    segments: list[int] | None = None,
    cut: int | None = None,
    breakpoints: list[int] | None = None,
    oracles: tuple[str, ...] = PROGRAM_ORACLES,
) -> dict:
    case = {
        "format": FORMAT_VERSION,
        "name": name,
        "description": description,
        "oracles": list(oracles),
        "budget": budget,
        "program": program_to_dict(program),
    }
    if segments is not None:
        case["segments"] = list(segments)
    if cut is not None:
        case["cut"] = cut
    if breakpoints is not None:
        case["breakpoints"] = list(breakpoints)
    return case


def save_case(path: str | Path, case: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: str | Path) -> dict:
    case = json.loads(Path(path).read_text())
    version = case.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported corpus format {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return case


def iter_corpus(directory: str | Path) -> list[tuple[str, dict]]:
    """(name, case) pairs for every ``*.json`` under *directory*, sorted."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for path in sorted(directory.glob("*.json")):
        case = load_case(path)
        out.append((case.get("name", path.stem), case))
    return out


def check_case(case: dict) -> list[Divergence]:
    """Replay one corpus case through its recorded oracle schedule."""
    program = program_from_dict(case["program"], name=case.get("name", "corpus"))
    return check_program(
        program,
        budget=case["budget"],
        segments=case.get("segments"),
        cut=case.get("cut"),
        breakpoints=case.get("breakpoints"),
        oracles=tuple(case.get("oracles", PROGRAM_ORACLES)),
    )


__all__ = [
    "FORMAT_VERSION",
    "program_to_dict",
    "program_from_dict",
    "case_to_dict",
    "save_case",
    "load_case",
    "iter_corpus",
    "check_case",
]
