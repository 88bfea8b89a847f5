"""Program image: decoded instructions + symbols + data layout.

A :class:`Program` is what the assembler produces, the loader consumes, and
static analysis (:mod:`repro.analysis`) inspects.  It plays the role of an
ELF executable in the original LetGo setup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import LoaderError
from repro.isa.instructions import BLOCK_END_OPS, BRANCH_OPS, NETWORK_OPS, Instr
from repro.isa.layout import CELL, DATA_BASE


@dataclass(frozen=True)
class DataSymbol:
    """A named region in the data segment.

    ``addr`` is an absolute byte address, ``cells`` the region length in
    8-byte cells.
    """

    name: str
    addr: int
    cells: int

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.addr + self.cells * CELL


@dataclass
class Program:
    """A fully-linked executable image.

    Attributes
    ----------
    instrs:
        Decoded instruction list; the PC indexes it.
    functions:
        Function name -> entry PC.  Function extents are derived by static
        analysis (a function runs until the next function's entry).
    data_symbols:
        Global name -> :class:`DataSymbol`.
    data_init:
        Absolute address -> initial 64-bit pattern (unsigned).  Cells not
        listed start as zero.
    entry:
        Name of the function execution starts in.
    source_name:
        Informational tag (e.g. the MiniC app that produced the image).
    """

    instrs: list[Instr]
    functions: dict[str, int] = field(default_factory=dict)
    data_symbols: dict[str, DataSymbol] = field(default_factory=dict)
    data_init: dict[int, int] = field(default_factory=dict)
    entry: str = "_start"
    source_name: str = ""

    def __post_init__(self) -> None:
        if self.entry not in self.functions and self.instrs:
            if "main" in self.functions:
                self.entry = "main"
            else:
                raise LoaderError(
                    f"entry point {self.entry!r} is not a declared function"
                )

    # -- geometry ----------------------------------------------------------

    @property
    def entry_pc(self) -> int:
        """PC of the entry function."""
        return self.functions[self.entry]

    @property
    def data_cells(self) -> int:
        """Total data-segment length in cells (contiguous from DATA_BASE)."""
        if not self.data_symbols:
            return 0
        end = max(s.end for s in self.data_symbols.values())
        return (end - DATA_BASE) // CELL

    def data_end(self) -> int:
        """One past the last data-segment byte."""
        return DATA_BASE + self.data_cells * CELL

    # -- symbol queries ------------------------------------------------------

    def function_names_by_pc(self) -> list[tuple[int, str]]:
        """(entry_pc, name) pairs sorted by entry PC."""
        return sorted((pc, name) for name, pc in self.functions.items())

    def symbol_for_pc(self, pc: int) -> str | None:
        """Name of the function containing *pc*, or None if out of range."""
        best: str | None = None
        best_pc = -1
        for name, fpc in self.functions.items():
            if fpc <= pc and fpc > best_pc:
                best, best_pc = name, fpc
        return best if 0 <= pc < len(self.instrs) else None

    # -- identity ------------------------------------------------------------

    def checksum(self) -> str:
        """Stable content hash of the image (code + data + symbols).

        Cached after the first call: images are immutable once assembled,
        and the restore fast path verifies the checksum per injection.
        """
        cached = self.__dict__.get("_checksum")
        if cached is not None:
            return cached
        h = hashlib.sha256()
        for ins in self.instrs:
            h.update(
                f"{int(ins.op)}|{ins.rd}|{ins.ra}|{ins.rb}|{ins.imm!r}".encode()
            )
        for name in sorted(self.functions):
            h.update(f"F{name}:{self.functions[name]}".encode())
        for name in sorted(self.data_symbols):
            s = self.data_symbols[name]
            h.update(f"D{name}:{s.addr}:{s.cells}".encode())
        for addr in sorted(self.data_init):
            h.update(f"I{addr}:{self.data_init[addr]}".encode())
        digest = h.hexdigest()
        self.__dict__["_checksum"] = digest
        return digest

    def __len__(self) -> int:
        return len(self.instrs)


def leaders(program: Program) -> list[int]:
    """Block leader PCs: where static code can enter a basic block.

    The image start and every function entry, every branch and call
    target, and the PC after each block terminator or network op.  Every
    other entry (a restored mid-block state, the PC after a bit flip or a
    LetGo repair, a wild jump) is made by a fault or by a run paused
    mid-block.
    """
    instrs = program.instrs
    n = len(instrs)
    marks = set(program.functions.values())
    marks.add(0)
    for pc, ins in enumerate(instrs):
        op = ins.op
        if op in BRANCH_OPS:
            marks.add(int(ins.imm))
        if op in BLOCK_END_OPS or op in NETWORK_OPS:
            marks.add(pc + 1)
    return sorted(m for m in marks if 0 <= m < n)
