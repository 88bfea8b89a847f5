"""Protected, sparse, cell-granular memory.

Memory holds raw 64-bit *patterns* (unsigned ints); typed views (signed
integer / IEEE double) are applied at the load/store boundary by the CPU.
That makes behaviour after corruption fully defined: a bit-flipped address
register may load a cell that was written as a float into an integer
register, and the result is exactly the reinterpretation x86 would give.

Protection is segment-based: accesses must fall inside a mapped segment
(else the access *faults*, reported by the CPU as SIGSEGV) and be 8-byte
aligned (else SIGBUS).  The segment check happens first -- real hardware
walks the page tables before it complains about alignment -- so an access
that is both unmapped *and* misaligned reports SIGSEGV.  Faults are
signalled with the lightweight :class:`AccessError` carrying the kind; the
CPU converts it to a full :class:`~repro.machine.signals.Trap` with PC
context.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.isa.layout import CELL, MASK64

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")


class AccessError(Exception):
    """A faulting memory access.  ``kind`` is 'segv' or 'bus'."""

    def __init__(self, kind: str, address: int, mode: str):
        self.kind = kind
        self.address = address
        self.mode = mode  # 'read' | 'write'
        super().__init__(f"{kind} on {mode} at 0x{address & MASK64:x}")


@dataclass(frozen=True)
class Segment:
    """A mapped address range ``[start, end)``."""

    name: str
    start: int
    end: int

    def __contains__(self, address: int) -> bool:
        return self.start <= address < self.end


class Memory:
    """Sparse cell store with segment protection.

    Cells not yet written read as zero -- deliberately: the paper's
    Heuristic I picks 0 as the fill value "because the memory often
    contains a lot of 0s as initialization data".
    """

    __slots__ = ("_cells", "_segments", "_ranges")

    def __init__(self) -> None:
        self._cells: dict[int, int] = {}
        self._segments: list[Segment] = []
        self._ranges: list[tuple[int, int]] = []

    # -- mapping -----------------------------------------------------------

    def map_segment(self, name: str, start: int, size: int) -> Segment:
        """Map ``[start, start+size)``; start/size must be cell-aligned."""
        if start % CELL or size % CELL or size <= 0:
            raise ValueError(f"segment {name!r} not cell-aligned: {start:#x}+{size:#x}")
        end = start + size
        for seg in self._segments:
            if start < seg.end and seg.start < end:
                raise ValueError(f"segment {name!r} overlaps {seg.name!r}")
        seg = Segment(name, start, end)
        self._segments.append(seg)
        self._segments.sort(key=lambda s: s.start)
        self._ranges = [(s.start, s.end) for s in self._segments]
        return seg

    @property
    def segments(self) -> tuple[Segment, ...]:
        """Mapped segments, sorted by start address."""
        return tuple(self._segments)

    def segment_for(self, address: int) -> Segment | None:
        """The segment containing *address*, or None."""
        for seg in self._segments:
            if address in seg:
                return seg
        return None

    def is_mapped(self, address: int) -> bool:
        """True if *address* lies in a mapped segment."""
        for lo, hi in self._ranges:
            if lo <= address < hi:
                return True
        return False

    # -- raw pattern access --------------------------------------------------

    def read_pattern(self, address: int) -> int:
        """Read the 64-bit pattern at *address* (checked, mapping first)."""
        for lo, hi in self._ranges:
            if lo <= address < hi:
                if address % CELL:
                    raise AccessError("bus", address, "read")
                return self._cells.get(address, 0)
        raise AccessError("segv", address, "read")

    def write_pattern(self, address: int, pattern: int) -> None:
        """Write a 64-bit pattern at *address* (checked, mapping first)."""
        for lo, hi in self._ranges:
            if lo <= address < hi:
                if address % CELL:
                    raise AccessError("bus", address, "write")
                self._cells[address] = pattern & MASK64
                return
        raise AccessError("segv", address, "write")

    # -- typed access (CPU load/store boundary) ---------------------------

    def read_int(self, address: int) -> int:
        """Read a signed 64-bit integer."""
        pattern = self.read_pattern(address)
        return pattern - (1 << 64) if pattern >= (1 << 63) else pattern

    def write_int(self, address: int, value: int) -> None:
        """Write a signed 64-bit integer (wraps)."""
        self.write_pattern(address, value & MASK64)

    def read_float(self, address: int) -> float:
        """Read an IEEE-754 double."""
        pattern = self.read_pattern(address)
        return _PACK_D.unpack(_PACK_Q.pack(pattern))[0]

    def write_float(self, address: int, value: float) -> None:
        """Write an IEEE-754 double."""
        self.write_pattern(address, _PACK_Q.unpack(_PACK_D.pack(value))[0])

    # -- debugging / inspection helpers ------------------------------------

    def written_cells(self) -> dict[int, int]:
        """Copy of all cells that have been explicitly written."""
        return dict(self._cells)

    def cells_equal(self, cells: dict[int, int]) -> bool:
        """True if the written cells are exactly *cells* (no copy made)."""
        return self._cells == cells

    def load_cells(self, cells: dict[int, int]) -> None:
        """Wholesale-replace contents with *cells* (bulk restore path).

        Skips the per-cell segment/alignment checks of
        :meth:`write_pattern`: callers pass cells captured from a process
        with an identical segment map (see ``repro.checkpoint.snapshot``),
        where every address was validated when originally written.
        """
        self._cells = dict(cells)

    def clear(self) -> None:
        """Drop contents but keep the segment map."""
        self._cells.clear()

    @property
    def n_written(self) -> int:
        """Number of cells holding an explicitly written pattern."""
        return len(self._cells)


def float_to_pattern(value: float) -> int:
    """IEEE-754 bit pattern of *value* as an unsigned 64-bit int."""
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


def pattern_to_float(pattern: int) -> float:
    """Reinterpret an unsigned 64-bit pattern as an IEEE-754 double."""
    return _PACK_D.unpack(_PACK_Q.pack(pattern & MASK64))[0]


def int_to_pattern(value: int) -> int:
    """Two's-complement pattern of a (possibly out-of-range) int."""
    return value & MASK64


def pattern_to_int(pattern: int) -> int:
    """Signed value of an unsigned 64-bit pattern."""
    pattern &= MASK64
    return pattern - (1 << 64) if pattern >= (1 << 63) else pattern


__all__ = [
    "Memory",
    "Segment",
    "AccessError",
    "float_to_pattern",
    "pattern_to_float",
    "int_to_pattern",
    "pattern_to_int",
]
