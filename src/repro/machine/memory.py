"""Protected, sparse, cell-granular memory.

A cell holds the value its last store wrote: a signed 64-bit ``int`` for
integer stores (``ST``/``STX``/``PUSH``/``CALL``, :meth:`Memory.write_int`,
:meth:`Memory.write_pattern`) or a ``float`` for float stores
(``FST``/``FSTX``/``FPUSH``, :meth:`Memory.write_float`).  A load of the
same type returns the value as it is.  The 64-bit pattern is the
contract everywhere else:

* a *cross-type* load (a float load of an int cell, or the reverse)
  reinterprets the cell's bits, exactly as x86 would after a bit flip
  sent an address register into the other type's data, and stores the
  converted value back into the same cell (same pattern, so nothing
  observable changes; the next such load needs no conversion);
* :meth:`Memory.written_cells` and :meth:`Memory.read_pattern` report
  unsigned patterns;
* :meth:`Memory.cells_equal` compares patterns exactly: ``1`` and
  ``1.0`` differ, as do ``0.0`` and ``-0.0``; two NaNs with one payload,
  or an int and a float cell with one pattern, are equal.

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
from functools import partial
from itertools import compress
from math import copysign
from operator import ne

from repro.isa.layout import CELL, MASK64

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")
_PACK_q = struct.Struct("<q")


def int_as_float(value: int) -> float:
    """The double whose bits are the signed 64-bit int *value*."""
    return _PACK_D.unpack(_PACK_q.pack(value))[0]


def float_as_int(value: float) -> int:
    """The signed 64-bit int whose bits are the double *value*."""
    return _PACK_q.unpack(_PACK_D.pack(value))[0]


def _pattern(value) -> int:
    """The unsigned 64-bit pattern of a cell value (-1 for no cell)."""
    if value is None:
        return -1
    return float_to_pattern(value) if type(value) is float else value & MASK64


def _same_pattern(a, b) -> bool:
    return a is b or _pattern(a) == _pattern(b)


#: The sign of a number as +-1.0: tells ``0.0`` from ``-0.0``.
_sign = partial(copysign, 1.0)


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
        self._cells: dict[int, int | float] = {}
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

    # -- access ----------------------------------------------------------

    def _check(self, address: int, mode: str) -> None:
        """Raise the :class:`AccessError` of a *mode* access at *address*:
        segment map first, then alignment."""
        for lo, hi in self._ranges:
            if lo <= address < hi:
                if address % CELL:
                    raise AccessError("bus", address, mode)
                return
        raise AccessError("segv", address, mode)

    def read_pattern(self, address: int) -> int:
        """The unsigned 64-bit pattern at *address*."""
        self._check(address, "read")
        return _pattern(self._cells.get(address, 0))

    def write_pattern(self, address: int, pattern: int) -> None:
        """Write a 64-bit pattern at *address* (held as its signed int)."""
        self._check(address, "write")
        self._cells[address] = pattern_to_int(pattern)

    def read_int(self, address: int) -> int:
        """Read a signed 64-bit integer (a float cell's bits, converted
        once and stored back)."""
        self._check(address, "read")
        value = self._cells.get(address, 0)
        if type(value) is not int:
            value = self._cells[address] = float_as_int(value)
        return value

    def write_int(self, address: int, value: int) -> None:
        """Write a signed 64-bit integer.  Stored as is: every int register
        holds one (ALU results wrap, immediates, debugger writes and
        Heuristic I's fill value are wrapped where they enter)."""
        self._check(address, "write")
        self._cells[address] = value

    def read_float(self, address: int) -> float:
        """Read an IEEE-754 double (an int cell's bits, converted once and
        stored back)."""
        self._check(address, "read")
        value = self._cells.get(address, 0.0)
        if type(value) is not float:
            value = self._cells[address] = int_as_float(value)
        return value

    def write_float(self, address: int, value: float) -> None:
        """Write an IEEE-754 double."""
        self._check(address, "write")
        self._cells[address] = value

    # -- whole-memory views ------------------------------------------------

    def written_cells(self) -> dict[int, int]:
        """Unsigned patterns of all cells that have been explicitly written."""
        return {address: _pattern(v) for address, v in self._cells.items()}

    def raw_cells(self) -> dict[int, int | float]:
        """Copy of the cells as held (ints and floats), for
        :meth:`load_cells` and :meth:`cells_equal`."""
        return dict(self._cells)

    def cells_equal(self, cells: dict[int, int | float]) -> bool:
        """True if the written cells are exactly *cells*, pattern for
        pattern (*cells* as :meth:`raw_cells` returns them).

        ``==`` on the values is wrong both ways (``1 == 1.0``, ``0.0 ==
        -0.0``, ``nan != nan``).  So the cells that differ by ``==`` are
        settled by pattern, stopping at the first real difference, and the
        rest must also agree in type and sign; only a cross-type pair or
        a signed zero sends the whole check to patterns.
        """
        live = self._cells
        if len(live) != len(cells):
            return False
        unequal = map(ne, map(live.get, cells), cells.values())
        for address, value in compress(cells.items(), unequal):
            if not _same_pattern(live.get(address), value):
                return False
        mine = list(map(live.get, cells))
        theirs = list(cells.values())
        if (
            list(map(type, mine)) == list(map(type, theirs))
            and list(map(_sign, mine)) == list(map(_sign, theirs))
        ):
            return True
        return all(map(_same_pattern, mine, theirs))

    def load_cells(self, cells: dict[int, int | float]) -> None:
        """Wholesale-replace contents with *cells* (bulk restore path).

        Refills the cell dict in place, so code that bound it (the
        compiled backend's blocks) sees the restored contents.  Skips the
        per-cell segment/alignment checks of the write methods: callers
        pass :meth:`raw_cells` of a process with an identical segment map
        (see ``repro.checkpoint.snapshot``), where every address was
        validated when originally written.
        """
        if cells is not self._cells:
            self._cells.clear()
            self._cells.update(cells)

    def clear(self) -> None:
        """Drop contents but keep the segment map."""
        self._cells.clear()

    @property
    def n_written(self) -> int:
        """Number of cells holding an explicitly written value."""
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
    "float_as_int",
    "int_as_float",
    "float_to_pattern",
    "pattern_to_float",
    "int_to_pattern",
    "pattern_to_int",
]
