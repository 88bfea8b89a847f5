"""Fixed-width binary encoding of program images.

Each instruction encodes to a 16-byte record::

    u8 opcode | u8 rd | u8 ra | u8 rb | 4 pad bytes | 8-byte immediate

The immediate is a signed 64-bit integer except for opcodes in
:data:`~repro.isa.instructions.FLOAT_IMM_OPS`, which carry an IEEE-754
double.  A full image is::

    magic "LGRI" | u16 version | u16 reserved | u32 n_instrs |
    n_instrs records | metadata (UTF-8 JSON: symbols, entry, data init)

The encoding exists so static analysis can operate on an image with no
in-memory objects around (the PIN-on-a-binary scenario); it is also the
canonical on-disk format for compiled apps.
"""

from __future__ import annotations

import json
import struct

from repro.errors import EncodingError
from repro.isa.instructions import FLOAT_IMM_OPS, Instr, Op
from repro.isa.program import DataSymbol, Program

MAGIC = b"LGRI"
VERSION = 1

_REC_INT = struct.Struct("<BBBBxxxxq")
_REC_FLOAT = struct.Struct("<BBBBxxxxd")
_HEADER = struct.Struct("<4sHHI")


def encode_instr(ins: Instr) -> bytes:
    """Encode one instruction to its 16-byte record."""
    rec = _REC_FLOAT if ins.op in FLOAT_IMM_OPS else _REC_INT
    try:
        return rec.pack(int(ins.op), ins.rd, ins.ra, ins.rb, ins.imm)
    except (struct.error, ValueError) as exc:
        raise EncodingError(f"cannot encode {ins!r}: {exc}") from exc


def decode_instr(blob: bytes) -> Instr:
    """Decode one 16-byte record."""
    if len(blob) != 16:
        raise EncodingError(f"instruction record must be 16 bytes, got {len(blob)}")
    opcode = blob[0]
    try:
        op = Op(opcode)
    except ValueError:
        raise EncodingError(f"unknown opcode byte {opcode}") from None
    rec = _REC_FLOAT if op in FLOAT_IMM_OPS else _REC_INT
    _, rd, ra, rb, imm = rec.unpack(blob)
    return Instr(op, rd=rd, ra=ra, rb=rb, imm=imm)


def encode_program(program: Program) -> bytes:
    """Serialize a full image."""
    body = b"".join(encode_instr(i) for i in program.instrs)
    meta = {
        "entry": program.entry,
        "source_name": program.source_name,
        "functions": program.functions,
        "data_symbols": {
            name: [sym.addr, sym.cells]
            for name, sym in program.data_symbols.items()
        },
        "data_init": {str(addr): pattern for addr, pattern in program.data_init.items()},
        "syms": {
            str(pc): ins.sym
            for pc, ins in enumerate(program.instrs)
            if ins.sym is not None
        },
    }
    header = _HEADER.pack(MAGIC, VERSION, 0, len(program.instrs))
    return header + body + json.dumps(meta, sort_keys=True).encode("utf-8")


def decode_program(blob: bytes) -> Program:
    """Deserialize an image produced by :func:`encode_program`."""
    if len(blob) < _HEADER.size:
        raise EncodingError("image too short for header")
    magic, version, _, n = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise EncodingError(f"bad magic {magic!r}")
    if version != VERSION:
        raise EncodingError(f"unsupported image version {version}")
    offset = _HEADER.size
    end = offset + 16 * n
    if len(blob) < end:
        raise EncodingError("image truncated in instruction section")
    instrs = [decode_instr(blob[offset + 16 * i : offset + 16 * (i + 1)]) for i in range(n)]
    try:
        meta = json.loads(blob[end:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EncodingError(f"bad metadata section: {exc}") from exc
    syms = meta.get("syms", {})
    if syms:
        instrs = [
            Instr(i.op, rd=i.rd, ra=i.ra, rb=i.rb, imm=i.imm, sym=syms.get(str(pc)))
            for pc, i in enumerate(instrs)
        ]
    return Program(
        instrs=instrs,
        functions={k: int(v) for k, v in meta["functions"].items()},
        data_symbols={
            name: DataSymbol(name=name, addr=addr, cells=cells)
            for name, (addr, cells) in meta["data_symbols"].items()
        },
        data_init={int(a): int(p) for a, p in meta["data_init"].items()},
        entry=meta["entry"],
        source_name=meta.get("source_name", ""),
    )


__all__ = [
    "encode_instr",
    "decode_instr",
    "encode_program",
    "decode_program",
    "MAGIC",
    "VERSION",
]
