"""Exception hierarchy shared across the repro packages.

Machine-level *traps* (hardware exceptions that become OS signals) are
deliberately NOT in this hierarchy -- they live in
:mod:`repro.machine.signals` because they model architectural events, not
library misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AssemblerError(ReproError):
    """Malformed assembly source (bad mnemonic, operand, or label)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Instruction cannot be encoded to / decoded from the binary image."""


class CompileError(ReproError):
    """MiniC source rejected by the lexer, parser, or semantic analysis."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LoaderError(ReproError):
    """Program image cannot be loaded into a process."""


class AnalysisError(ReproError):
    """Static analysis failed (e.g. no function table for an address)."""


class InjectionError(ReproError):
    """Fault-injection plan cannot be applied to the target run."""


class JournalError(ReproError):
    """Campaign journal is corrupt, duplicated, or from another campaign."""


class SimulationError(ReproError):
    """The C/R state-machine simulation was mis-configured."""
