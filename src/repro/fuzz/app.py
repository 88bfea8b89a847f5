"""MiniApp wrappers for fuzz-generated MiniC programs.

Two flavours:

* :class:`LangApp` wraps an arbitrary generated source string.  It is
  perfect for the *serial* campaign oracles (split-and-concatenate merge,
  journal resume), but it is **not** picklable through the engine's
  worker-spec protocol, so it cannot ride a ``jobs > 1`` pool.
* :class:`FuzzAppA` / :class:`FuzzAppB` / :class:`FuzzAppC` are fixed,
  module-level, zero-argument classes whose source is generated
  deterministically from a class-level seed at property access.  They
  satisfy the engine's importable-spec contract (rebuildable in a spawn
  or fork worker with identical source), so the jobs=1 vs jobs=N
  metamorphic oracle fuzzes over *campaign parameters* against them.

The acceptance check is structural (golden arity + all floats finite)
and the SDC slice is the whole output stream: generated apps have no
physics to verify, so every surviving bit matters.
"""

from __future__ import annotations

import math
import random

from repro.apps.base import MiniApp, Output
from repro.fuzz.generator import gen_lang_source


class _FuzzSemantics(MiniApp):
    """Shared acceptance/SDC semantics for generated apps."""

    domain = "fuzz-generated"

    def acceptance_check(self, output: Output) -> bool:
        if len(output) != len(self.golden.output):
            return False
        for kind, value in output:
            if kind == "f" and not math.isfinite(value):
                return False
        return True

    def sdc_slice(self, output: Output) -> tuple:
        return tuple(value for _, value in output)


class LangApp(_FuzzSemantics):
    """A generated MiniC source wrapped as a campaign-ready app."""

    def __init__(self, source: str, name: str = "fuzz-lang"):
        self.name = name
        self._source = source

    @property
    def source(self) -> str:
        return self._source


class _FixedLangApp(_FuzzSemantics):
    """Base for the importable fixed-seed apps (see module docstring)."""

    #: Seed of the deterministic source; subclasses override.
    lang_seed = 0

    @property
    def source(self) -> str:
        return gen_lang_source(random.Random(f"fuzz-app:{self.lang_seed}"))


class FuzzAppA(_FixedLangApp):
    name = "fuzz-app-a"
    lang_seed = 11


class FuzzAppB(_FixedLangApp):
    name = "fuzz-app-b"
    lang_seed = 23


class FuzzAppC(_FixedLangApp):
    name = "fuzz-app-c"
    lang_seed = 37


#: The importable apps the jobs-invariance oracle draws from.
FIXED_APPS: tuple[type[_FixedLangApp], ...] = (FuzzAppA, FuzzAppB, FuzzAppC)


__all__ = ["LangApp", "FuzzAppA", "FuzzAppB", "FuzzAppC", "FIXED_APPS"]
