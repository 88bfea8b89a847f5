"""The compiled backend must not keep halted runs alive.

HALT unwinds a compiled chunk by raising one shared module-level
exception instance.  Each raise chains the raising frames onto that
instance's traceback, so unless the handler clears it, every run that
ever halted stays reachable: its CPU, memory and closure tables.
"""

from __future__ import annotations

import gc
import weakref

from repro.machine import compiled


def test_halted_compiled_runs_are_collectable(pennant_app):
    refs = []
    for _ in range(4):
        process = pennant_app.load("compiled")
        assert process.run(pennant_app.max_steps).reason == "exited"
        refs.append(weakref.ref(process))
        del process
    gc.collect()
    assert compiled._HALT.__traceback__ is None
    assert all(ref() is None for ref in refs)
