"""Section 6.2: LetGo performance overhead.

Two claims to reproduce:

1. Running under the monitor costs ~nothing (<1% in the paper): attaching
   LetGo adds no per-instruction work, only a trap hook.  Measured across
   three LULESH input sizes.
2. The state-repair time is small and *constant in input size* (2-5 s
   wall-clock in the paper's gdb/PIN prototype; microseconds here since
   the repair is in-process -- the shape to check is constancy).
"""

import re
import time

from repro.analysis import FunctionTable
from repro.core import LETGO_E, LetGoSession
from repro.lang import compile_source
from repro.machine import Process
from repro.reporting import ascii_table

from conftest import write_artifact

from repro.apps.lulesh import _SOURCE as LULESH_SOURCE


def _sized_lulesh(n_zones):
    src = re.sub(r"global int nz = \d+;", f"global int nz = {n_zones};", LULESH_SOURCE)
    src = re.sub(r"global int nn = \d+;", f"global int nn = {n_zones + 1};", src)
    src = re.sub(r"\[(\d+)\]", lambda m: f"[{max(n_zones + 1, 8)}]", src)
    return compile_source(src, f"lulesh-{n_zones}")


def _time_plain(program, budget=10**8):
    process = Process.load(program)
    start = time.perf_counter()
    process.run(budget)
    return time.perf_counter() - start, process.cpu.instret


def _time_monitored(program, functions, budget=10**8):
    process = Process.load(program)
    start = time.perf_counter()
    LetGoSession(LETGO_E, functions).run(process, budget)
    return time.perf_counter() - start, process.cpu.instret


def _repair_time(program, functions, corrupt_after):
    from repro.core import Modifier
    from repro.isa.registers import SP
    from repro.machine import DebugSession

    process = Process.load(program)
    process.cpu.run(corrupt_after)
    process.cpu.iregs[SP] ^= 1 << 44  # corrupt the stack pointer -> crash
    session = DebugSession(process)
    event = session.cont(10**7)
    if event.trap is None:
        return None
    record = Modifier(LETGO_E, functions).repair(session, event.trap)
    return record.repair_seconds


def build_report():
    sizes = [9, 17, 33]
    rows = []
    overheads = []
    repair_rows = []
    for n in sizes:
        program = _sized_lulesh(n)
        functions = FunctionTable(program)
        plain_t, plain_i = _time_plain(program)
        mon_t, mon_i = _time_monitored(program, functions)
        assert plain_i == mon_i  # identical executions
        overhead = mon_t / plain_t - 1.0
        overheads.append(overhead)
        rows.append(
            [f"nz={n}", f"{plain_i:,}", f"{plain_t:.3f}s", f"{mon_t:.3f}s",
             f"{100 * overhead:+.1f}%"]
        )
    text = ascii_table(
        ["LULESH size", "dyn instrs", "plain", "under LetGo", "overhead"],
        rows,
        title="Section 6.2a: monitor overhead vs input size",
    )
    return overheads, text


def test_sec62_monitor_overhead(benchmark):
    overheads, text = benchmark.pedantic(build_report, rounds=1, iterations=1)
    print("\n" + text)
    write_artifact("sec62_monitor_overhead.txt", text)
    # paper: <1%; our monitor is in-process, allow measurement noise
    assert all(o < 0.25 for o in overheads)


def test_sec62_repair_time_constant(benchmark):
    sizes = [9, 17, 33]
    times = []
    for n in sizes:
        program = _sized_lulesh(n)
        functions = FunctionTable(program)
        t = _repair_time(program, functions, corrupt_after=500)
        if t is not None:
            times.append(t)
    assert times, "no repair opportunity found"

    # time one repair properly with pytest-benchmark
    program = _sized_lulesh(17)
    functions = FunctionTable(program)

    def one_repair():
        return _repair_time(program, functions, corrupt_after=500)

    measured = benchmark.pedantic(one_repair, rounds=3, iterations=1)
    rows = [[f"nz={n}", f"{t * 1e6:.1f} us"] for n, t in zip(sizes, times)]
    text = ascii_table(
        ["LULESH size", "repair time"],
        rows,
        title="Section 6.2b: state-repair time vs input size (constant)",
    )
    print("\n" + text)
    write_artifact("sec62_repair_time.txt", text)
    # repair must not scale with input size: max/min bounded
    assert max(times) / max(min(times), 1e-9) < 50
    # and must be far below one application run (paper: seconds vs hours)
    assert all(t < 0.05 for t in times)
    del measured
