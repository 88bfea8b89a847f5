"""Microbenchmarks of the substrate (pytest-benchmark proper).

Times the building blocks every experiment leans on: execution backend
throughput, compile time, loader, profiler, one injection run, one C/R
simulation.  These are the numbers that determine how large a campaign a
given time budget can afford.

Also runnable standalone -- ``python benchmarks/bench_micro_substrate.py``
times both execution backends on two loops without pytest-benchmark and
records ``results/BENCH_micro.json`` (loop -> backend -> instructions/sec),
the first point of the perf trajectory CI tracks.  ``TIGHT_LOOP`` is
register-only; ``MINIC_LOOP`` has the instruction mix compiled MiniC
actually runs: ``bp``-relative ``ld``/``st`` and ``fld``/``fst`` around
``fmul``/``fadd``.
"""

import json
import platform
import sys
from pathlib import Path
from time import perf_counter

import pytest

from repro.analysis import FunctionTable, profile_program
from repro.core import LETGO_E
from repro.crsim import PAPER_APP_PARAMS, SystemParams, simulate_letgo
from repro.faultinject import InjectionPlan, run_injection
from repro.isa import assemble, disassemble, encode_program, decode_program
from repro.lang import compile_unit
from repro.machine import Process

TIGHT_LOOP = """
.text
.entry main
.func main
main:
    movi r1, #0
    movi r2, #200000
loop:
    addi r1, r1, #1
    slt r3, r1, r2
    bnez r3, loop
    movi r0, #0
    halt
"""


#: Retirements of one TIGHT_LOOP run.
TIGHT_LOOP_INSTRET = 600_004

#: Locals live in the frame, as MiniC keeps them: a counter and a float
#: accumulator reloaded and stored back every iteration.
MINIC_LOOP = """
.text
.entry main
.func main
main:
    movi r1, #0
    movi r2, #100000
    fmovi f1, #1.5
    fmovi f2, #0.25
    st [bp - 8], r1
    fst [bp - 16], f2
loop:
    ld r1, [bp - 8]
    addi r1, r1, #1
    st [bp - 8], r1
    fld f3, [bp - 16]
    fmul f3, f3, f2
    fadd f3, f3, f1
    fst [bp - 16], f3
    slt r3, r1, r2
    bnez r3, loop
    movi r0, #0
    halt
"""

#: loop name -> (source, retirements of one run).
LOOPS = {
    "tight": (TIGHT_LOOP, TIGHT_LOOP_INSTRET),
    "minic": (MINIC_LOOP, 900_008),
}

BACKENDS = ("interpreter", "compiled")


@pytest.mark.parametrize("loop", sorted(LOOPS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_throughput(benchmark, backend, loop):
    source, want = LOOPS[loop]
    program = assemble(source)
    # Warm run: the loop's blocks get hot and compiled; the code lives on
    # the program, so every later Process.load of it reuses the code,
    # exactly as engine shards do.
    Process.load(program, backend=backend).run(10**7)

    def run():
        process = Process.load(program, backend=backend)
        process.run(10**7)
        return process.cpu.instret

    instret = benchmark(run)
    assert instret == want


def test_compile_pennant(benchmark, apps):
    source = apps["pennant"].source
    unit = benchmark(lambda: compile_unit(source, "pennant"))
    assert unit.program.functions


def test_assemble_disassemble_roundtrip(benchmark, apps):
    program = apps["pennant"].program
    text = disassemble(program)
    back = benchmark(lambda: assemble(text))
    assert back.instrs == program.instrs


def test_encode_decode_image(benchmark, apps):
    program = apps["comd"].program
    blob = encode_program(program)
    back = benchmark(lambda: decode_program(blob))
    assert back.checksum() == program.checksum()


def test_loader(benchmark, apps):
    program = apps["lulesh"].program
    process = benchmark(lambda: Process.load(program))
    assert process.cpu.pc == program.entry_pc


def test_profiler_run(benchmark, apps):
    program = apps["pennant"].program
    profile = benchmark.pedantic(
        lambda: profile_program(program), rounds=2, iterations=1
    )
    assert profile.total == apps["pennant"].golden.instret


def test_function_table_build(benchmark, apps):
    program = apps["snap"].program
    table = benchmark(lambda: FunctionTable(program))
    assert len(table) > 3


def test_single_injection_run(benchmark, apps):
    app = apps["pennant"]
    plan = InjectionPlan(dyn_index=20_000, bit=45, reg_choice=0.5)
    result = benchmark.pedantic(
        lambda: run_injection(app, plan, LETGO_E), rounds=3, iterations=1
    )
    assert result.outcome is not None


def test_crsim_one_run(benchmark):
    system = SystemParams(t_chk=120.0, mtbfaults=21600.0)
    month = 30 * 24 * 3600.0
    result = benchmark.pedantic(
        lambda: simulate_letgo(system, PAPER_APP_PARAMS["lulesh"], needed=month, seed=1),
        rounds=3,
        iterations=1,
    )
    assert result.useful >= month


# -- standalone smoke mode ---------------------------------------------------


def _throughput(backend: str, loop: str, repeats: int = 3) -> float:
    """Best-of-*repeats* instructions/sec on one loop (code cache warm)."""
    source, want = LOOPS[loop]
    program = assemble(source)
    Process.load(program, backend=backend).run(10**7)  # warm the code cache
    best = 0.0
    for _ in range(repeats):
        process = Process.load(program, backend=backend)
        start = perf_counter()
        process.run(10**7)
        elapsed = perf_counter() - start
        assert process.cpu.instret == want
        best = max(best, want / elapsed)
    return best


def record_backend_throughput(path: Path | None = None) -> dict:
    """Time both backends on both loops and write ``BENCH_micro.json``."""
    if path is None:
        path = Path(__file__).parent / "results" / "BENCH_micro.json"
    loops = {}
    for loop, (_, instret) in LOOPS.items():
        backends = {
            backend: {"instructions_per_sec": round(_throughput(backend, loop))}
            for backend in BACKENDS
        }
        loops[loop] = {
            "workload_instret": instret,
            "backends": backends,
            "compiled_speedup": round(
                backends["compiled"]["instructions_per_sec"]
                / backends["interpreter"]["instructions_per_sec"],
                2,
            ),
        }
    payload = {
        "benchmark": "substrate throughput: register-only and MiniC-mix loops",
        "python": platform.python_version(),
        "loops": loops,
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


if __name__ == "__main__":
    report = record_backend_throughput()
    failed = False
    for loop, row in report["loops"].items():
        for backend, rate in row["backends"].items():
            print(
                f"{loop:6s} {backend:12s} "
                f"{rate['instructions_per_sec'] / 1e6:6.2f} M instr/s"
            )
        print(f"{loop:6s} compiled speedup: {row['compiled_speedup']:.2f}x")
        if row["compiled_speedup"] < 1.5:
            print(
                f"FAIL: compiled backend below the 1.5x floor on {loop}",
                file=sys.stderr,
            )
            failed = True
    if failed:
        raise SystemExit(1)
