"""Snapshot/restore: bit-exact process state capture."""

import pytest

from repro.checkpoint import restore, snapshot
from repro.errors import SimulationError
from repro.lang import compile_source
from repro.machine import Process


@pytest.fixture(scope="module")
def program():
    return compile_source(
        """
        global float data[16];
        func main() -> int {
            var int i;
            var float s = 0.0;
            var int rep;
            for (rep = 0; rep < 8; rep = rep + 1) {
            for (i = 0; i < 16; i = i + 1) {
                data[i] = float(i) * 1.5;
                s = s + data[i];
                out(s);
            }
            }
            out(s);
            return 0;
        }
        """,
        "snap-test",
    )


def test_restore_resumes_identically(program):
    reference = Process.load(program)
    reference.run(10**6)

    process = Process.load(program)
    process.cpu.run(500)
    snap = snapshot(process)
    # diverge the original, then restore and finish
    process.cpu.iregs[1] = 424242
    restored = restore(program, snap)
    result = restored.run(10**6)
    assert result.reason == "exited"
    assert restored.output == reference.output
    assert restored.cpu.instret == reference.cpu.instret


def test_snapshot_captures_everything(program):
    process = Process.load(program)
    process.cpu.run(300)
    snap = snapshot(process)
    assert snap.pc == process.cpu.pc
    assert snap.instret == 300
    assert snap.iregs == tuple(process.cpu.iregs)
    assert snap.fregs == tuple(process.cpu.fregs)
    assert snap.output == tuple(process.cpu.output)
    assert snap.size_cells > 0


def test_restore_isolates_from_donor(program):
    from repro.isa import DATA_BASE

    process = Process.load(program)
    process.cpu.run(300)
    donor_reg = process.cpu.iregs[2]
    donor_cell = process.memory.read_pattern(DATA_BASE)
    snap = snapshot(process)
    restored = restore(program, snap)
    # mutating the restored process leaves the donor untouched
    restored.cpu.iregs[2] = donor_reg + 1
    restored.memory.write_pattern(DATA_BASE, (donor_cell + 1) & ((1 << 64) - 1))
    assert process.cpu.iregs[2] == donor_reg
    assert process.memory.read_pattern(DATA_BASE) == donor_cell


def test_snapshot_immutable_against_later_writes(program):
    process = Process.load(program)
    process.cpu.run(300)
    snap = snapshot(process)
    before = dict(snap.cells)
    process.cpu.run(500)
    assert snap.cells == before


def test_wrong_program_rejected(program):
    other = compile_source("func main() -> int { return 0; }", "other")
    process = Process.load(program)
    process.cpu.run(10)
    snap = snapshot(process)
    with pytest.raises(SimulationError):
        restore(other, snap)


def test_cannot_snapshot_dead_process(program):
    process = Process.load(program)
    process.run(10**6)
    with pytest.raises(SimulationError):
        snapshot(process)


def test_roundtrip_at_every_phase(program):
    """Snapshot/restore at several points; each resumes to the same end."""
    reference = Process.load(program)
    reference.run(10**6)
    for when in (1, 50, 1000, 2000):
        process = Process.load(program)
        process.cpu.run(when)
        if process.cpu.halted:
            break
        resumed = restore(program, snapshot(process))
        resumed.run(10**6)
        assert resumed.output == reference.output, f"at step {when}"


def test_resume_from_halt_state_reports_clean_halt(program):
    """Regression: HALT used to leave pc past the image, so state captured
    at the halt fetch-faulted with SIGSEGV on resume.  Now pc stays on the
    HALT site and a resumed halt-state re-reports a clean exit."""
    from repro.checkpoint.snapshot import Snapshot
    from repro.isa import Op

    process = Process.load(program)
    process.run(10**6)
    cpu = process.cpu
    assert cpu.halted
    assert program.instrs[cpu.pc].op is Op.HALT
    # snapshot() refuses finished processes by design; capture the halt
    # state directly, as a checkpoint driver racing the final interval
    # boundary would have.
    snap = Snapshot(
        checksum=program.checksum(),
        iregs=tuple(cpu.iregs),
        fregs=tuple(cpu.fregs),
        pc=cpu.pc,
        instret=cpu.instret,
        cells=process.memory.raw_cells(),
        output=tuple(cpu.output),
    )
    resumed = restore(program, snap)
    result = resumed.run(10**6)
    assert result.reason == "exited"          # not a SIGSEGV fetch fault
    assert resumed.cpu.instret == snap.instret + 1  # HALT retired once more
    assert resumed.output == process.output
