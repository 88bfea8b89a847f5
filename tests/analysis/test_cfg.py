"""CFG construction: leaders, edges, reachability."""

from repro.analysis import build_cfg, function_cfg, leaders, reachable_blocks
from repro.isa import Instr, Op, Program


def straight_line():
    return Program(
        instrs=[
            Instr(Op.MOVI, rd=1, imm=1),
            Instr(Op.ADDI, rd=1, ra=1, imm=1),
            Instr(Op.HALT),
        ],
        functions={"main": 0},
    )


def test_straight_line_single_block():
    cfg = build_cfg(straight_line())
    assert len(cfg.blocks) == 1
    assert len(cfg.edges) == 0


def branchy():
    return Program(
        instrs=[
            Instr(Op.MOVI, rd=1, imm=3),      # 0
            Instr(Op.SUBI, rd=1, ra=1, imm=1),  # 1: loop head
            Instr(Op.BNEZ, ra=1, imm=1),      # 2
            Instr(Op.HALT),                   # 3
        ],
        functions={"main": 0},
    )


def test_leaders_branchy():
    assert leaders(branchy()) == [0, 1, 3]


def test_edges_branchy():
    cfg = build_cfg(branchy())
    assert set(cfg.edges) == {(0, 1), (1, 1), (1, 3)}
    assert cfg.edges[1, 1] == "taken"
    assert cfg.edges[1, 3] == "fallthrough"


def test_call_gets_return_edge():
    program = Program(
        instrs=[
            Instr(Op.CALL, imm=2),  # 0
            Instr(Op.HALT),         # 1
            Instr(Op.RET),          # 2
        ],
        functions={"main": 0, "f": 2},
    )
    cfg = build_cfg(program)
    assert (0, 1) in cfg.edges
    assert cfg.edges[0, 1] == "call-return"
    # RET has no static successor
    assert [dst for src, dst in cfg.edges if src == 2] == []


def test_reachable_blocks_include_callee():
    program = Program(
        instrs=[
            Instr(Op.CALL, imm=3),
            Instr(Op.HALT),
            Instr(Op.NOP),   # dead code
            Instr(Op.RET),   # callee
        ],
        functions={"main": 0, "f": 3},
    )
    reach = reachable_blocks(program)
    assert 0 in reach and 3 in reach
    assert 1 in reach


def test_function_cfg_restricted(demo_unit):
    sub = function_cfg(demo_unit.program, "fib")
    table_start = demo_unit.program.functions["fib"]
    for pc in sub.blocks:
        assert pc >= table_start


def test_demo_cfg_blocks_partition(demo_program):
    cfg = build_cfg(demo_program)
    covered = set()
    for pc, block in cfg.blocks.items():
        assert block.start == pc
        span = set(range(block.start, block.end))
        assert not (span & covered)  # disjoint
        covered |= span
    assert covered == set(range(len(demo_program.instrs)))


def test_apps_cfgs_build(suite):
    for app in suite.values():
        cfg = build_cfg(app.program)
        assert len(cfg.blocks) > 10
        reach = reachable_blocks(app.program)
        # all functions are live in the apps
        for name, pc in app.program.functions.items():
            assert pc in reach, f"{app.name}:{name} unreachable"
