"""Unit tests for the ISA and assembler."""

import pytest

from repro.errors import ConfigError
from repro.hw.isa import (
    Add,
    Addr,
    Beq,
    Bne,
    CompareExchange,
    Halt,
    Jump,
    Label,
    Load,
    Mov,
    Program,
    Store,
    assemble,
    count_memory_accesses,
)


def test_assemble_strips_labels():
    program = assemble([Label("top"), Mov("t0", 1), Halt()])
    assert len(program) == 2
    assert program.target("top") == 0


def test_label_points_at_next_instruction():
    program = assemble([Mov("t0", 1), Label("mid"), Halt()])
    assert program.target("mid") == 1


def test_duplicate_label_rejected():
    with pytest.raises(ConfigError):
        assemble([Label("x"), Label("x")])


def test_dangling_branch_rejected():
    with pytest.raises(ConfigError):
        assemble([Beq("t0", 0, "nowhere")])


def test_unknown_register_rejected():
    with pytest.raises(ConfigError):
        assemble([Mov("r99", 1)])


def test_unknown_base_register_rejected():
    with pytest.raises(ConfigError):
        Addr("bogus", 0)


def test_absolute_addr_repr():
    assert "0x1000" in repr(Addr(None, 0x1000))


def test_based_addr_repr():
    text = repr(Addr("a0", 8))
    assert "a0" in text


def test_unknown_target_lookup_raises():
    program = assemble([Halt()], name="p")
    with pytest.raises(ConfigError):
        program.target("missing")


def test_count_memory_accesses():
    program = assemble([
        Load("t0", Addr(None, 0)),
        Store(Addr(None, 8), 1),
        CompareExchange("t1", Addr(None, 16), 2),
        Mov("t2", 3),
        Add("t3", "t2", 1),
        Halt(),
    ])
    assert count_memory_accesses(program) == 3


def test_jump_target_validated():
    program = assemble([Jump("end"), Mov("t0", 1), Label("end"), Halt()])
    assert program.target("end") == 2


def test_program_len():
    assert len(Program([Halt()], {})) == 1


@pytest.mark.parametrize("instr", [
    Load("r1", Addr(None, 0)),
    Store(Addr(None, 0), "r1"),
    CompareExchange("r1", Addr(None, 0), 1),
    CompareExchange("t0", Addr(None, 0), "r1"),
    Mov("t0", "r1"),
    Add("t0", "r1", 1),
    Add("t0", 1, "r1"),
    Beq("r1", 0, "top"),
    Bne(0, "r1", "top"),
], ids=repr)
def test_unknown_register_rejected_in_every_operand(instr):
    with pytest.raises(ConfigError, match=r"\[0\]: unknown register 'r1'"):
        assemble([Label("top"), instr], name="p")


def test_unknown_base_register_rejected_at_assembly():
    # Addr validates its base on construction; assemble checks it again
    # for an address built around that check.
    addr = Addr(None, 0)
    object.__setattr__(addr, "base", "r1")
    with pytest.raises(ConfigError, match="unknown register 'r1'"):
        assemble([Load("t0", addr)])


def test_immediate_operands_need_no_register_name():
    program = assemble([Label("top"), Store(Addr("a0", 8), 7),
                        Add("t0", 1, 2), Beq(0, 0, "top")])
    assert len(program) == 3
