"""Dataflow analysis of return-value copies (§5, Algorithm 1 line 5).

Starting from a call site, the analysis follows the propagation of the
function's return value (initially in ``r0``): every ``mov`` of a copy into
a register, a stack slot or a global creates a new copy; redefinitions kill
copies.  Whenever a copy is compared against a literal, the literal is
recorded as *checked*, split into:

* ``chk_eq`` — literals checked by equality (``je``/``jne`` after the
  ``cmp``), as in ``if (retval == -1)``;
* ``chk_ineq`` — literals checked by an ordering relation (``jl``/``jge``/
  ...), as in ``if (retval < 0)``.

Copy sets are propagated around loops until they stop growing, matching the
paper's "iterate through any loops as long as the set of copies increases".
The analysis is intra-procedural: a subsequent call kills the register
copies (the callee clobbers them) but not the stack/global copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.analysis.cfg import BasicBlock, PartialCFG, build_partial_cfg
from repro.isa.binary import BinaryImage
from repro.isa.instructions import GENERAL_REGISTERS, Imm, Instruction, Mem, Opcode, Reg

#: Abstract locations that can hold a copy of the return value.
#: ("reg", name) | ("frame", offset) | ("abs", address)
Location = Tuple[str, Union[str, int]]

_RETURN_LOCATION: Location = ("reg", "r0")


@dataclass(frozen=True)
class CheckSite:
    """One observed comparison of a return-value copy against a literal."""

    compare_address: int
    jump_address: int
    literal: int
    jump_opcode: Opcode


@dataclass
class CheckResult:
    """Literals against which (copies of) the return value are compared."""

    chk_eq: Set[int] = field(default_factory=set)
    chk_ineq: Set[int] = field(default_factory=set)
    #: Locations that held a copy at some point (diagnostics / tests).
    copies_seen: Set[Location] = field(default_factory=set)
    #: Where each check happens (cmp + conditional jump addresses).
    check_sites: List[CheckSite] = field(default_factory=list)
    #: Number of dataflow iterations until the fixpoint was reached.
    iterations: int = 0

    @property
    def checked(self) -> bool:
        return bool(self.chk_eq or self.chk_ineq)

    def add_check_site(self, check: CheckSite) -> None:
        if check not in self.check_sites:
            self.check_sites.append(check)


def _operand_location(operand) -> Optional[Location]:
    """Map an operand to an abstract location (None when untrackable)."""
    if isinstance(operand, Reg):
        return ("reg", operand.name)
    if isinstance(operand, Mem):
        if operand.base is None:
            return ("abs", operand.offset)
        if operand.base == "bp":
            return ("frame", operand.offset)
        # Dynamically addressed memory ([r1], [sp+2], ...) is not tracked.
        return None
    return None


def _transfer_instruction(
    address: int,
    instruction: Instruction,
    copies: Set[Location],
    result: CheckResult,
    pending_compare: List[Tuple[int, int]],
) -> None:
    """Apply one instruction to the copy set, recording checks.

    ``pending_compare`` holds (literal, compare_address) for the most recent
    flag-setting comparison involving a copy, so the conditional jumps that
    follow can classify it as an equality or inequality check.
    """
    opcode = instruction.opcode
    operands = instruction.operands

    if opcode is Opcode.MOV and len(operands) == 2:
        destination = _operand_location(operands[0])
        source = _operand_location(operands[1])
        if source is not None and source in copies:
            if destination is not None:
                copies.add(destination)
                result.copies_seen.add(destination)
        elif destination is not None:
            copies.discard(destination)
        return

    if opcode is Opcode.LEA and operands:
        destination = _operand_location(operands[0])
        if destination is not None:
            copies.discard(destination)
        return

    if opcode is Opcode.POP and operands:
        destination = _operand_location(operands[0])
        if destination is not None:
            copies.discard(destination)
        return

    if opcode in (
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NEG, Opcode.NOT,
    ) and operands:
        destination = _operand_location(operands[0])
        if destination is not None:
            copies.discard(destination)
        return

    if opcode is Opcode.CALL:
        # The callee clobbers the general registers; stack and global copies
        # survive (matching the cdecl-style convention the codegen uses).
        for register in GENERAL_REGISTERS:
            copies.discard(("reg", register))
        return

    if opcode is Opcode.CMP and len(operands) == 2:
        left, right = operands
        left_location = _operand_location(left)
        right_location = _operand_location(right)
        pending_compare.clear()
        if left_location in copies and isinstance(right, Imm):
            pending_compare.append((right.value, address))
        elif right_location in copies and isinstance(left, Imm):
            pending_compare.append((left.value, address))
        return

    if opcode is Opcode.TEST and len(operands) == 2:
        left_location = _operand_location(operands[0])
        right_location = _operand_location(operands[1])
        pending_compare.clear()
        if left_location in copies or right_location in copies:
            # test x, x is the idiomatic compare-against-zero.
            pending_compare.append((0, address))
        return

    if opcode.is_conditional_jump and pending_compare:
        literal, compare_address = pending_compare[0]
        if opcode.is_equality_jump:
            result.chk_eq.add(literal)
        else:
            result.chk_ineq.add(literal)
        result.add_check_site(
            CheckSite(
                compare_address=compare_address,
                jump_address=address,
                literal=literal,
                jump_opcode=opcode,
            )
        )
        return


def _transfer_block(
    block: BasicBlock, in_copies: FrozenSet[Location], result: CheckResult
) -> FrozenSet[Location]:
    copies = set(in_copies)
    pending_compare: List[Tuple[int, int]] = []
    for address, instruction in block.instructions:
        _transfer_instruction(address, instruction, copies, result, pending_compare)
    return frozenset(copies)


def analyze_return_value_checks(
    binary: BinaryImage,
    call_address: int,
    cfg: Optional[PartialCFG] = None,
    max_instructions: int = 100,
) -> CheckResult:
    """Run the dataflow analysis for the call site at *call_address*."""
    if cfg is None:
        cfg = build_partial_cfg(binary, call_address + 1, max_instructions=max_instructions)
    result = CheckResult()
    result.copies_seen.add(_RETURN_LOCATION)
    if not cfg.blocks:
        return result

    in_states: Dict[int, FrozenSet[Location]] = {start: frozenset() for start in cfg.blocks}
    in_states[cfg.entry] = frozenset({_RETURN_LOCATION})
    out_states: Dict[int, FrozenSet[Location]] = {}
    # Block order and predecessor lists are fixed for the CFG: derive them
    # once instead of per block per iteration (cfg.predecessors is a scan
    # over every block).
    order = sorted(cfg.blocks)
    predecessors: Dict[int, List[int]] = {start: [] for start in order}
    for start in order:
        for successor in cfg.blocks[start].successors:
            if successor in predecessors:
                predecessors[successor].append(start)
    empty: FrozenSet[Location] = frozenset()

    # Iterate to a fixpoint; copy sets only grow at merge points, so this
    # terminates quickly (the paper observes a few iterations in practice).
    changed = True
    while changed:
        changed = False
        result.iterations += 1
        for start in order:
            block = cfg.blocks[start]
            merged: Set[Location] = set(in_states[start])
            for predecessor in predecessors[start]:
                merged.update(out_states.get(predecessor, empty))
            if start == cfg.entry:
                merged.add(_RETURN_LOCATION)
            merged_frozen = frozenset(merged)
            if merged_frozen != in_states[start]:
                in_states[start] = merged_frozen
                changed = True
            new_out = _transfer_block(block, merged_frozen, result)
            if out_states.get(start) != new_out:
                out_states[start] = new_out
                changed = True
        if result.iterations > 50:  # safety net; never hit in practice
            break
    return result


__all__ = ["CheckResult", "CheckSite", "Location", "analyze_return_value_checks"]
