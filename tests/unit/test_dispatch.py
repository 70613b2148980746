"""Dispatch coverage of the bytecode engine.

``BytecodeInterpreter._execute`` runs the hot opcodes in an inline
``if``/``elif`` chain, ordered hottest first, and sends the rest through
a dense handler table.  Reordering the chain must never drop an opcode,
handle one twice, or put one behind a guard it cannot pass, and every
handler reads its operands from the one instruction tuple the loop head
fetched.
"""

import ast
import inspect
import textwrap

from repro.compiler import compile_carmot
from repro.vm import bcinterp, bytecode
from repro.vm.bcinterp import BytecodeInterpreter
from repro.vm.bytecode import OPCODE_NAMES
from repro.vm.codegen import lower_module


def _opcode(node):
    assert isinstance(node, ast.Name), ast.dump(node)
    return getattr(bytecode, node.id)


def _chain(node):
    """Walk one ``if``/``elif`` chain: yields ``(test, body)`` pairs and
    finally ``(None, else_body)``."""
    while True:
        yield node.test, node.body
        if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
            node = node.orelse[0]
        else:
            yield None, node.orelse
            return


def _is_op_test(test, comparator):
    return (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "op"
            and len(test.ops) == 1 and isinstance(test.ops[0], comparator))


def _execute_tree():
    source = textwrap.dedent(inspect.getsource(BytecodeInterpreter._execute))
    return ast.parse(source)


def _inline_opcodes():
    """Map each inline-handled opcode to the range guards it sits under."""
    tree = _execute_tree()
    top = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.If) and _is_op_test(node.test, ast.GtE)
    )
    handled = []
    for test, body in _chain(top):
        if test is None:
            continue
        if _is_op_test(test, ast.Eq):
            handled.append((_opcode(test.comparators[0]), None))
            continue
        # A range guard (``op >= OP_ADD`` / ``op <= OP_PHI``) opens a
        # sub-chain of equality tests.
        assert _is_op_test(test, (ast.GtE, ast.LtE)), ast.dump(test)
        guard = (type(test.ops[0]), _opcode(test.comparators[0]))
        (inner,) = body
        for sub_test, _ in _chain(inner):
            if sub_test is not None:
                assert _is_op_test(sub_test, ast.Eq), ast.dump(sub_test)
                handled.append((_opcode(sub_test.comparators[0]), guard))
    return handled


def _cold_handlers():
    program = compile_carmot("int main() { return 0; }", name="dispatch")
    vm = BytecodeInterpreter(lower_module(program.module))
    return [(op, handler) for op, handler in enumerate(vm._cold_table)
            if handler is not None]


def _cold_opcodes():
    return [op for op, _ in _cold_handlers()]


def test_every_opcode_is_handled_exactly_once():
    inline = [op for op, _ in _inline_opcodes()]
    cold = _cold_opcodes()
    handled = inline + cold
    assert len(handled) == len(set(handled)), "an opcode is handled twice"
    assert set(handled) == set(OPCODE_NAMES)


def test_every_inline_opcode_passes_its_guard():
    guards = [guard for _, guard in _inline_opcodes() if guard is not None]
    ge_bound = next(bound for kind, bound in guards if kind is ast.GtE)
    le_bound = next(bound for kind, bound in guards if kind is ast.LtE)
    for op, guard in _inline_opcodes():
        if guard is None:
            # Reached only after both range guards failed.
            assert le_bound < op < ge_bound, OPCODE_NAMES[op]
        elif guard[0] is ast.GtE:
            assert op >= guard[1], OPCODE_NAMES[op]
        else:
            assert op <= guard[1] and not op >= ge_bound, OPCODE_NAMES[op]


def test_hot_chains_lead_with_the_hottest_opcodes():
    # The order is fixed by two measured dynamic opcode mixes (DESIGN.md
    # §12): loop induction and control lead the high chain, address
    # arithmetic the low chain, and the probed load/store sit in the
    # first half of the high chain, not at its end.
    inline = _inline_opcodes()
    high = [op for op, guard in inline
            if guard is not None and guard[0] is ast.GtE]
    low = [op for op, guard in inline
           if guard is not None and guard[0] is ast.LtE]
    assert high[:4] == [bcinterp.OP_ADD_QI, bcinterp.OP_JUMP_PHI,
                        bcinterp.OP_MUL_QI, bcinterp.OP_LT_BR_QI]
    assert high.index(bcinterp.OP_PROBE_STORE) < len(high) // 2
    assert low[0] == bcinterp.OP_ADDR


def test_each_dispatch_decodes_one_instruction_tuple():
    # The loop head fetches the instruction's tuple once; handlers
    # unpack operands from it and never read operand words at
    # ``code[pc + k]``.  The only other read of the stream is
    # ``jump.phi`` fetching its target trampoline's tuple.
    tree = _execute_tree()
    loop = next(node for node in ast.walk(tree)
                if isinstance(node, ast.While))
    assert [ast.unparse(stmt) for stmt in loop.body[:2]] == [
        "ins = code[pc]", "op = ins[0]"]
    reads = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Name) and node.value.id == "code"]
    assert sorted(set(reads)) == ["code[ins[1]]", "code[pc]"]
    for op, handler in _cold_handlers():
        params = list(inspect.signature(handler).parameters)
        assert params[:2] == ["pc", "ins"], OPCODE_NAMES[op]
