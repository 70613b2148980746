"""Structure of the compiled form of the bytecode engine.

Each MiniC function compiles, on first entry, to one Python function.
Its generator must handle every canonical opcode, keep block dispatch
shallow however many blocks a function has, and follow the memory rules:
compile only what runs, keep no source text, register nothing in
``linecache``, give generated code globals that hold neither the
interpreter nor the module, and leave nothing of a finished run that
only the cycle collector could free.
"""

import ast
import gc
import inspect
import linecache
import math
import re
import textwrap
import weakref

import pytest

from repro.compiler import compile_baseline, compile_carmot
from repro.vm import bcinterp, bytecode
from repro.vm.bcinterp import BytecodeInterpreter, _Source
from repro.vm.bytecode import OPCODE_NAMES, BytecodeFunction, BytecodeModule
from repro.vm.codegen import lower_module

TWO_FUNCTIONS = """
int used(int x) { return x + 1; }
int unused(int x) { return x * 2; }
int main() { print_int(used(4)); return 0; }
"""


def _if_depth(node, depth=0):
    """Deepest nesting of ``if`` statements under ``node``."""
    here = depth + isinstance(node, ast.If)
    return max([here] + [_if_depth(child, here)
                         for child in ast.iter_child_nodes(node)])


def _source(program_source, name, counted=False, compile_=compile_baseline):
    bc = lower_module(compile_(program_source).module)
    vm = BytecodeInterpreter(bc)
    index = bc.function_order.index(name)
    text, consts = _Source(vm, bc.functions[name], index, counted).build()
    return text, consts


def test_every_opcode_has_a_generator():
    """``_Source._op`` names every canonical opcode (the binops through
    their range)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(bcinterp._Source._op)))
    named = {getattr(bytecode, node.id) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id.startswith("OP_")}
    handled = named | set(range(bytecode.OP_ADD, bytecode.OP_SHR + 1))
    assert set(OPCODE_NAMES) <= handled


def test_block_dispatch_nests_logarithmically():
    blocks = 400
    body = "".join(f"if (x > {i}) {{ y = y + 1; }}\n" for i in range(blocks))
    source = ("int count(int x) { int y = 0;\n" + body + "return y; }\n"
              "int main() { print_int(count(7)); return 0; }")
    for counted in (False, True):
        text, _ = _source(source, "count", counted)
        depth = _if_depth(ast.parse(text))
        assert depth <= 2 * math.log2(3 * blocks) + 4, depth


def test_functions_that_never_run_are_never_compiled():
    bc = lower_module(compile_baseline(TWO_FUNCTIONS).module)
    assert BytecodeInterpreter(bc).run().output == ["5"]
    assert set(bc.functions["used"].compiled) == {"fast"}
    assert set(bc.functions["main"].compiled) == {"fast"}
    assert not bc.functions["unused"].compiled


def test_no_source_kept_and_nothing_in_linecache():
    before = set(linecache.cache)
    bc = lower_module(compile_carmot(TWO_FUNCTIONS).module)
    BytecodeInterpreter(bc).run()
    assert set(linecache.cache) == before
    for fn in bc.functions.values():
        for _, factory, consts in fn.compiled.values():
            assert factory.__code__.co_filename == "<bytecode>"
            assert not any(isinstance(value, str) and "def " in value
                           for value in consts)


def test_generated_code_holds_no_interpreter_or_module():
    bc = lower_module(compile_carmot(TWO_FUNCTIONS).module)
    BytecodeInterpreter(bc).run()
    forbidden = (BytecodeInterpreter, BytecodeModule, BytecodeFunction)
    for fn in bc.functions.values():
        for _, factory, consts in fn.compiled.values():
            assert factory.__globals__ is bcinterp._GEN_GLOBALS
            values = list(factory.__globals__.values()) + list(consts)
            assert not any(isinstance(value, forbidden) for value in values)


def test_a_compare_only_its_branch_reads_writes_no_result():
    source = """
    int main() {
        int i = 0;
        int s = 0;
        while (i < 10) { s = s + i; i = i + 1; }
        print_int(s);
        return 0;
    }
    """
    text, _ = _source(source, "main")
    assert not re.search(r"\br\d+ = [01]$", text, re.M)


@pytest.mark.parametrize("compile_", [compile_baseline, compile_carmot])
def test_a_finished_run_is_freed_by_reference_counting(compile_,
                                                       monkeypatch):
    program = compile_(TWO_FUNCTIONS)
    program.bytecode = lower_module(program.module)
    interpreters = []
    real_run = BytecodeInterpreter.run

    def run(self, *args, **kwargs):
        interpreters.append(weakref.ref(self))
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(BytecodeInterpreter, "run", run)
    module = weakref.ref(program.bytecode)
    gc.collect()
    gc.disable()
    try:
        outcome = program.run()
        assert outcome[0].output == ["5"]
        del outcome
        program.bytecode = None
        assert interpreters and interpreters[0]() is None
        assert module() is None
    finally:
        gc.enable()
