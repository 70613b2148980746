"""Unit tests for the register-bytecode layer: codegen layout, constant
interning, artifact round-trips, and the compiled VM's observable
contract (budgets, traps, tracing, line costs) against the tree-walk
oracle."""

import io
import json
import re
from array import array
from pathlib import Path

import pytest

from repro.compiler import BuildMode, compile_baseline, compile_carmot
from repro.errors import BudgetExceeded, TrapError, VMError
from repro.resilience.budgets import ExecutionBudgets
from repro.vm.bytecode import (
    OP_PHI,
    OPCODE_NAMES,
    BytecodeError,
    BytecodeFunction,
    BytecodeModule,
    BytecodeSerializeError,
    bytecode_digest,
    deserialize_bytecode,
    disassemble,
    instr_width,
    serialize_bytecode,
)
from repro.parallel.profile import ProfilingHooks, profile_execution
from repro.vm import BytecodeInterpreter, run_module
from repro.vm.codegen import lower_module
from tests.helpers.store_entries import rewrite_entry
from tests.helpers.treewalk import Interpreter, run_treewalk

#: (engine name, run_module-shaped runner): the oracle, then the VM.
RUNNERS = (("treewalk", run_treewalk), ("bytecode", run_module))

REPO = Path(__file__).resolve().parents[2]

SCALAR = """
int main() {
    int x = 6;
    float y = 2.5;
    int i = 0;
    int acc = 0;
    while (i < 10) {
        acc = acc + x * i;
        i = i + 1;
    }
    print_int(acc);
    return acc % 100;
}
"""


#: Calls, a loop with phis, loads, stores and a division, in a ROI.
BUDGETED = """
int g[4];
int sq(int v) { return v * v; }
int main() {
    int s = 0;
    for (int i = 0; i < 6; i = i + 1) {
        #pragma carmot roi abstraction(parallel_for)
        {
            g[i % 4] = g[i % 4] + sq(i);
            s = s + g[i % 4] / (i + 1);
        }
    }
    print_int(s);
    return 0;
}
"""


def _example(name):
    return (REPO / "examples" / f"{name}.mc").read_text()


# -- codegen layout -----------------------------------------------------------


class TestCodegenLayout:
    @pytest.mark.parametrize(
        "name", ["roi_loop", "stencil_calls", "anneal_stats"])
    def test_code_streams_decode_cleanly(self, name):
        """Walking every function by instr_width must land exactly on the
        end of the stream, visiting only known opcodes with sane operand
        indices — the structural invariant every other test builds on."""
        program = compile_carmot(_example(name), name=name)
        bc = lower_module(program.module)
        for fn in bc.functions.values():
            pc = 0
            code = fn.code
            while pc < len(code):
                op = code[pc]
                assert op in OPCODE_NAMES, f"unknown opcode {op} at {pc}"
                width = instr_width(code, pc)
                assert width >= 1
                assert pc + width <= len(code)
                pc += width
            assert pc == len(code)
            assert fn.n_regs >= fn.arg_base + fn.n_args
            assert 0 <= fn.entry_pc <= len(code)

    def test_branch_targets_are_instruction_starts(self):
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        fn = bc.functions["main"]
        starts = set()
        pc = 0
        while pc < len(fn.code):
            starts.add(pc)
            pc += instr_width(fn.code, pc)
        pc = 0
        from repro.vm.bytecode import OP_BR, OP_JUMP
        while pc < len(fn.code):
            op = fn.code[pc]
            if op == OP_JUMP:
                assert fn.code[pc + 1] in starts
            elif op == OP_BR:
                assert fn.code[pc + 2] in starts
                assert fn.code[pc + 3] in starts
            elif op == OP_PHI:
                assert fn.code[pc + 2] in starts
            pc += instr_width(fn.code, pc)

    def test_constants_distinguish_int_from_float(self):
        """1 and 1.0 are different runtime values (int vs float registers)
        and must not collapse into one constant-pool slot."""
        source = """
        int main() {
            int a = 1;
            float b = 1.0;
            print_int(a);
            print_float(b);
            return 0;
        }
        """
        program = compile_baseline(source)
        bc = lower_module(program.module)
        consts = bc.functions["main"].consts
        values = [c[1] for c in consts if c[0] == "v"]
        # 1 == 1.0 in Python, so check by type, not membership.
        assert any(type(v) is int and v == 1 for v in values)
        assert any(type(v) is float and v == 1.0 for v in values)


# -- serialization ------------------------------------------------------------


class TestSerialization:
    def test_round_trip_is_byte_stable(self):
        program = compile_carmot(_example("roi_loop"), name="roi_loop")
        payload = serialize_bytecode(lower_module(program.module))
        restored = deserialize_bytecode(payload)
        again = serialize_bytecode(restored)
        assert payload == again
        assert bytecode_digest(restored) == \
            bytecode_digest(deserialize_bytecode(again))

    def test_deserialized_bytecode_runs_identically(self):
        program = compile_baseline(SCALAR)
        direct = lower_module(program.module)
        restored = deserialize_bytecode(serialize_bytecode(direct))
        restored.rebind_vars(program.module)
        a = run_module(program.module, bytecode=direct)
        b = run_module(program.module, bytecode=restored)
        assert (a.output, a.cost, a.instructions, a.access_counts) == \
            (b.output, b.cost, b.instructions, b.access_counts)

    def test_garbage_payload_is_a_serialize_error(self):
        for junk in ["not json", "[]", json.dumps({"format": "other"}),
                     json.dumps({"format": "repro-bytecode", "schema": 999})]:
            with pytest.raises(BytecodeSerializeError):
                deserialize_bytecode(junk)

    def test_truncated_document_is_a_serialize_error(self):
        program = compile_baseline(SCALAR)
        payload = serialize_bytecode(lower_module(program.module))
        doc = json.loads(payload)
        del doc["functions"]
        with pytest.raises(BytecodeSerializeError):
            deserialize_bytecode(json.dumps(doc))


# -- dispatch-loop contract ---------------------------------------------------


class TestDispatchContract:
    def test_budget_trips_at_the_same_virtual_step(self):
        program = compile_baseline(SCALAR)
        budgets = ExecutionBudgets(max_steps=25, max_heap_bytes=0,
                                   max_recursion_depth=64)
        outcomes = {}
        for vm, run in RUNNERS:
            try:
                run(program.module, budgets=budgets)
                outcomes[vm] = None
            except BudgetExceeded as err:
                outcomes[vm] = str(err)
        assert outcomes["treewalk"] is not None
        assert outcomes["treewalk"] == outcomes["bytecode"]

    @pytest.mark.parametrize("compile_", [compile_baseline, compile_carmot])
    def test_fast_and_counted_forms_trip_at_every_budget(self, compile_):
        """The fast form counts per segment and hands off to the counted
        form near the budget; a line-traced run uses the counted form
        throughout.  At every step budget both leave the same outcome,
        counters and access counts."""
        program = compile_(BUDGETED, name="budgeted")
        bc = lower_module(program.module)

        def outcome(steps, counted):
            hooks = (None if program.mode is BuildMode.BASELINE
                     else program.make_runtime()[1])
            interp = BytecodeInterpreter(bc, hooks, budgets=ExecutionBudgets(
                max_steps=steps, max_heap_bytes=0, max_recursion_depth=0))
            if counted:
                interp.enable_line_tracing()
            try:
                result = interp.run().output
            except BudgetExceeded as error:
                result = str(error)
            return (result, interp.instructions, interp.cost,
                    interp.access_counts)

        unbudgeted = outcome(0, False)
        assert unbudgeted[0] == run_treewalk(program.module).output == ["10"]
        total = unbudgeted[1]
        for steps in range(1, total + 2):
            assert outcome(steps, False) == outcome(steps, True), steps

    def test_trap_messages_match_the_tree_walk(self):
        source = """
        int main() {
            int d = 0;
            return 10 / d;
        }
        """
        program = compile_baseline(source)
        messages = {}
        for vm, run in RUNNERS:
            with pytest.raises(TrapError) as excinfo:
                run(program.module)
            messages[vm] = str(excinfo.value)
        assert messages["treewalk"] == messages["bytecode"]
        assert "division by zero" in messages["treewalk"]

    def test_missing_entry_raises_vm_error(self):
        program = compile_baseline(SCALAR)
        with pytest.raises(VMError, match="no function named"):
            run_module(program.module, entry="nope")

    @pytest.mark.parametrize("code, message", [
        ([999], "unknown opcode 999 at main+0"),
        ([40, 0, 0, 0, 0, 0], "unknown opcode 40 at main+0"),  # was lt.br
        ([12, 0, -3], "negative count at main+0"),  # would be 0 words wide
        ([13], "truncated instruction at main+0"),
        ([13, -1, 9, 0, -1, 0], "truncated instruction at main+2"),
        ([13, 1], "register slot 1 out of range (1 registers) at main+0"),
        ([5, -2, 4, 4, 13, -1],
         "register slot -2 out of range (1 registers) at main+0"),
        # A probe.access with its seven operands, then one more word: a
        # bytecode v3 stream's site word, now read as an opcode.
        ([17, 0, 0, 8, -1, -1, 0, -1, 0], "unknown opcode 0 at main+8"),
        ([18, 0, 0, 8, -1, -1, 0, -1, -1, 0],
         "unknown opcode 0 at main+9"),
        # Table indices: var and loc take -1 for None, nothing lower.
        ([17, 0, 0, 8, 5, -1, 0, -1],
         "var index 5 out of range (0 entries) at main+0"),
        ([8, 0, 8, -2, -1], "var index -2 out of range (0 entries) at main+0"),
        ([19, 0, 0, 3], "loc index 3 out of range (0 entries) at main+0"),
        ([12, 1, 0], "string index 1 out of range (1 entries) at main+0"),
        ([12, -1, 0], "string index -1 out of range (1 entries) at main+0"),
        ([9, 1, -1, 0, 0],
         "function index 1 out of range (1 entries) at main+0"),
        ([10, 0, -1, 0, -1, 0],
         "builtin index 0 out of range (0 entries) at main+0"),
        # Type words: load/store ``ty`` and cast ``to`` are TY codes.
        ([1, 0, 0, 77, 0], "unknown type code 77 at main+0"),
        ([2, 0, 0, 3, 0], "unknown type code 3 at main+0"),
        ([7, 0, 0, 77], "unknown type code 77 at main+0"),
        ([7, 0, 0, -1], "unknown type code -1 at main+0"),
    ])
    def test_malformed_code_is_refused_at_link(self, code, message):
        bc = BytecodeModule("bad")
        bc.functions["main"] = BytecodeFunction(
            "main", array("q", code), [], n_args=0, n_regs=1, entry_pc=0,
            instrumented=False)
        bc.function_order.append("main")
        bc.string_table.append("IO")  # the probe.classify's states
        with pytest.raises(BytecodeError, match=f"^{re.escape(message)}$"):
            BytecodeInterpreter(bc)

    @pytest.mark.parametrize("code, message", [
        ([14, 1, 13, -1], "roi 1 not in the module (1 ROIs) at main+0"),
        ([15, 9999, 13, -1], "roi 9999 not in the module (1 ROIs) at main+0"),
        ([16, -1, 13, -1], "roi -1 not in the module (1 ROIs) at main+0"),
        ([18, 0, 0, 8, -1, -1, 0, -1, 5, 13, -1],
         "roi 5 not in the module (1 ROIs) at main+0"),
        ([14, 0, 18, 0, 0, 8, -1, -1, 0, -1, -1, 13, -1], None),
    ])
    def test_roi_operands_are_checked_against_the_module(self, code,
                                                         message):
        """ROI ids index the IR module's table, which decode() does not
        see: the check beside ``rebind_vars`` holds them to it; -1 is a
        probe.classify's "no ROI"."""
        from repro.ir.module import Module
        from repro.lang.tokens import SourcePos

        module = Module("m")
        module.new_roi("r0", None, "main", SourcePos("m.mc", 1, 1))
        bc = BytecodeModule("m")
        bc.functions["main"] = BytecodeFunction(
            "main", array("q", code), [], n_args=0, n_regs=1, entry_pc=0,
            instrumented=False)
        bc.function_order.append("main")
        bc.string_table.append("IO")  # the probe.classify's states
        if message is None:
            bc.check_rois(module)
            return
        with pytest.raises(BytecodeSerializeError,
                           match=f"^{re.escape(message)}$"):
            bc.check_rois(module)

    def test_there_is_no_engine_choice(self):
        program = compile_baseline(SCALAR)
        with pytest.raises(TypeError, match="vm"):
            run_module(program.module, vm="ir")

    def test_trace_streams_one_line_per_dispatch(self):
        program = compile_baseline(SCALAR)
        stream = io.StringIO()
        run_module(program.module, trace_stream=stream)
        lines = stream.getvalue().splitlines()
        assert lines, "no trace emitted"
        assert all(line.startswith("trace: [") for line in lines)
        assert any("main+" in line for line in lines)

    def test_ir_walk_trace_names_blocks(self):
        program = compile_baseline(SCALAR)
        stream = io.StringIO()
        run_treewalk(program.module, trace_stream=stream)
        lines = stream.getvalue().splitlines()
        assert lines and all(line.startswith("trace: [") for line in lines)
        assert any("main:" in line for line in lines)


# -- compiled forms -----------------------------------------------------------


class TestCompiledForms:
    def test_running_is_observationally_invisible(self):
        """Serialized payload and disassembly are byte-identical before
        and after a run that compiled the functions; the compiled forms
        never reach a serialized artifact."""
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        payload = serialize_bytecode(bc)
        listing = disassemble(bc)
        run_module(program.module, bytecode=bc)
        assert bc.functions["main"].compiled
        assert serialize_bytecode(bc) == payload
        assert disassemble(bc) == listing
        restored = deserialize_bytecode(payload)
        assert not any(fn.compiled for fn in restored.functions.values())


# -- per-source-line costs (the Figure 6 profiler) ----------------------------

#: Adjacent instructions on two source lines: a compare and its branch
#: (7/6), a multiply and its store (9/8), a load and its add (11/10).
CROSS_LINE = """
int g[8];
int main() {
    int i = 0;
    int acc = 0;
    while (i
           < 8) {
        g[i] = i
            * 3;
        acc = acc +
              g[i];
        i = i + 1;
    }
    print_int(acc);
    return 0;
}
"""


def _line_costs(program, vm):
    """Line costs of one traced run on either engine, with fresh hooks
    (the CARMOT runtime's for instrumented builds, so hook costs count)."""
    hooks = (ProfilingHooks(program.module)
             if program.mode is BuildMode.BASELINE
             else program.make_runtime()[1])
    if vm == "treewalk":
        interp = Interpreter(program.module, hooks)
        interp.enable_line_tracing()
        interp.run()
        return interp.line_costs
    interp = BytecodeInterpreter(lower_module(program.module), hooks)
    costs = interp.enable_line_tracing()
    interp.run()
    return costs


class TestLineTracer:
    @pytest.mark.parametrize("compile_", [compile_baseline, compile_carmot])
    @pytest.mark.parametrize("source", [SCALAR, CROSS_LINE])
    def test_line_costs_match_the_oracle(self, compile_, source):
        program = compile_(source)
        oracle = _line_costs(program, "treewalk")
        assert oracle
        assert _line_costs(program, "bytecode") == oracle

    def test_traced_and_untraced_runs_share_one_module(self):
        """A line-traced run uses the counted form and an untraced run
        the fast form of the same functions; each matches the oracle
        whichever ran first."""
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        oracle = run_treewalk(program.module)
        want = (oracle.output, oracle.cost, oracle.instructions)
        for traced in (False, True, False):
            interp = BytecodeInterpreter(bc, ProfilingHooks(program.module))
            if traced:
                interp.enable_line_tracing()
            result = interp.run()
            assert (result.output, result.cost, result.instructions) == want
        assert set(bc.functions["main"].compiled) == {"fast", "counted"}

    def test_profile_execution_totals_match_the_traced_run(self):
        program = compile_baseline(SCALAR)
        profile = profile_execution(program.module)
        assert profile.total_cost == profile.result.cost
        # Instructions without a source loc charge no line.
        assert 0 < sum(profile.line_costs.values()) <= profile.result.cost
        assert profile_execution(program.module,
                                 trace_lines=False).line_costs == {}

    def test_deserialized_bytecode_has_no_line_table(self):
        program = compile_baseline(SCALAR)
        restored = deserialize_bytecode(
            serialize_bytecode(lower_module(program.module)))
        with pytest.raises(VMError, match="no line table"):
            BytecodeInterpreter(restored).enable_line_tracing()

    def test_line_tracing_and_trace_stream_share_one_slot(self):
        program = compile_baseline(SCALAR)
        interp = BytecodeInterpreter(lower_module(program.module),
                                     trace_stream=io.StringIO())
        with pytest.raises(VMError, match="one trace slot"):
            interp.enable_line_tracing()


# -- session artifact ---------------------------------------------------------


class TestBytecodeArtifact:
    def test_codegen_stage_stores_a_bytecode_kind(self, tmp_path):
        from repro.session import Session

        session = Session(cache_dir=str(tmp_path))
        session.profile(_example("roi_loop"), "carmot", name="roi_loop")
        kinds = session.store.stats().by_kind
        assert kinds.get("bytecode") == 1

    def test_corrupt_bytecode_artifact_recomputes(self, tmp_path):
        from repro.session import Session, codegen_key

        session = Session(cache_dir=str(tmp_path))
        cold = session.profile(_example("roi_loop"), "carmot",
                               name="roi_loop")
        compile_result = session.compile(
            _example("roi_loop"), "carmot", name="roi_loop")
        key = codegen_key(compile_result.ir_digest)
        rewrite_entry(session.store._entry_path(key), "garbage",
                      rehash=True)
        warm = session.profile(_example("roi_loop"), "carmot",
                               name="roi_loop")
        assert warm.stages["codegen"] == "miss"
        assert warm.payload == cold.payload
