"""Unit tests for the register-bytecode layer: codegen layout, constant
interning, artifact round-trips, and the dispatch loop's observable
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
    QUICKENED_OPCODES,
    BytecodeError,
    BytecodeFunction,
    BytecodeModule,
    BytecodeSerializeError,
    bytecode_digest,
    dequicken_module,
    deserialize_bytecode,
    disassemble,
    execution_stream,
    fused_site_counts,
    instr_width,
    quickened_op_count,
    serialize_bytecode,
)
from repro.parallel.profile import ProfilingHooks, profile_execution
from repro.vm import BytecodeInterpreter, run_module
from repro.vm.codegen import lower_module
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
        ([13], "truncated instruction at main+0"),
        ([13, -1, 9, 0, -1, 0], "truncated instruction at main+2"),
    ])
    def test_malformed_code_is_refused_at_link(self, code, message):
        bc = BytecodeModule("bad")
        bc.functions["main"] = BytecodeFunction(
            "main", array("q", code), [], n_args=0, n_regs=1, entry_pc=0,
            instrumented=False)
        bc.function_order.append("main")
        with pytest.raises(BytecodeError, match=f"^{re.escape(message)}$"):
            BytecodeInterpreter(bc)

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


# -- tier 2: superinstruction fusion and opcode quickening --------------------


class TestTier2:
    def test_cmp_branch_fuses_in_loop_head(self):
        """Non-vacuity for the fusion catalog: the compare feeding the
        while-head branch in SCALAR must fuse into one cmp+branch
        superinstruction, and the codegen stats must record it."""
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        counts = fused_site_counts(bc)
        assert counts["cmp_br"] >= 1
        assert counts["total"] == (counts["cmp_br"] + counts["load_bin"]
                                   + counts["bin_store"]
                                   + counts["probe_access"])
        assert bc.fusion_stats.get("cmp_br", 0) >= 1
        assert bc.pair_counts, "static pair-frequency evidence missing"

    def test_probe_access_fuses_on_instrumented_build(self):
        program = compile_carmot(_example("roi_loop"), name="roi_loop")
        bc = lower_module(program.module)
        assert fused_site_counts(bc)["probe_access"] >= 1

    def test_quickening_is_observationally_invisible(self):
        """Serialized payload and canonical disassembly are byte-identical
        before and after a run that quickened the execution stream."""
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        payload = serialize_bytecode(bc)
        listing = disassemble(bc)
        run_module(program.module, bytecode=bc)
        assert quickened_op_count(bc) > 0
        assert serialize_bytecode(bc) == payload
        assert disassemble(bc) == listing

    def test_quickened_opcodes_never_reach_the_canonical_stream(self):
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        run_module(program.module, bytecode=bc)
        for name in bc.function_order:
            fn = bc.functions[name]
            pc = 0
            while pc < len(fn.code):
                assert fn.code[pc] not in QUICKENED_OPCODES
                pc += instr_width(fn.code, pc)

    def test_dequicken_restores_canonical_execution_stream(self):
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        run_module(program.module, bytecode=bc)
        n = quickened_op_count(bc)
        assert n > 0
        assert dequicken_module(bc) == n
        assert bc.dequicken_count == n
        for name in bc.function_order:
            fn = bc.functions[name]
            assert fn.xcode == execution_stream(fn)
            assert not fn.xquick and fn.quickened is None
        assert not bc._quick_targets
        # A fresh run re-quickens from scratch and stays correct.
        a = run_module(program.module, bytecode=bc)
        b = run_treewalk(program.module)
        assert (a.output, a.cost, a.instructions) == \
            (b.output, b.cost, b.instructions)

    def test_quicken_report_annotates_without_mutating_canonical(self):
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        run_module(program.module, bytecode=bc)
        report = disassemble(bc, quicken_report=True)
        assert "; quickened ->" in report
        stripped = "\n".join(line.split("  ; quickened ->")[0]
                             for line in report.splitlines())
        assert stripped == disassemble(bc)


# -- per-source-line costs (the Figure 6 profiler) ----------------------------

#: Every fusion kind with a static split has a site whose halves sit on
#: two source lines here: lt.br (7/6), bin.store (9/8), load.bin (11/10).
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

    def test_cross_line_fused_sites_split(self):
        bc = lower_module(compile_baseline(CROSS_LINE).module)
        split = {OPCODE_NAMES[fn.code[pc]]
                 for fn in bc.functions.values()
                 for pc, loc in fn.lines.items() if type(loc) is tuple}
        assert split == {"lt.br", "bin.store", "load.bin"}

    def test_traced_run_does_not_quicken_and_untraced_run_does(self):
        program = compile_baseline(SCALAR)
        bc = lower_module(program.module)
        run_module(program.module, bytecode=bc)
        assert quickened_op_count(bc) > 0
        interp = BytecodeInterpreter(bc, ProfilingHooks(program.module))
        interp.enable_line_tracing()
        interp.run()
        assert quickened_op_count(bc) == 0
        assert all(fn.xcode == execution_stream(fn)
                   for fn in bc.functions.values())
        run_module(program.module, bytecode=bc)
        assert quickened_op_count(bc) > 0

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
        entry = session.store._entry_path(key)
        doc = json.loads(entry.read_text())
        doc["payload"] = "garbage"
        import hashlib
        doc["payload_sha256"] = hashlib.sha256(b"garbage").hexdigest()
        entry.write_text(json.dumps(doc))
        warm = session.profile(_example("roi_loop"), "carmot",
                               name="roi_loop")
        assert warm.stages["codegen"] == "miss"
        assert warm.payload == cold.payload
