"""The VM's per-run load/store object cache.

Every load and store site tests the object it resolved last before
asking ``Memory._resolve``.  The cache belongs to one run: the compiled
code is shared by every run over a module, and a second run places its
globals at the same addresses, so a cached object from an earlier run
would pass the bounds check and serve stale bytes.
Each case here runs on the bytecode VM and on the tree-walk oracle (which
has no such cache) and must agree with it exactly, faults included.
"""

from repro.compiler import compile_baseline, compile_carmot
from repro.errors import MemoryFault
from repro.parallel.profile import ProfilingHooks
from repro.vm import BytecodeInterpreter, run_module
from repro.vm.codegen import lower_module
from tests.helpers.streams import psec_digest
from tests.helpers.treewalk import Interpreter, run_treewalk

#: A global read and written through the same instructions on every run:
#: a cache shared across runs would serve the first run's object here.
SHARED = """
int g = 5;
int hist[4];
int main() {
    int i = 0;
    #pragma carmot roi abstraction(parallel_for)
    while (i < 4) {
        g = g * 2 + i;
        hist[i] = g;
        i = i + 1;
    }
    print_int(g);
    print_int(hist[3]);
    return 0;
}
"""


def _profile(program):
    """Output, cost, instruction count and Sets digest of one profiled
    run."""
    result, runtime = program.run()
    return result.output, result.cost, result.instructions, \
        psec_digest(runtime)


class TestSharedModule:
    def test_second_run_matches_a_fresh_module(self):
        program = compile_carmot(SHARED, name="shared")
        first = _profile(program)
        second = _profile(program)  # the same memoized bytecode module
        fresh = _profile(compile_carmot(SHARED, name="shared"))
        assert first == second == fresh
        assert fresh[0] == ["91", "91"]

    def test_interpreters_over_one_module_keep_their_own_cache(self):
        bc = lower_module(compile_baseline(SHARED).module)
        one = BytecodeInterpreter(bc)
        two = BytecodeInterpreter(bc)
        one.run()
        compiled = bc.functions["main"].compiled["fast"]
        assert two.run().output == ["91", "91"]
        # One compiled function, two runs, two caches: the second run
        # reused the code and still resolved its own objects.
        assert bc.functions["main"].compiled["fast"] is compiled


def _both(source):
    """Run ``source`` (a baseline build) on the oracle and on the VM;
    each side is ``(outcome, instructions, cost)`` where the outcome is
    the output or the fault's type and message."""
    module = compile_baseline(source).module
    sides = []
    for interp in (Interpreter(module), BytecodeInterpreter(
            lower_module(module))):
        try:
            outcome = interp.run().output
        except MemoryFault as exc:
            outcome = (type(exc), str(exc))
        sides.append((outcome, interp.instructions, interp.cost))
    return sides


class TestCacheBehaviour:
    def test_load_site_alternating_between_two_arrays(self):
        oracle, vm = _both("""
int a[8];
int b[8];
int get(int *p, int i) { return p[i]; }
int main() {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) {
        a[i] = i;
        b[i] = 100 * i;
    }
    for (int i = 0; i < 8; i = i + 1) {
        s = s + get(a, i) - get(b, 7 - i);
        s = s * 3 + get(a, 7 - i);
    }
    print_int(s);
    return 0;
}
""")
        assert vm == oracle
        assert oracle[0] == [str(self._alternating())]

    @staticmethod
    def _alternating():
        a = list(range(8))
        b = [100 * i for i in range(8)]
        s = 0
        for i in range(8):
            s = s + a[i] - b[7 - i]
            s = s * 3 + a[7 - i]
        return s

    def test_heap_block_freed_under_a_cached_load(self):
        oracle, vm = _both("""
int main() {
    int *p = (int*) malloc(16);
    int s = 0;
    p[0] = 7;
    for (int k = 0; k < 3; k = k + 1) {
        s = s + p[0];
        if (k == 0) free(p);
    }
    print_int(s);
    return 0;
}
""")
        assert vm == oracle
        assert oracle[0][0] is MemoryFault
        assert oracle[0][1].startswith("use-after-free at ")

    def test_heap_block_freed_under_a_cached_store(self):
        oracle, vm = _both("""
int main() {
    int *p = (int*) malloc(16);
    for (int k = 0; k < 3; k = k + 1) {
        p[1] = k;
        if (k == 1) free(p);
    }
    return 0;
}
""")
        assert vm == oracle
        assert oracle[0][1].startswith("use-after-free at ")

    def test_guard_byte_after_a_cached_object(self):
        oracle, vm = _both("""
int main() {
    int *p = (int*) malloc(8);
    int *q = (int*) malloc(8);
    int s = 0;
    q[0] = 1;
    for (int i = 0; i < 2; i = i + 1) {
        p[i] = i;
        s = s + p[i];
    }
    print_int(s + q[0]);
    return 0;
}
""")
        assert vm == oracle
        assert oracle[0][1].startswith("invalid address ")

    def test_eight_byte_access_straddling_the_end(self):
        oracle, vm = _both("""
int main() {
    char *c = malloc(12);
    int s = 0;
    for (int i = 0; i < 2; i = i + 1) {
        int *p = (int*) (c + 5 * i);
        s = s + p[0];
    }
    print_int(s);
    return 0;
}
""")
        assert vm == oracle
        assert oracle[0][1].startswith("out-of-bounds access at ")
        assert "(+8)" in oracle[0][1]

    def test_invalid_address_through_a_cached_instruction(self):
        oracle, vm = _both("""
int cell[2];
int main() {
    int *p = cell;
    int s = 0;
    for (int i = 0; i < 2; i = i + 1) {
        s = s + p[0];
        p = (int*) 64;
    }
    print_int(s);
    return 0;
}
""")
        assert vm == oracle
        assert oracle[0] == (MemoryFault, "invalid address 0x40")

    def test_store_then_load_through_one_object(self):
        oracle, vm = _both("""
int main() {
    char *c = malloc(12);
    float *f = (float*) malloc(24);
    for (int i = 0; i < 12; i = i + 1) {
        c[i] = 250 + i;
    }
    for (int i = 0; i < 3; i = i + 1) {
        f[i] = c[i] * 0.5;
    }
    print_int(c[11] + f[2]);
    return 0;
}
""")
        assert vm == oracle
        assert oracle[0] == [str(int(5 + 252 * 0.5))]


class TestLineTracing:
    def test_traced_run_after_a_fast_run_sees_canonical_pcs(self):
        """A line-traced run over a module whose fast form already ran
        charges exactly the oracle's lines, at instruction starts only,
        and the fast form still runs correctly after it."""
        program = compile_baseline(SHARED)
        bc = lower_module(program.module)
        run_module(program.module, bytecode=bc)
        vm = BytecodeInterpreter(bc, ProfilingHooks(program.module))
        costs = vm.enable_line_tracing()
        vm.run()
        oracle = Interpreter(program.module, ProfilingHooks(program.module))
        oracle.enable_line_tracing()
        oracle.run()
        assert costs == oracle.line_costs
        tracer = vm._line_tracer
        for fn, pcs in zip(tracer._functions, tracer._pc_costs):
            assert pcs and set(pcs) <= set(fn.lines)
        assert run_module(program.module, bytecode=bc).output == \
            run_treewalk(program.module).output

