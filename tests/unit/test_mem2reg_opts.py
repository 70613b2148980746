"""Tests for mem2reg (SSA construction) and the conventional optimizer."""

import pytest

from repro.compiler.driver import frontend
from repro.compiler.mem2reg import promotable_allocas, promote_allocas
from repro.compiler.opts import optimize_module_o3
from repro.compiler.opts import (
    eliminate_dead_code,
    fold_constants,
    optimize_function,
)
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.verifier import verify_module
from repro.vm import run_module


def both_runs(source, entry="main", args=()):
    plain = frontend(source)
    optimized = frontend(source)
    optimize_module_o3(optimized)
    verify_module(optimized)
    r1 = run_module(plain, entry, args)
    r2 = run_module(optimized, entry, args)
    return r1, r2


SOURCES = [
    # straight-line arithmetic
    "int main() { int x = 3; int y = x * 2 + 1; print_int(y); return y; }",
    # branching with joins (needs phis)
    """
    int main() {
      int x = 0;
      for (int i = 0; i < 10; ++i) {
        if (i % 2 == 0) x += i; else x -= 1;
      }
      print_int(x);
      return x;
    }
    """,
    # nested loops and break
    """
    int main() {
      int total = 0;
      for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
          if (j > i) break;
          total += j;
        }
      }
      print_int(total);
      return total;
    }
    """,
    # calls and recursion
    """
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main() { print_int(fib(12)); return 0; }
    """,
    # pointers pin allocas (address-taken must not be promoted)
    """
    void bump(int *p) { *p = *p + 1; }
    int main() { int x = 41; bump(&x); print_int(x); return x; }
    """,
    # arrays and heap
    """
    int main() {
      int *data = (int*) malloc(10 * sizeof(int));
      int sum = 0;
      for (int i = 0; i < 10; ++i) data[i] = i;
      for (int i = 0; i < 10; ++i) sum += data[i];
      free((char*) data);
      print_int(sum);
      return sum;
    }
    """,
    # floats and builtins
    """
    int main() {
      float acc = 0.0;
      for (int i = 1; i <= 5; ++i) acc += sqrt(float_of_int(i * i));
      print_float(acc);
      return 0;
    }
    """,
    # do-while and continue
    """
    int main() {
      int n = 0; int i = 0;
      do { i++; if (i == 3) continue; n += i; } while (i < 6);
      print_int(n);
      return n;
    }
    """,
]


class TestO3PreservesSemantics:
    @pytest.mark.parametrize("source", SOURCES)
    def test_same_output_and_result(self, source):
        plain, optimized = both_runs(source)
        assert plain.output == optimized.output
        assert plain.return_value == optimized.return_value

    @pytest.mark.parametrize("source", SOURCES)
    def test_optimized_is_cheaper(self, source):
        plain, optimized = both_runs(source)
        assert optimized.cost < plain.cost


class TestMem2Reg:
    def test_scalars_promoted(self):
        module = frontend(
            "int main() { int x = 1; int y = x + 2; return y; }"
        )
        fn = module.functions["main"]
        promote_allocas(fn)
        assert not any(isinstance(i, Alloca) for i in fn.entry.instrs)

    def test_address_taken_not_promotable(self):
        module = frontend(
            "int main() { int x = 1; int *p = &x; *p = 2; return x; }"
        )
        fn = module.functions["main"]
        names = {a.result.name for a in promotable_allocas(fn)}
        allocas = [i for i in fn.entry.instrs if isinstance(i, Alloca)]
        x_alloca = next(a for a in allocas if a.var and a.var.name == "x")
        assert x_alloca.result.name not in names

    def test_arrays_not_promotable(self):
        module = frontend("int main() { int a[4]; a[0] = 1; return a[0]; }")
        fn = module.functions["main"]
        assert all(a.var is None or a.var.name != "a"
                   for a in promotable_allocas(fn))

    def test_phi_inserted_at_join(self):
        module = frontend(
            """
            int pick(int c) {
              int x;
              if (c) x = 1; else x = 2;
              return x;
            }
            """
        )
        fn = module.functions["pick"]
        promote_allocas(fn)
        assert any(isinstance(i, Phi) for b in fn.blocks for i in b.instrs)

    def test_loop_carried_phi_value(self):
        module = frontend(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 5; ++i) s += i;
              return s;
            }
            """
        )
        fn = module.functions["main"]
        promote_allocas(fn)
        verify_module(module)
        assert run_module(module).return_value == 10

    def test_selective_promotion_keeps_other_slots(self):
        module = frontend(
            "int main() { int keep = 1; int go = 2; return keep + go; }"
        )
        fn = module.functions["main"]
        allocas = [i for i in fn.entry.instrs if isinstance(i, Alloca)]
        go = [a for a in allocas if a.var and a.var.name == "go"]
        promote_allocas(fn, go)
        remaining = [i for i in fn.entry.instrs if isinstance(i, Alloca)]
        assert any(a.var and a.var.name == "keep" for a in remaining)
        assert not any(a.var and a.var.name == "go" for a in remaining)
        assert run_module(module).return_value == 3


class TestScalarOpts:
    def test_constant_folding(self):
        module = frontend("int main() { return 2 * 3 + 4; }")
        fn = module.functions["main"]
        promote_allocas(fn)
        assert fold_constants(fn) > 0
        assert run_module(module).return_value == 10

    def test_dce_removes_unused(self):
        module = frontend(
            "int main() { int dead = 5 * 5; return 1; }"
        )
        fn = module.functions["main"]
        promote_allocas(fn)
        optimize_function(fn)
        loads = [i for b in fn.blocks for i in b.instrs
                 if isinstance(i, (Load, Store))]
        assert loads == []

    def test_identity_simplification(self):
        module = frontend(
            "int f(int x) { return x + 0 + (x * 1) - x; }"
        )
        fn = module.functions["f"]
        promote_allocas(fn)
        optimize_function(fn)
        assert run_module(module, "f", (7,)).return_value == 7

    def test_constant_branch_folding(self):
        module = frontend(
            "int main() { if (1) return 5; return 6; }"
        )
        fn = module.functions["main"]
        optimize_function(fn)
        assert run_module(module).return_value == 5
