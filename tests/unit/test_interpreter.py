"""Unit tests for the VM interpreter (semantics of compiled MiniC)."""

import sys

import pytest

from repro.errors import MemoryFault, TrapError
from repro.compiler.driver import frontend
from repro.resilience.budgets import MAX_CALL_DEPTH
from repro.vm import run_module


def run(source, entry="main", args=()):
    return run_module(frontend(source), entry, args)


def outputs(source):
    return run(source).output


class TestArithmetic:
    def test_integer_ops(self):
        out = outputs(
            """
            int main() {
              print_int(7 + 3); print_int(7 - 3); print_int(7 * 3);
              print_int(7 / 3); print_int(7 % 3);
              print_int(-7 / 3); print_int(-7 % 3);
              return 0;
            }
            """
        )
        assert out == ["10", "4", "21", "2", "1", "-2", "-1"]

    def test_bitwise_ops(self):
        out = outputs(
            """
            int main() {
              print_int(12 & 10); print_int(12 | 10); print_int(12 ^ 10);
              print_int(1 << 4); print_int(-16 >> 2); print_int(~0);
              return 0;
            }
            """
        )
        assert out == ["8", "14", "6", "16", "-4", "-1"]

    def test_comparisons(self):
        out = outputs(
            """
            int main() {
              print_int(1 < 2); print_int(2 <= 2); print_int(3 > 4);
              print_int(1 == 1); print_int(1 != 1);
              return 0;
            }
            """
        )
        assert out == ["1", "1", "0", "1", "0"]

    def test_float_arithmetic(self):
        out = outputs(
            """
            int main() {
              float x = 1.5;
              float y = x * 4.0 - 1.0;
              print_float(y);
              print_float(x / 2.0);
              return 0;
            }
            """
        )
        assert out == ["5.000000", "0.750000"]

    def test_mixed_promotion(self):
        assert outputs(
            "int main() { float f = 2 + 0.5; print_float(f); return 0; }"
        ) == ["2.500000"]

    def test_division_by_zero_traps(self):
        with pytest.raises(TrapError):
            run("int main() { int z = 0; return 1 / z; }")

    def test_modulo_by_zero_traps(self):
        with pytest.raises(TrapError):
            run("int main() { int z = 0; return 1 % z; }")


class TestControlFlow:
    def test_nested_loops(self):
        out = outputs(
            """
            int main() {
              int total = 0;
              for (int i = 0; i < 4; ++i)
                for (int j = 0; j < 3; ++j)
                  total += i * j;
              print_int(total);
              return 0;
            }
            """
        )
        assert out == ["18"]

    def test_break_and_continue(self):
        out = outputs(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 10; ++i) {
                if (i == 7) break;
                if (i % 2 == 0) continue;
                s += i;
              }
              print_int(s);
              return 0;
            }
            """
        )
        assert out == ["9"]  # 1 + 3 + 5

    def test_do_while_executes_once(self):
        out = outputs(
            "int main() { int n = 0; do { n++; } while (0); "
            "print_int(n); return 0; }"
        )
        assert out == ["1"]

    def test_short_circuit_effects(self):
        out = outputs(
            """
            int hits = 0;
            int bump() { hits = hits + 1; return 1; }
            int main() {
              int r = 0 && bump();
              print_int(hits);
              r = 1 || bump();
              print_int(hits);
              r = 1 && bump();
              print_int(hits);
              return 0;
            }
            """
        )
        assert out == ["0", "0", "1"]

    def test_ternary_evaluates_one_arm(self):
        out = outputs(
            """
            int hits = 0;
            int bump() { hits = hits + 1; return 5; }
            int main() {
              int r = 1 ? 2 : bump();
              print_int(hits); print_int(r);
              return 0;
            }
            """
        )
        assert out == ["0", "2"]


class TestFunctions:
    def test_recursion(self):
        out = outputs(
            """
            int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
            int main() { print_int(fact(10)); return 0; }
            """
        )
        assert out == ["3628800"]

    def test_mutual_recursion(self):
        out = outputs(
            """
            int is_odd(int n);
            int is_even(int n) { if (n == 0) return 1; return is_odd(n-1); }
            int is_odd(int n) { if (n == 0) return 0; return is_even(n-1); }
            int main() { print_int(is_even(10)); print_int(is_odd(10));
                         return 0; }
            """
        )
        assert out == ["1", "0"]

    def test_function_pointer_call(self):
        out = outputs(
            """
            int twice(int x) { return 2 * x; }
            int thrice(int x) { return 3 * x; }
            int main() {
              char *fp = (char*) &twice;
              print_int(((int) fp) != 0);
              fp = (char*) &thrice;
              print_int(((int) fp) != 0);
              return 0;
            }
            """
        )
        assert out == ["1", "1"]

    def test_entry_with_args(self):
        result = run(
            "int add(int a, int b) { return a + b; }", entry="add",
            args=(20, 22),
        )
        assert result.return_value == 42

    def test_deep_recursion_no_python_overflow(self):
        # ``main`` plus ``down(n)`` .. ``down(0)``: exactly the VM's
        # call-depth ceiling, past Python's default recursion limit.
        # Each MiniC frame is one Python frame, so the VM raised that
        # limit at import to leave room for the ceiling to trip first.
        depth = MAX_CALL_DEPTH - 2
        assert sys.getrecursionlimit() >= 4 * MAX_CALL_DEPTH
        result = run(
            """
            int down(int n) { if (n == 0) return 0; return down(n - 1); }
            int main() { return down(%d); }
            """ % depth
        )
        assert result.return_value == 0


class TestMemorySemantics:
    def test_pointer_write_through(self):
        out = outputs(
            """
            void set(int *p, int v) { *p = v; }
            int main() { int x = 0; set(&x, 9); print_int(x); return 0; }
            """
        )
        assert out == ["9"]

    def test_struct_field_access(self):
        out = outputs(
            """
            struct pair { int a; float b; };
            int main() {
              struct pair p;
              p.a = 3; p.b = 1.5;
              print_int(p.a); print_float(p.b);
              return 0;
            }
            """
        )
        assert out == ["3", "1.500000"]

    def test_2d_array(self):
        out = outputs(
            """
            int main() {
              int grid[3][4];
              for (int i = 0; i < 3; ++i)
                for (int j = 0; j < 4; ++j)
                  grid[i][j] = i * 10 + j;
              print_int(grid[2][3]);
              return 0;
            }
            """
        )
        assert out == ["23"]

    def test_pointer_arithmetic(self):
        out = outputs(
            """
            int main() {
              int a[5];
              for (int i = 0; i < 5; ++i) a[i] = i * i;
              int *p = a;
              p = p + 2;
              print_int(*p);
              print_int(*(p + 1));
              p--;
              print_int(*p);
              return 0;
            }
            """
        )
        assert out == ["4", "9", "1"]

    def test_heap_lifecycle_and_leak(self):
        result = run(
            """
            int main() {
              char *a = malloc(100);
              char *b = malloc(50);
              free(a);
              return 0;
            }
            """
        )
        assert result.leaked_bytes == 50

    def test_out_of_bounds_faults(self):
        with pytest.raises(MemoryFault):
            run("int main() { int a[2]; a[5] = 1; return 0; }")

    def test_use_after_free_faults(self):
        with pytest.raises(MemoryFault):
            run(
                """
                int main() {
                  int *p = (int*) malloc(8);
                  free((char*) p);
                  return *p;
                }
                """
            )

    def test_global_initialization(self):
        out = outputs(
            """
            int counter = 41;
            float ratio = 0.5;
            int main() {
              counter++;
              print_int(counter); print_float(ratio);
              return 0;
            }
            """
        )
        assert out == ["42", "0.500000"]

    def test_string_literal(self):
        assert outputs(
            'int main() { print_str("hi there"); return 0; }'
        ) == ["hi there"]

    def test_char_array_manipulation(self):
        out = outputs(
            """
            int main() {
              char buf[4];
              buf[0] = 'o'; buf[1] = 'k'; buf[2] = 0;
              print_str(buf);
              print_int(strlen(buf));
              return 0;
            }
            """
        )
        assert out == ["ok", "2"]


class TestBuiltins:
    def test_math(self):
        out = outputs(
            """
            int main() {
              print_float(sqrt(16.0));
              print_float(pow(2.0, 10.0));
              print_float(fabs(0.0 - 3.5));
              print_int(imax(3, 9)); print_int(imin(3, 9));
              print_int(abs(-4));
              return 0;
            }
            """
        )
        assert out == ["4.000000", "1024.000000", "3.500000", "9", "3", "4"]

    def test_rand_is_deterministic(self):
        src = """
        int main() {
          rand_seed(7);
          print_int(rand_int(1000));
          print_int(rand_int(1000));
          return 0;
        }
        """
        assert outputs(src) == outputs(src)

    def test_memcpy_and_memset(self):
        out = outputs(
            """
            int main() {
              int a[4]; int b[4];
              for (int i = 0; i < 4; ++i) a[i] = i + 1;
              memcpy((char*) b, (char*) a, 32);
              print_int(b[3]);
              memset((char*) b, 0, 32);
              print_int(b[0] + b[3]);
              return 0;
            }
            """
        )
        assert out == ["4", "0"]

    def test_qsort(self):
        out = outputs(
            """
            int main() {
              int a[5];
              a[0]=3; a[1]=1; a[2]=4; a[3]=1; a[4]=5;
              qsort_int(a, 5);
              for (int i = 0; i < 5; ++i) print_int(a[i]);
              return 0;
            }
            """
        )
        assert out == ["1", "1", "3", "4", "5"]

    def test_sum_float_array(self):
        out = outputs(
            """
            int main() {
              float v[3];
              v[0] = 1.5; v[1] = 2.5; v[2] = 3.0;
              print_float(sum_float_array(v, 3));
              return 0;
            }
            """
        )
        assert out == ["7.000000"]


class TestCounters:
    def test_access_counts_distinguish_vars(self):
        result = run(
            """
            int main() {
              int x = 0;
              int a[4];
              for (int i = 0; i < 4; ++i) a[i] = x;
              return 0;
            }
            """
        )
        assert result.access_counts["var"] > 0
        assert result.access_counts["mem"] > 0

    def test_instruction_budget(self):
        with pytest.raises(TrapError):
            run_module(
                frontend("int main() { while (1) { } return 0; }"),
                max_instructions=1000,
            )
