"""Hostile MiniC source is a clean error, never a Python traceback.

Three families: float-to-int conversions of infinity or NaN (at compile
time in constant folding, at run time in the VM's casts and the
tree-walk oracle's), int-to-float conversions of an int too large for a
double, and programs nested deeper than the parser's bound.  Through the
CLI each must print one ``error:`` line and exit 1; through the service
it must come back as the canonical error envelope.
"""

import pytest

from repro.cli import main
from repro.compiler import compile_carmot
from repro.errors import ParseError, TrapError
from repro.ir.instructions import Cast
from repro.lang.parser import MAX_NESTING, Parser
from repro.lang.lexer import tokenize
from repro.service import ServiceCore, error_response
from tests.helpers.treewalk import ENGINES, engine


def _roi(body, decls="int x; int c; int a[4];"):
    return (
        "float g = 1e400;\n"
        "int f(int v) { return v; }\n"
        "int main() {\n"
        f"  {decls}\n"
        "  x = 0; c = 1; a[0] = 0;\n"
        "  for (int r = 0; r < 2; ++r) {\n"
        "    #pragma carmot roi abstraction(parallel_for)\n"
        "    {\n"
        f"      {body}\n"
        "    }\n"
        "  }\n"
        "  print_int(x + a[0]);\n"
        "  return 0;\n"
        "}\n"
    )


def _cli(tmp_path, source):
    path = tmp_path / "hostile.mc"
    path.write_text(source)
    return main(["psec", str(path), "--no-cache"])


def _served(tmp_path, source):
    core = ServiceCore(cache_dir=str(tmp_path / "cache"))
    return core.execute_doc({"kind": "psec", "source": source,
                             "name": "hostile",
                             "options": {"no_cache": True}})


# -- non-finite float -> int ---------------------------------------------------

NON_FINITE = {
    # constant folding meets the implicit cast of the store
    "inf_store": (_roi("a[0] = 1.5e400;"), "inf"),
    "nan_store": (_roi("a[0] = 1e400 - 1e400;"), "nan"),
    # the cast runs on a value only known at run time
    "inf_cast": (_roi("x = (int) g;"), "inf"),
    "nan_cast": (_roi("x = (int) (g - g);"), "nan"),
    "inf_char": (_roi("x = (char) g;"), "inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_constant_folding_leaves_non_finite_casts(case):
    source, _ = NON_FINITE[case]
    program = compile_carmot(source, name=case)
    casts = [instr for block in program.module.functions["main"].blocks
             for instr in block.instrs if isinstance(instr, Cast)]
    assert casts, "the cast to int must survive constant folding"


@pytest.mark.parametrize("vm", ENGINES)
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_cast_traps_on_both_engines(case, vm):
    source, text = NON_FINITE[case]
    program = compile_carmot(source, name=case)
    with pytest.raises(TrapError,
                       match=f"^cannot convert {text} to an integer$"), \
            engine(vm):
        program.run()


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_cast_is_a_cli_error(tmp_path, capsys, case):
    source, text = NON_FINITE[case]
    assert _cli(tmp_path, source) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot convert {text} to an integer\n"


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_cast_is_an_error_envelope(tmp_path, case):
    source, text = NON_FINITE[case]
    assert _served(tmp_path, source) == error_response(
        "psec", "error", f"cannot convert {text} to an integer")


#: Registers hold unbounded ints, so a product that never passes through
#: memory can outgrow a double.
HUGE_INT = _roi("d = c" + " * 1000000000" * 40 + ";",
                decls="int x; int c; int a[4]; float d;")
HUGE_INT_ERROR = "integer too large to convert to a float"


@pytest.mark.parametrize("vm", ENGINES)
def test_huge_int_to_float_traps_on_both_engines(vm):
    program = compile_carmot(HUGE_INT, name="huge_int")
    with pytest.raises(TrapError, match=f"^{HUGE_INT_ERROR}$"), engine(vm):
        program.run()


def test_huge_int_to_float_is_a_cli_error(tmp_path, capsys):
    assert _cli(tmp_path, HUGE_INT) == 1
    assert capsys.readouterr().err == f"error: {HUGE_INT_ERROR}\n"


def test_huge_int_to_float_is_an_error_envelope(tmp_path):
    assert _served(tmp_path, HUGE_INT) == error_response(
        "psec", "error", HUGE_INT_ERROR)


def test_non_finite_integer_global_is_a_semantic_error(tmp_path, capsys):
    source = "int h = 1e400;\nint main() { print_int(h); return 0; }\n"
    assert _cli(tmp_path, source) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: global initializer for 'h'")
    assert "is not a finite number" in err


# -- nesting bound --------------------------------------------------------------

#: Each shape nests its argument ``k`` levels deep.
SHAPES = {
    "parens": lambda k: _roi("x = " + "(" * k + "1" + ")" * k + ";"),
    "prefix": lambda k: _roi("x = " + "~ " * k + "1;"),
    "assign": lambda k: _roi("x = " * k + "1;"),
    "ternary": lambda k: _roi("x = " + "c ? 1 : " * k + "1;"),
    "sum": lambda k: _roi("x = 1" + " + 1" * k + ";"),
    "nested_sum": lambda k: _roi("x = " + "1 + (" * k + "1" + ")" * k + ";"),
    "calls": lambda k: _roi("x = " + "f(" * k + "1" + ")" * k + ";"),
    "index": lambda k: _roi("x = " + "a[" * k + "0" + "]" * k + ";"),
    "if": lambda k: _roi("if (c) { " * k + "x = 1;" + " }" * k),
    "else_if": lambda k: _roi("if (c) x = 1;" + " else if (c) x = 1;" * k),
    "for": lambda k: _roi(
        "for (int i = 0; i < 1; ++i) { " * k + "x = 1;" + " }" * k),
}


class _PeakParser(Parser):
    """Records the deepest nesting a parse reached."""

    peak = 0

    def _enter(self):
        super()._enter()
        self.peak = max(self.peak, self._depth)


def _peak(source):
    parser = _PeakParser(tokenize(source, "nest.mc"))
    parser.parse_program("nest.mc")
    return parser.peak


def _at_bound(shape):
    """The largest ``k`` whose program parses."""
    make = SHAPES[shape]
    lo, hi = 1, 4 * MAX_NESTING
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            _peak(make(mid))
            lo = mid
        except ParseError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nested_exactly_to_the_bound_runs_end_to_end(tmp_path, shape):
    k = _at_bound(shape)
    source = SHAPES[shape](k)
    # One more level would cross the bound, so this program sits on it
    # (a chain or an if level may cost more than one nesting level).
    assert MAX_NESTING - 3 < _peak(source) <= MAX_NESTING
    doc = _served(tmp_path, source)
    assert doc["ok"], doc["error"]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_past_the_bound_is_a_located_syntax_error(tmp_path,
                                                            capsys, shape):
    source = SHAPES[shape](_at_bound(shape) + 1)
    message = f"nesting deeper than {MAX_NESTING} levels, got "
    with pytest.raises(ParseError, match=f"^{message}.*@nest.mc:"):
        _peak(source)
    assert _cli(tmp_path, source) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    doc = _served(tmp_path, source)
    assert doc == error_response("psec", "error", doc["error"]["message"])
    assert doc["error"]["message"].startswith(message)
