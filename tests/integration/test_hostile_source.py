"""Hostile MiniC source is a clean error, never a Python traceback.

Four families: float-to-int conversions of infinity or NaN (at compile
time in constant folding, at run time in the VM's casts and the
tree-walk oracle's), int-to-float conversions of an int too large for a
double, programs nested deeper than the parser's bound, and runaway
recursion past the VM's call-depth ceiling.  Through the CLI each must
print one ``error:`` line and exit 1; through the service it must come
back as the canonical error envelope.
"""

import pytest

from repro.cli import main
from repro.compiler import compile_carmot
from repro.errors import BudgetExceeded, ParseError, TrapError
from repro.ir.instructions import Cast
from repro.lang.parser import MAX_NESTING, Parser
from repro.lang.lexer import tokenize
from repro.resilience.budgets import MAX_CALL_DEPTH
from repro.service import ServiceClient, ServiceCore, error_response
from repro.vm.bcinterp import BytecodeInterpreter
from repro.vm.codegen import lower_module
from tests.helpers.treewalk import ENGINES, Interpreter, engine
from tests.integration.test_serve_daemon import _Daemon


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


# -- runaway recursion -----------------------------------------------------------

#: Recursions with no base case: direct, mutual, and through a function
#: pointer (``call.ind``).  With no depth
#: budget each must still trip at the ceiling, not grow memory until the
#: host kills the process.
RUNAWAY = {
    "direct": "int f(int a) { return f(a + 1); }\n"
              "int main() { return f(0); }\n",
    "mutual": "int g(int a);\n"
              "int f(int a) { return g(a + 1); }\n"
              "int g(int a) { return f(a + 1); }\n"
              "int main() { return f(0); }\n",
    "indirect": "int g(int a);\n"
                "int f(int a) { return (a >= 0 ? &g : &f)(a + 1); }\n"
                "int g(int a) { return (a >= 0 ? &f : &g)(a + 1); }\n"
                "int main() { return f(0); }\n",
}
RUNAWAY_CALLEE = {"direct": "f", "mutual": "g", "indirect": "g"}


def _runaway_error(case):
    return (f"recursion depth budget exceeded ({MAX_CALL_DEPTH} frames) "
            f"calling {RUNAWAY_CALLEE[case]!r}")


def _counting(depth):
    """``main`` plus ``f(depth)`` down to ``f(0)``: depth + 2 frames."""
    return ("int f(int n) { if (n <= 0) { return 0; } "
            "return f(n - 1) + 1; }\n"
            f"int main() {{ print_int(f({depth})); return 0; }}\n")


@pytest.mark.parametrize("case", sorted(RUNAWAY))
def test_runaway_recursion_traps_identically_on_both_engines(case):
    module = compile_carmot(RUNAWAY[case], name=case).module
    outcomes = {}
    for vm in (BytecodeInterpreter(lower_module(module)),
               Interpreter(module)):
        with pytest.raises(BudgetExceeded) as excinfo:
            vm.run()
        outcomes[type(vm).__name__] = (str(excinfo.value), vm.instructions,
                                       vm.cost)
    bytecode, treewalk = outcomes.values()
    assert bytecode == treewalk
    assert bytecode[0] == _runaway_error(case)


@pytest.mark.parametrize("case", sorted(RUNAWAY))
def test_runaway_recursion_is_a_cli_error(tmp_path, capsys, case):
    assert _cli(tmp_path, RUNAWAY[case]) == 1
    assert capsys.readouterr().err == f"error: {_runaway_error(case)}\n"


@pytest.mark.parametrize("case", sorted(RUNAWAY))
def test_runaway_recursion_is_an_error_envelope(tmp_path, case):
    assert _served(tmp_path, RUNAWAY[case]) == error_response(
        "psec", "error", _runaway_error(case))


def test_daemon_answers_ping_after_a_runaway_recursion(tmp_path):
    doc = {"kind": "psec", "source": RUNAWAY["direct"], "name": "runaway",
           "options": {"no_cache": True}}
    with _Daemon(tmp_path) as server:
        with ServiceClient(server.socket_path) as client:
            response = client.call(doc)
            assert client.ping()["ok"]
    assert response["ok"] is False
    assert response["error"]["message"] == _runaway_error("direct")


@pytest.mark.parametrize("vm", ENGINES)
@pytest.mark.parametrize("frames", [MAX_CALL_DEPTH - 1, MAX_CALL_DEPTH])
def test_recursion_up_to_the_ceiling_runs(vm, frames):
    program = compile_carmot(_counting(frames - 2), name="deep")
    with engine(vm):
        result, _ = program.run()
    assert result.output == [str(frames - 2)]


@pytest.mark.parametrize("vm", ENGINES)
def test_one_frame_past_the_ceiling_traps(vm):
    program = compile_carmot(_counting(MAX_CALL_DEPTH - 1), name="deep")
    with pytest.raises(BudgetExceeded, match=f"\\({MAX_CALL_DEPTH} frames\\)"), \
            engine(vm):
        program.run()


def test_depth_budget_above_the_ceiling_is_a_cli_error(tmp_path, capsys):
    path = tmp_path / "deep.mc"
    path.write_text(_counting(3))
    over = MAX_CALL_DEPTH + 1
    assert main(["psec", str(path), "--no-cache",
                 "--budget", f"depth={over}"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: budget 'depth' must be <= {MAX_CALL_DEPTH} "
                   f"(the VM's call-depth ceiling), got {over}\n")


def test_recursion_up_to_the_ceiling_runs_in_a_daemon_worker(tmp_path):
    """Each MiniC frame is one Python frame: a worker thread must reach
    the ceiling too, and trip one frame past it."""
    deep = {"kind": "recommend", "name": "deep",
            "source": _counting(MAX_CALL_DEPTH - 2),
            "options": {"no_cache": True}}
    over = dict(deep, source=_counting(MAX_CALL_DEPTH - 1))
    with _Daemon(tmp_path) as server:
        with ServiceClient(server.socket_path) as client:
            ran = client.call(deep)
            tripped = client.call(over)
    assert ran["ok"] and ran["body"]["output"] == [str(MAX_CALL_DEPTH - 2)]
    assert not tripped["ok"]
    assert f"({MAX_CALL_DEPTH} frames)" in tripped["error"]["message"]


# -- source that would break or inject into generated Python ----------------

#: MiniC names that are Python keywords, builtins or the generator's own
#: names, and a string that would close a triple-quoted literal and call
#: ``__import__``.  None of it may reach the generated source text.
INJECTION = r'''
int lambda(int None) { int exec = None + 1; return exec; }
int vm(int K) { return K * 2; }
int main() {
    int print = lambda(41);
    int ic = vm(print);
    print_str("\"\"\"\n__import__('os')");
    print_int(print + ic);
    return 0;
}
'''


@pytest.mark.parametrize("vm", ENGINES)
def test_hostile_names_and_strings_run_as_on_the_tree_walk(vm):
    program = compile_carmot(INJECTION, name="injection")
    with engine(vm):
        result, _ = program.run()
    assert result.output == ['"""\n__import__(\'os\')', "126"]


def test_hostile_names_never_reach_the_generated_source():
    from repro.vm.bcinterp import _Source

    bc = lower_module(compile_carmot(INJECTION, name="injection").module)
    interp = BytecodeInterpreter(bc)
    for index, name in enumerate(bc.function_order):
        for counted in (False, True):
            text, _ = _Source(interp, bc.functions[name], index,
                              counted).build()
            for word in ("lambda", "None +", "exec", "__import__", '"""',
                         "print_str", "'os'"):
                assert word not in text, (name, word)


# -- one function with thousands of basic blocks ------------------------------

#: 2,500 sequential ``if``s: 5,000 basic blocks in one function, called
#: from an ROI.  The condition reads an argument, so no pass can fold
#: the branches away.
MANY_BLOCKS = ("int count(int x) {\n  int y = 0;\n"
               + "".join(f"  if (x > {i}) {{ y = y + 1; }}\n"
                         for i in range(2500))
               + "  return y;\n}\n"
               + _roi("x = count(1234);", decls="int x; int c; int a[4];"))


@pytest.fixture(scope="module")
def many_blocks(tmp_path_factory):
    """The tree-walk's output, CARMOT instruction count, and baseline and
    CARMOT costs of :data:`MANY_BLOCKS`, and one artifact store for every
    path (only the first request compiles the frontend)."""
    from repro.compiler import compile_baseline

    with engine("treewalk"):
        result, _ = compile_carmot(MANY_BLOCKS, name="blocks").run()
        baseline, _ = compile_baseline(MANY_BLOCKS, name="blocks").run()
    assert result.output == ["1234"]
    return {"output": result.output, "steps": result.instructions,
            "baseline_cost": baseline.cost, "carmot_cost": result.cost,
            "cache": str(tmp_path_factory.mktemp("blocks") / "cache")}


def _many_blocks_requests(oracle):
    """(request document, check of its response): the output, and the
    baseline and CARMOT costs."""
    base = {"source": MANY_BLOCKS, "name": "blocks"}

    def output(doc):
        assert doc["ok"] and doc["body"]["output"] == oracle["output"]

    def costs(doc):
        assert doc["ok"]
        assert (doc["body"]["baseline_cost"], doc["body"]["carmot_cost"]) \
            == (oracle["baseline_cost"], oracle["carmot_cost"])

    return [(dict(base, kind="recommend"), output),
            (dict(base, kind="overhead"), costs)]


def test_many_blocks_through_the_service_core(many_blocks):
    core = ServiceCore(cache_dir=many_blocks["cache"])
    for request, check in _many_blocks_requests(many_blocks):
        check(core.execute_doc(request))
    # The instruction count, as the step budget sees it: the CARMOT run
    # takes exactly ``steps`` instructions.
    steps = many_blocks["steps"]
    request = {"kind": "psec", "source": MANY_BLOCKS, "name": "blocks"}
    assert core.execute_doc(dict(
        request, options={"budget": f"steps={steps}"}))["ok"]
    assert core.execute_doc(dict(
        request, options={"budget": f"steps={steps - 1}"})) == \
        error_response("psec", "error", "instruction budget exceeded")


def test_many_blocks_through_the_daemon(tmp_path, many_blocks):
    with _Daemon(tmp_path, cache_dir=many_blocks["cache"]) as server:
        with ServiceClient(server.socket_path) as client:
            for request, check in _many_blocks_requests(many_blocks):
                check(client.call(request))


def test_many_blocks_through_the_cli(tmp_path, capsys, many_blocks):
    path = tmp_path / "blocks.mc"
    path.write_text(MANY_BLOCKS)
    cache = ["--cache-dir", many_blocks["cache"]]
    assert main(["recommend", str(path), "--show-output"] + cache) == 0
    out = capsys.readouterr().out
    assert f"program output: {many_blocks['output'][0]}" in out
    assert main(["overhead", str(path)] + cache) == 0
    out = capsys.readouterr().out
    assert f"baseline cost : {many_blocks['baseline_cost']}\n" in out
    assert f"carmot        : {many_blocks['carmot_cost']}  " in out
