"""Drive the VM's loads and stores at arbitrary addresses.

:func:`access_module` hand-builds a bytecode module with one read and one
write function per scalar type and form: a ``load`` / ``store`` alone,
next to a ``mul`` (a load then a ``mul`` of its result, a ``mul`` then a
store of its result) and after a ``probe.access``.  Each function is one
access at an address passed as its first argument, so every call of the
same function goes through the same instruction and its access-cache
cell.
:class:`AccessVM` runs them on one interpreter, whose memory tests
allocate into directly, and keeps each function's compiled closure from
its first run, so a site's cache lives across calls as it would within
one run.
"""

from array import array

from repro.vm.bcinterp import BytecodeInterpreter
from repro.vm.bytecode import (
    OP_LOAD,
    OP_MUL,
    OP_PROBE_ACCESS,
    OP_RET,
    OP_STORE,
    TY_CHAR,
    TY_FLOAT,
    TY_INT,
    BytecodeFunction,
    BytecodeModule,
)

TYPE_CODES = {"int": TY_INT, "float": TY_FLOAT, "char": TY_CHAR}
# Frame layout of every function: c0 = 1 (the ``mul`` multiplies by it,
# which keeps -0.0 and every int exact), r1 = address, r2 = value to
# store, r3/r4 = temps.
_ONE, _ADDR, _VALUE, _T0, _T1 = 0, 1, 2, 3, 4
#: probe.access operands after ``is_write``: 8 bytes at the address, no
#: var, count 1, no stride, no loc.
_PROBE = (_ADDR, 8, -1, -1, 0, -1)


#: Each form's access: alone, next to a ``mul``, after a probe.
FORMS = ("plain", "binop", "probed")


def _read_code(form: str, ty: int) -> list:
    code = [OP_LOAD, _T0, _ADDR, ty, 0]
    if form == "binop":
        code += [OP_MUL, _T1, _T0, _ONE]
    elif form == "probed":
        code = [OP_PROBE_ACCESS, 0, *_PROBE] + code
    return code + [OP_RET, _T0]


def _write_code(form: str, ty: int) -> list:
    if form == "binop":
        code = [OP_MUL, _T0, _VALUE, _ONE, OP_STORE, _T0, _ADDR, ty, 0]
    else:
        code = [OP_STORE, _VALUE, _ADDR, ty, 0]
    if form == "probed":
        code = [OP_PROBE_ACCESS, 1, *_PROBE] + code
    return code + [OP_RET, -1]


def access_module() -> BytecodeModule:
    """``read_<type>_<form>(addr)`` and ``write_<type>_<form>(addr,
    value)`` for every scalar type and form."""
    bc = BytecodeModule("access")
    for form in FORMS:
        for name, ty in TYPE_CODES.items():
            for kind, code in (("read", _read_code(form, ty)),
                               ("write", _write_code(form, ty))):
                fn = BytecodeFunction(
                    f"{kind}_{name}_{form}", array("q", code),
                    [("v", 1)], n_args=2, n_regs=5, entry_pc=0,
                    instrumented=False)
                bc.functions[fn.name] = fn
                bc.function_order.append(fn.name)
    return bc


def _cell(function, name):
    """The value of ``function``'s closure variable ``name``."""
    index = function.__code__.co_freevars.index(name)
    return function.__closure__[index].cell_contents


class _KeptClosures(BytecodeInterpreter):
    """An interpreter that keeps each function's closure across runs."""

    def __init__(self, bytecode: BytecodeModule) -> None:
        super().__init__(bytecode)
        self.closures = {}

    def _instance(self, index, kind):
        closure = self.closures.get(index)
        if closure is None:
            closure = self.closures[index] = super()._instance(index, kind)
        return closure


class AccessVM:
    """One interpreter over a fresh :func:`access_module`, running the
    ``form`` (one of :data:`FORMS`) of each access."""

    def __init__(self, form: str) -> None:
        self.form = form
        self.vm = _KeptClosures(access_module())
        self.memory = self.vm.memory

    def read(self, name: str, addr: int):
        return self.vm.run(f"read_{name}_{self.form}",
                           (addr, None)).return_value

    def write(self, name: str, addr: int, value) -> None:
        self.vm.run(f"write_{name}_{self.form}", (addr, value))

    def cached(self, kind: str, name: str):
        """The object the access cache holds for that function's
        instruction (its one load or store site)."""
        index = self.vm.bytecode.function_order.index(
            f"{kind}_{name}_{self.form}")
        closure = self.vm.closures[index]
        sites = [_cell(closure, name) for name in closure.__code__.co_freevars
                 if name.startswith("m")]
        (site,) = [site for site in sites
                   if "obj" in site.__code__.co_freevars]
        return _cell(site, "obj")
