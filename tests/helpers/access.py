"""Drive the VM's loads and stores at arbitrary addresses.

:func:`access_module` hand-builds a bytecode module with one read and one
write function per scalar type and opcode form: the plain ``load`` /
``store``, the fused ``load.bin`` / ``bin.store`` and the probed
``probe.load`` / ``probe.store``.  Each function is one access at an
address passed as its first argument, so every call of the same function
goes through the same instruction and its entry in the interpreter's
access cache.  :class:`AccessVM` runs them on one interpreter, whose
memory tests allocate into directly.
"""

from array import array

from repro.vm.bcinterp import BytecodeInterpreter
from repro.vm.bytecode import (
    OP_BIN_STORE,
    OP_LOAD,
    OP_LOAD_BIN,
    OP_MUL,
    OP_PROBE_LOAD,
    OP_PROBE_STORE,
    OP_RET,
    OP_STORE,
    TY_CHAR,
    TY_FLOAT,
    TY_INT,
    BytecodeFunction,
    BytecodeModule,
)

TYPE_CODES = {"int": TY_INT, "float": TY_FLOAT, "char": TY_CHAR}
#: Read opcode and write opcode of each form.
FORMS = {
    "plain": (OP_LOAD, OP_STORE),
    "fused": (OP_LOAD_BIN, OP_BIN_STORE),
    "probed": (OP_PROBE_LOAD, OP_PROBE_STORE),
}

# Frame layout of every function: c0 = 1 (the fused forms multiply by
# it, which keeps -0.0 and every int exact), r1 = address, r2 = value
# to store, r3/r4 = temps.
_ONE, _ADDR, _VALUE, _T0, _T1 = 0, 1, 2, 3, 4
#: probe.access operands: a read or write of 8 bytes at the address, no
#: var, count 1, no stride, loc or site.
_PROBE = (_ADDR, 8, -1, -1, 0, -1, -1)


def _read_code(op: int, ty: int) -> list:
    if op == OP_LOAD:
        return [OP_LOAD, _T0, _ADDR, ty, 0, OP_RET, _T0]
    if op == OP_LOAD_BIN:
        return [OP_LOAD_BIN, OP_MUL, _T0, _ADDR, ty, 0, _T1, _T0, _ONE,
                OP_RET, _T0]
    return [OP_PROBE_LOAD, 0, *_PROBE, _T0, _ADDR, ty, 0, OP_RET, _T0]


def _write_code(op: int, ty: int) -> list:
    if op == OP_STORE:
        return [OP_STORE, _VALUE, _ADDR, ty, 0, OP_RET, -1]
    if op == OP_BIN_STORE:
        return [OP_BIN_STORE, OP_MUL, _T0, _VALUE, _ONE, _ADDR, ty, 0,
                OP_RET, -1]
    return [OP_PROBE_STORE, 1, *_PROBE, _VALUE, _ADDR, ty, 0, OP_RET, -1]


def access_module() -> BytecodeModule:
    """``read_<type>_<form>(addr)`` and ``write_<type>_<form>(addr,
    value)`` for every scalar type and opcode form."""
    bc = BytecodeModule("access")
    for form, (read_op, write_op) in FORMS.items():
        for name, ty in TYPE_CODES.items():
            for kind, code in (("read", _read_code(read_op, ty)),
                               ("write", _write_code(write_op, ty))):
                fn = BytecodeFunction(
                    f"{kind}_{name}_{form}", array("q", code),
                    [("v", 1)], n_args=2, n_regs=5, entry_pc=0,
                    instrumented=False)
                bc.functions[fn.name] = fn
                bc.function_order.append(fn.name)
    return bc


class AccessVM:
    """One interpreter over a fresh :func:`access_module`, running the
    ``form`` (a :data:`FORMS` key) of each access."""

    def __init__(self, form: str) -> None:
        self.form = form
        self.vm = BytecodeInterpreter(access_module())
        self.memory = self.vm.memory

    def read(self, name: str, addr: int):
        return self.vm.run(f"read_{name}_{self.form}",
                           (addr, None)).return_value

    def write(self, name: str, addr: int, value) -> None:
        self.vm.run(f"write_{name}_{self.form}", (addr, value))

    def cached(self, kind: str, name: str):
        """The object the access cache holds for that function's
        instruction."""
        fn = self.vm.bytecode.functions[f"{kind}_{name}_{self.form}"]
        return self.vm._access_objs[fn][0]
