"""Native implementations of the MiniC builtins.

These are the "precompiled libraries" of the paper: their internals are not
visible to the CARMOT compiler, so any PSE accesses they perform can only be
observed through the Pintool stand-in.  Implementations therefore route all
program-memory traffic through ``vm.native_read`` / ``vm.native_write``,
which report to the Pin hook when tracing is active (§4.5).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.errors import TrapError

_INT8 = 8


class Xorshift64:
    """Deterministic PRNG backing ``rand_int``/``rand_float``."""

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        self.state = seed or 1

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self.state = x
        return x


def _malloc(vm, args: List) -> int:
    return vm.heap_alloc(int(args[0])).base


def _calloc(vm, args: List) -> int:
    return vm.heap_alloc(int(args[0]) * int(args[1])).base


def _free(vm, args: List) -> None:
    vm.heap_free(int(args[0]))


def _memcpy(vm, args: List) -> None:
    dst, src, n = int(args[0]), int(args[1]), int(args[2])
    payload = vm.native_read(src, n)
    vm.native_write(dst, payload)
    vm.charge_bytes(n)


def _memmove(vm, args: List) -> None:
    _memcpy(vm, args)


def _memset(vm, args: List) -> None:
    dst, byte, n = int(args[0]), int(args[1]) & 0xFF, int(args[2])
    vm.native_write(dst, bytes([byte]) * n)
    vm.charge_bytes(n)


def _qsort_int(vm, args: List) -> None:
    base, n = int(args[0]), int(args[1])
    raw = vm.native_read(base, n * _INT8)
    values = [
        int.from_bytes(raw[i * _INT8 : (i + 1) * _INT8], "little", signed=True)
        for i in range(n)
    ]
    values.sort()
    out = b"".join(v.to_bytes(_INT8, "little", signed=True) for v in values)
    vm.native_write(base, out)
    vm.charge_bytes(2 * n * _INT8)


def _sum_float_array(vm, args: List) -> float:
    base, n = int(args[0]), int(args[1])
    import struct

    raw = vm.native_read(base, n * _INT8)
    vm.charge_bytes(n * _INT8)
    return math.fsum(struct.unpack(f"<{n}d", raw)) if n else 0.0


def _strlen(vm, args: List) -> int:
    addr = int(args[0])
    length = 0
    while True:
        byte = vm.native_read(addr + length, 1)
        if byte == b"\0":
            return length
        length += 1
        if length > 1 << 20:
            raise TrapError("unterminated string passed to strlen")


def _print_str(vm, args: List) -> None:
    length = _strlen(vm, [args[0]])
    text = vm.native_read(int(args[0]), length).decode("utf-8", "replace")
    vm.output.append(text)


BUILTIN_IMPLS: Dict[str, Callable] = {
    "malloc": _malloc,
    "calloc": _calloc,
    "free": _free,
    "memcpy": _memcpy,
    "memmove": _memmove,
    "memset": _memset,
    "qsort_int": _qsort_int,
    "sum_float_array": _sum_float_array,
    "strlen": _strlen,
    "print_str": _print_str,
    "sqrt": lambda vm, a: math.sqrt(a[0]) if a[0] >= 0 else 0.0,
    "exp": lambda vm, a: math.exp(min(a[0], 700.0)),
    "log": lambda vm, a: math.log(a[0]) if a[0] > 0 else -1e308,
    "sin": lambda vm, a: math.sin(a[0]),
    "cos": lambda vm, a: math.cos(a[0]),
    "pow": lambda vm, a: _safe_pow(a[0], a[1]),
    "fabs": lambda vm, a: abs(float(a[0])),
    "floor": lambda vm, a: float(math.floor(a[0])),
    "fmin": lambda vm, a: min(float(a[0]), float(a[1])),
    "fmax": lambda vm, a: max(float(a[0]), float(a[1])),
    "abs": lambda vm, a: abs(int(a[0])),
    "imin": lambda vm, a: min(int(a[0]), int(a[1])),
    "imax": lambda vm, a: max(int(a[0]), int(a[1])),
    "float_of_int": lambda vm, a: float(a[0]),
    "int_of_float": lambda vm, a: int(a[0]),
    "rand_seed": lambda vm, a: vm.reseed(int(a[0])),
    "rand_int": lambda vm, a: vm.rng.next() % max(int(a[0]), 1),
    "rand_float": lambda vm, a: (vm.rng.next() >> 11) / float(1 << 53),
    "print_int": lambda vm, a: vm.output.append(str(int(a[0]))),
    "print_float": lambda vm, a: vm.output.append(f"{a[0]:.6f}"),
}


def _safe_pow(base: float, exponent: float) -> float:
    try:
        result = math.pow(base, exponent)
    except (OverflowError, ValueError):
        return 0.0
    if math.isinf(result) or math.isnan(result):
        return 0.0
    return result
