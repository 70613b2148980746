"""Unit tests for the VM memory model."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryFault, VMError
from repro.lang import types as ct
from repro.vm.memory import Memory
from tests.helpers.access import FORMS, AccessVM


class TestAllocation:
    def test_objects_do_not_overlap(self):
        mem = Memory()
        a = mem.allocate(16, "heap")
        b = mem.allocate(16, "heap")
        assert a.end <= b.base

    def test_zero_size_allocation_rounds_up(self):
        mem = Memory()
        obj = mem.allocate(0, "heap")
        assert obj.size == 1

    def test_negative_size_rejected(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.allocate(-1, "heap")

    def test_segments_are_disjoint(self):
        mem = Memory()
        g = mem.allocate(8, "global")
        s = mem.allocate(8, "stack")
        h = mem.allocate(8, "heap")
        assert g.base < s.base < h.base

    def test_heap_accounting(self):
        mem = Memory()
        obj = mem.allocate(100, "heap")
        assert mem.heap_bytes_allocated == 100
        mem.free(obj.base)
        assert mem.heap_bytes_freed == 100
        assert mem.leaked_bytes == 0

    def test_leak_accounting(self):
        mem = Memory()
        mem.allocate(64, "heap")
        mem.allocate(36, "heap")
        assert mem.leaked_bytes == 100


class TestFaults:
    def test_invalid_address(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.read_scalar(0xDEAD, ct.INT)

    def test_use_after_free(self):
        mem = Memory()
        obj = mem.allocate(8, "heap")
        mem.free(obj.base)
        with pytest.raises(MemoryFault):
            mem.read_scalar(obj.base, ct.INT)

    def test_out_of_bounds(self):
        mem = Memory()
        obj = mem.allocate(8, "heap")
        with pytest.raises(MemoryFault):
            mem.read_scalar(obj.base + 4, ct.INT)  # 8-byte read at +4

    def test_interior_free_rejected(self):
        mem = Memory()
        obj = mem.allocate(16, "heap")
        with pytest.raises(MemoryFault):
            mem.free(obj.base + 8)

    def test_free_of_stack_rejected(self):
        mem = Memory()
        obj = mem.allocate(8, "stack")
        with pytest.raises(MemoryFault):
            mem.free(obj.base)

    def test_guard_byte_between_objects(self):
        mem = Memory()
        a = mem.allocate(8, "heap")
        mem.allocate(8, "heap")
        with pytest.raises(MemoryFault):
            mem.read_scalar(a.base + 8, ct.CHAR)


class TestTypedAccess:
    def test_int_roundtrip(self):
        mem = Memory()
        obj = mem.allocate(8, "heap")
        mem.write_scalar(obj.base, -123456789, ct.INT)
        assert mem.read_scalar(obj.base, ct.INT) == -123456789

    def test_float_roundtrip(self):
        mem = Memory()
        obj = mem.allocate(8, "heap")
        mem.write_scalar(obj.base, 3.14159, ct.FLOAT)
        assert mem.read_scalar(obj.base, ct.FLOAT) == pytest.approx(3.14159)

    def test_char_truncation(self):
        mem = Memory()
        obj = mem.allocate(1, "heap")
        mem.write_scalar(obj.base, 0x1FF, ct.CHAR)
        assert mem.read_scalar(obj.base, ct.CHAR) == 0xFF

    def test_int_wraps_to_64_bits(self):
        mem = Memory()
        obj = mem.allocate(8, "heap")
        mem.write_scalar(obj.base, 1 << 70, ct.INT)
        assert mem.read_scalar(obj.base, ct.INT) == 0

    def test_bytes_roundtrip(self):
        mem = Memory()
        obj = mem.allocate(10, "heap")
        mem.write_bytes(obj.base + 2, b"hello")
        assert mem.read_bytes(obj.base + 2, 5) == b"hello"

    def test_zero_initialized(self):
        mem = Memory()
        obj = mem.allocate(8, "heap")
        assert mem.read_scalar(obj.base, ct.INT) == 0


class TestCompaction:
    def test_lookup_survives_compaction(self):
        mem = Memory()
        keep = mem.allocate(8, "stack")
        released = []
        for _ in range(5000):
            obj = mem.allocate(8, "stack")
            assert mem.object_at(obj.base) is obj  # the last hit, then freed
            released.append(obj)
            mem.release_stack_object(obj)
        assert len(mem._objects["stack"]) < 5001  # a compaction ran
        mem.write_scalar(keep.base, 42, ct.INT)
        assert mem.read_scalar(keep.base, ct.INT) == 42
        late = mem.allocate(8, "stack")
        for obj in (late, keep, late):
            assert mem.object_at(obj.base + 4) is obj
        for obj in (released[0], released[-1]):
            with pytest.raises(MemoryFault):
                mem.object_at(obj.base)
            assert mem.try_object_at(obj.base) is None


class TestLastHitCache:
    """``object_at`` answers from the last object it resolved before it
    bisects; that shortcut must never hide a fault."""

    def test_freed_last_hit_still_faults(self):
        mem = Memory()
        obj = mem.allocate(16, "heap")
        assert mem.object_at(obj.base + 8) is obj
        mem.free(obj.base)
        with pytest.raises(MemoryFault, match="use-after-free"):
            mem.object_at(obj.base + 8)
        assert mem.try_object_at(obj.base + 8) is None

    def test_released_stack_last_hit_still_faults(self):
        mem = Memory()
        obj = mem.allocate(8, "stack")
        assert mem.try_object_at(obj.base) is obj
        mem.release_stack_object(obj)
        with pytest.raises(MemoryFault, match="use-after-free"):
            mem.read_scalar(obj.base, ct.INT)
        assert mem.try_object_at(obj.base) is None

    def test_guard_byte_after_last_hit_faults(self):
        mem = Memory()
        a = mem.allocate(8, "heap")
        mem.allocate(8, "heap")
        assert mem.object_at(a.base + 7) is a
        with pytest.raises(MemoryFault, match="invalid address"):
            mem.object_at(a.base + 8)
        assert mem.try_object_at(a.base + 8) is None

    def test_access_straddling_last_hit_end_faults(self):
        mem = Memory()
        obj = mem.allocate(12, "heap")
        mem.write_scalar(obj.base, 1, ct.INT)  # obj is now the last hit
        with pytest.raises(MemoryFault, match="out-of-bounds"):
            mem.read_scalar(obj.base + 8, ct.INT)
        with pytest.raises(MemoryFault, match="out-of-bounds"):
            mem.write_scalar(obj.base + 8, 2, ct.INT)
        assert mem.read_scalar(obj.base + 8, ct.CHAR) == 0

    @given(st.lists(st.tuples(st.sampled_from(["alloc", "free", "look"]),
                              st.integers(0, 40)), max_size=60))
    def test_matches_a_linear_scan(self, ops):
        """Any interleaving of allocations, frees and lookups resolves
        exactly as a scan over every object ever allocated."""
        mem = Memory()
        objects = []

        def scan(addr):
            for obj in objects:
                if obj.base <= addr < obj.end:
                    return obj
            return None

        for op, n in ops:
            if op == "alloc":
                objects.append(mem.allocate(n % 17, ("heap", "stack")[n % 2]))
            elif op == "free" and objects:
                obj = objects[n % len(objects)]
                if not obj.freed:
                    if obj.kind == "heap":
                        mem.free(obj.base)
                    else:
                        mem.release_stack_object(obj)
            elif objects:
                target = objects[n % len(objects)]
                addr = target.base + n % (target.size + 2) - 1
                want = scan(addr)
                if want is None or want.freed:
                    with pytest.raises(MemoryFault):
                        mem.object_at(addr)
                    assert mem.try_object_at(addr) is None
                else:
                    assert mem.object_at(addr) is want
                    assert mem.try_object_at(addr) is want


@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=20))
def test_scalar_array_roundtrip(values):
    mem = Memory()
    obj = mem.allocate(8 * len(values), "heap")
    for i, value in enumerate(values):
        mem.write_scalar(obj.base + 8 * i, value, ct.INT)
    for i, value in enumerate(values):
        assert mem.read_scalar(obj.base + 8 * i, ct.INT) == value


class TestSegmentOverflow:
    """Each segment is a fixed address range; crossing its upper bound
    must fail loudly instead of bleeding into the next segment (where
    object lookup would attribute the bytes to the wrong kind)."""

    def test_global_overflow_raises(self):
        from repro.vm.memory import STACK_BASE
        mem = Memory()
        with pytest.raises(VMError, match="global segment overflow"):
            mem.allocate(STACK_BASE + 8, "global")

    def test_stack_overflow_raises(self):
        from repro.vm.memory import HEAP_BASE, STACK_BASE
        mem = Memory()
        mem.allocate(64, "stack")
        with pytest.raises(VMError, match="stack segment overflow"):
            mem.allocate(HEAP_BASE - STACK_BASE, "stack")

    def test_heap_overflow_raises(self):
        from repro.vm.memory import FUNC_PTR_BASE, HEAP_BASE
        mem = Memory()  # heap_limit 0 = the budget check is off
        with pytest.raises(VMError, match="heap segment overflow"):
            mem.allocate(FUNC_PTR_BASE - HEAP_BASE + 8, "heap")

    def test_oversized_request_rejected_before_backing_store(self):
        # The guard fires on the address arithmetic alone — a huge
        # request must not materialize a huge bytearray first.
        mem = Memory()
        with pytest.raises(VMError, match="heap segment overflow"):
            mem.allocate(10**15, "heap")

    def test_allocations_under_the_limit_still_work(self):
        mem = Memory()
        obj = mem.allocate(64, "stack")
        mem.write_scalar(obj.base, 7, ct.INT)
        assert mem.read_scalar(obj.base, ct.INT) == 7


# -- the VM's loads and stores against a linear-scan oracle -------------------

_TYPES = {"int": (ct.INT, "<q"), "float": (ct.FLOAT, "<d"),
          "char": (ct.CHAR, "<B")}


def _outcome(access, *args):
    try:
        value = access(*args)
    except MemoryFault as exc:
        return type(exc), str(exc)
    if isinstance(value, float):  # compare bit patterns: NaN != NaN
        value = struct.pack("<d", value)
    return "ok", value


class _Twin:
    """Two memories driven in lockstep — the VM's load and store opcodes
    of one form (:mod:`tests.helpers.access`) on one, ``read_scalar``/
    ``write_scalar`` on the other — checked against a linear scan over
    every object ever allocated and a shadow copy of their bytes."""

    def __init__(self, form):
        self.vm = AccessVM(form)
        self.typed, self.scalar = self.vm.memory, Memory()
        self.pairs = []
        self.shadow = {}

    def alloc(self, size, kind="heap"):
        obj = self.typed.allocate(size, kind)
        self.pairs.append((obj, self.scalar.allocate(size, kind)))
        self.shadow[obj.base] = bytearray(obj.size)
        return obj

    def free(self, index):
        for mem, obj in zip((self.typed, self.scalar), self.pairs[index]):
            if obj.kind == "heap":
                mem.free(obj.base)
            else:
                mem.release_stack_object(obj)

    def _oracle(self, addr, size):
        for obj, _ in self.pairs:
            if obj.base <= addr < obj.base + obj.size:
                if obj.freed:
                    return f"use-after-free at {addr:#x} in {obj!r}", None
                off = addr - obj.base
                if off + size > obj.size:
                    return (f"out-of-bounds access at {addr:#x} (+{size}) "
                            f"in {obj!r}"), None
                return None, (self.shadow[obj.base], off)
        return f"invalid address {addr:#x}", None

    def read(self, name, addr):
        ty, fmt = _TYPES[name]
        fault, where = self._oracle(addr, struct.calcsize(fmt))
        if fault:
            want = (MemoryFault, fault)
        else:
            want = _outcome(lambda: struct.unpack_from(fmt, *where)[0])
        typed = _outcome(self.vm.read, name, addr)
        scalar = _outcome(self.scalar.read_scalar, addr, ty)
        assert typed == scalar == want
        return typed

    def write(self, name, addr, value):
        ty, fmt = _TYPES[name]
        fault, where = self._oracle(addr, struct.calcsize(fmt))
        if fault:
            want = (MemoryFault, fault)
        else:
            if name == "int":  # C-style wrap into signed 64 bits
                value_out = (int(value) + 2**63) % 2**64 - 2**63
            elif name == "char":
                value_out = int(value) % 256
            else:
                value_out = float(value)
            struct.pack_into(fmt, *where, value_out)
            want = ("ok", None)
        typed = _outcome(self.vm.write, name, addr, value)
        scalar = _outcome(self.scalar.write_scalar, addr, value, ty)
        assert typed == scalar == want
        for obj, twin in self.pairs:
            assert obj.data == twin.data == self.shadow[obj.base]
        return typed


@pytest.mark.parametrize("form", sorted(FORMS))
class TestTypedAccessors:
    """The VM's typed loads and stores serve the object their
    instruction resolved last inline; every other access must fault with
    the same type and message as ``read_scalar``/``write_scalar``."""

    @pytest.mark.parametrize("name", sorted(_TYPES))
    def test_freed_last_hit(self, form, name):
        twin = _Twin(form)
        obj = twin.alloc(16)
        assert twin.write(name, obj.base, 7)[0] == "ok"  # now cached
        assert twin.read(name, obj.base)[0] == "ok"
        twin.free(0)
        assert twin.vm.cached("write", name) is obj and obj.freed
        assert twin.vm.cached("read", name) is obj
        assert "use-after-free" in twin.read(name, obj.base)[1]
        assert "use-after-free" in twin.write(name, obj.base, 1)[1]

    @pytest.mark.parametrize("name", sorted(_TYPES))
    def test_guard_byte(self, form, name):
        twin = _Twin(form)
        a = twin.alloc(8)
        twin.alloc(8)
        twin.read(name, a.base)
        twin.write(name, a.base, 1)
        assert "invalid address" in twin.read(name, a.base + 8)[1]
        assert "invalid address" in twin.write(name, a.base + 8, 1)[1]

    @pytest.mark.parametrize("name", ["int", "float"])
    def test_eight_bytes_straddling_the_end(self, form, name):
        twin = _Twin(form)
        obj = twin.alloc(12)
        for last_hit in (True, False):
            if last_hit:
                twin.read(name, obj.base)
                twin.write(name, obj.base, 1)
            else:
                other = twin.alloc(16).base
                twin.read(name, other)
                twin.write(name, other, 1)
            assert "out-of-bounds" in twin.read(name, obj.base + 8)[1]
            assert "out-of-bounds" in twin.write(name, obj.base + 5, 1)[1]

    def test_char_at_the_last_byte(self, form):
        twin = _Twin(form)
        obj = twin.alloc(12)
        assert twin.write("char", obj.base + 11, 0x1AB) == ("ok", None)
        assert twin.read("char", obj.base + 11) == ("ok", 0xAB)

    @pytest.mark.parametrize("value", [1 << 70, (1 << 63) + 5, -(1 << 63) - 1,
                                       2.5e19, -1])
    def test_int_store_wraps_to_64_bits(self, form, value):
        twin = _Twin(form)
        obj = twin.alloc(8)
        twin.write("int", obj.base, value)
        twin.read("int", obj.base)

    @given(st.lists(st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 20),
                  st.sampled_from(["heap", "stack"])),
        st.tuples(st.just("free"), st.integers(0, 50)),
        st.tuples(st.just("read"), st.sampled_from(sorted(_TYPES)),
                  st.integers(0, 50), st.integers(-2, 24)),
        st.tuples(st.just("write"), st.sampled_from(sorted(_TYPES)),
                  st.integers(0, 50), st.integers(-2, 24),
                  st.one_of(st.integers(-2**70, 2**70),
                            st.floats(allow_nan=False,
                                      allow_infinity=False))),
    ), max_size=60))
    def test_matches_a_linear_scan(self, form, ops):
        twin = _Twin(form)
        for op in ops:
            if op[0] == "alloc":
                twin.alloc(op[1], op[2])
            elif not twin.pairs:
                continue
            elif op[0] == "free":
                index = op[1] % len(twin.pairs)
                if not twin.pairs[index][0].freed:
                    twin.free(index)
            else:
                target = twin.pairs[op[2] % len(twin.pairs)][0]
                if op[0] == "read":
                    twin.read(op[1], target.base + op[3])
                else:
                    twin.write(op[1], target.base + op[3], op[4])
