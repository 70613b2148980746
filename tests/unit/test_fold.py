"""Units for the fold at the probe: each access folds into the PSECs as
it arrives, through the closure the hooks make for its probe site (the
one the VM calls), and the site's last-object cache resolves addresses
exactly as ``Memory.try_object_at`` does."""

import types

from repro.compiler import compile_carmot
from repro.ir.instructions import AccessKind, SourceLoc, VarInfo
from repro.ir.module import Module
from repro.lang import types as ct
from repro.lang.tokens import SourcePos
from repro.resilience import ResiliencePolicy
from repro.resilience.degradation import CONSERVATIVE_WRITE
from repro.runtime.config import RuntimeConfig, policy_for
from repro.runtime.engine import CarmotHooks, CarmotRuntime
from repro.vm.bcinterp import BytecodeInterpreter
from repro.vm.codegen import lower_module
from repro.vm.memory import Memory

LOC = SourceLoc.of(SourcePos("m.mc", 3, 1))
LOC4 = SourceLoc.of(SourcePos("m.mc", 4, 1))
VAR = VarInfo(uid=1, name="v", storage="local", ty=ct.IntType())
CS = ("main",)
READ, WRITE = AccessKind.READ, AccessKind.WRITE


def make_hooks(n_rois=1, **config_kwargs):
    """A runtime over a module with ``n_rois`` ROIs, and hooks over a
    fresh VM memory."""
    module = Module("m")
    for index in range(n_rois):
        module.new_roi(f"r{index}", "parallel_for", "main",
                       SourcePos("m.mc", 1, 1))
    runtime = CarmotRuntime(module, RuntimeConfig(
        policy=policy_for("parallel_for"),
        **config_kwargs,
    ))
    hooks = CarmotHooks(runtime)
    hooks.vm = types.SimpleNamespace(memory=Memory(), instructions=0, cost=0,
                                     call_stack=["main"])
    return runtime, hooks


def site(hooks, kind=READ, var=None, loc=LOC):
    """The closure a compiled ``probe.access`` site of 8 bytes calls:
    ``probe(ic, cost, addr, callstack, count=1)``."""
    return hooks.probe_site(kind, 8, var, 8, loc)


class TestFoldPerEvent:
    def test_identical_accesses_fold_one_at_a_time(self):
        runtime, hooks = make_hooks()
        obj = hooks.vm.memory.allocate(8, "stack", var=VAR)
        probe = site(hooks, var=VAR)
        runtime.roi_begin(0)
        psec = runtime.psecs[0]
        for time in range(5):
            probe(time, 0, obj.base, CS)
            assert psec.total_accesses == time + 1
        runtime.roi_end(0)
        runtime.finish()
        (entry,) = psec.entries.values()
        assert entry.access_count == 5
        assert (entry.first_time, entry.last_time) == (0, 4)
        assert entry.uses == {(str(LOC), CS)}
        assert psec.use_records == 1

    def test_single_mem_key_interns_like_the_general_path(self):
        # A count == 1 access without a variable builds its ``mem`` key
        # directly; it must be the very tuple the count > 1 path interns.
        runtime, hooks = make_hooks()
        obj = hooks.vm.memory.allocate(64, "heap")
        runtime.roi_begin(0)
        site(hooks)(0, 0, obj.base + 16, CS)
        site(hooks, WRITE)(1, 0, obj.base + 8, CS, 3)
        runtime.roi_end(0)
        runtime.finish()
        single = ("mem", obj.obj_id, 16, 8)
        interned = runtime._pse_keys[single]
        entries = runtime.psecs[0].entries
        assert list(entries) == [single, ("mem", obj.obj_id, 8, 8),
                                 ("mem", obj.obj_id, 24, 8)]
        (key,) = (k for k in entries if k == single)
        assert key is interned
        entry = entries[single]
        assert entry.access_count == 2
        assert (entry.first_time, entry.last_time) == (0, 1)

    def test_event_budget_under_its_limit_folds_every_access(self):
        runtime, hooks = make_hooks(
            resilience=ResiliencePolicy(max_events_per_roi=100))
        obj = hooks.vm.memory.allocate(8, "stack", var=VAR)
        probe = site(hooks, var=VAR)
        runtime.roi_begin(0)
        for time in range(5):
            probe(time, 0, obj.base, CS)
        runtime.roi_end(0)
        runtime.finish()
        assert runtime.psecs[0].total_accesses == 5
        assert not runtime.degraded

    def test_over_budget_roi_classifies_while_the_other_folds(self):
        """Past its event budget an ROI gets conservative letters by
        ``force_classification``; an ROI still under budget folds the
        same access through the FSA."""
        runtime, hooks = make_hooks(
            n_rois=2, resilience=ResiliencePolicy(max_events_per_roi=3))
        obj = hooks.vm.memory.allocate(64, "heap")
        runtime.roi_begin(0)
        for time in range(3):
            site(hooks)(time, 0, obj.base, CS)
        runtime.roi_begin(1)
        site(hooks, WRITE)(3, 0, obj.base + 8, CS)
        runtime.roi_end(1)
        runtime.roi_end(0)
        runtime.finish()
        key = ("mem", obj.obj_id, 8, 8)
        over, under = runtime.psecs[0], runtime.psecs[1]
        assert over.total_accesses == 3
        assert over.entries[key].access_count == 0
        assert over.entries[key].forced == CONSERVATIVE_WRITE
        assert over.degraded and not under.degraded
        assert under.total_accesses == 1
        assert under.entries[key].letters == frozenset("O")

    def test_pin_access_folds_without_probe_counters(self):
        runtime, hooks = make_hooks()
        obj = hooks.vm.memory.allocate(64, "heap")
        runtime.roi_begin(0)
        cost = hooks.on_pin_access(WRITE, obj.base, 20)
        runtime.roi_end(0)
        runtime.finish()
        assert cost == 3 * hooks.cm.pin_per_access
        assert runtime.stats.pin_accesses == 3
        assert runtime.stats.access_events == 0
        assert runtime.stats.aggregated_events == 0
        assert sorted(runtime.psecs[0].entries) == [
            ("mem", obj.obj_id, offset, 8) for offset in (0, 8, 16)]

    def test_adapter_folds_as_the_sites_do(self):
        """``on_probe_access`` feeds the VM's counters to one closure per
        distinct site operands, and folds as those closures do."""
        def run(via_adapter):
            runtime, hooks = make_hooks()
            obj = hooks.vm.memory.allocate(64, "heap")
            runtime.roi_begin(0)
            for time in range(6):
                kind, var = (WRITE, None) if time % 3 else (READ, VAR)
                hooks.vm.instructions = time
                if via_adapter:
                    hooks.on_probe_access(kind, obj.base + 8 * (time % 2),
                                          8, var, 1, 8, LOC, CS)
                else:
                    site(hooks, kind, var)(time, 0, obj.base + 8 * (time % 2),
                                           CS)
            runtime.roi_end(0)
            runtime.finish()
            return hooks, {key: (entry.letters, entry.access_count,
                                 entry.first_time, entry.last_time,
                                 entry.uses)
                           for key, entry in runtime.psecs[0].entries.items()}

        hooks, adapted = run(True)
        assert adapted == run(False)[1]
        assert len(hooks._adapted) == 2

    def test_use_records_intern_per_site_and_callstack(self):
        """A generated frame builds a new ``cs`` tuple per call: equal
        callstacks give one use record per PSE, which a repeat finds by
        identity (``last_use``); another site's equal record is found by
        hashing."""
        runtime, hooks = make_hooks()
        obj = hooks.vm.memory.allocate(8, "stack", var=VAR)
        first, second = site(hooks, var=VAR), site(hooks, WRITE, VAR)
        runtime.roi_begin(0)
        for time in range(4):
            first(time, 0, obj.base, tuple(["main"]))
        entry = runtime.psecs[0].entries[("var", obj.obj_id)]
        use = entry.last_use
        assert entry.uses == {use}
        second(4, 0, obj.base, tuple(["main"]))
        assert entry.last_use == use and entry.last_use is not use
        assert entry.uses == {use}
        assert runtime.psecs[0].use_records == 1


class TestSiteCache:
    """The last-object cache of each probe site's closure."""

    def test_alternating_sites_hit(self):
        runtime, hooks = make_hooks()
        memory = hooks.vm.memory
        a = memory.allocate(64, "heap")
        b = memory.allocate(64, "heap")
        site_a, site_b = site(hooks), site(hooks, loc=LOC4)
        runtime.roi_begin(0)
        bisects = []
        lookup = memory._bisect
        memory._bisect = lambda addr: bisects.append(addr) or lookup(addr)
        for index in range(4):
            site_a(2 * index, 0, a.base + 8 * index, CS)
            site_b(2 * index + 1, 0, b.base + 8 * index, CS)
        # Each site bisects once, on its first access.
        assert bisects == [a.base, b.base]
        assert runtime.psecs[0].total_accesses == 8

    def test_load_after_a_probe_resolves_no_object(self):
        """The probe hands nothing to ``Memory``: each probed load and
        store hits the VM's own per-instruction object cache, so a loop
        over two arrays resolves objects on its first iteration only."""
        source = """
int a[64];
int b[64];
int main() {
    int i = 0;
    int acc = 0;
    #pragma carmot roi abstraction(parallel_for)
    while (i < %d) {
        a[i] = i;
        b[i] = a[i] + acc;
        acc = acc + b[i];
        i = i + 1;
    }
    return acc %% 7;
}
"""

        def resolves(n):
            program = compile_carmot(source % n)
            hooks = program.make_runtime()[1]
            vm = BytecodeInterpreter(lower_module(program.module), hooks)
            calls = []
            resolve = vm.memory._resolve
            vm.memory._resolve = (
                lambda addr, size: calls.append(addr) or resolve(addr, size))
            vm.run()
            assert hooks.runtime.psecs[0].total_accesses > n
            return len(calls)

        assert resolves(4) == resolves(40) > 0

    def test_first_resolution_registers_globals_in_the_asmt(self):
        runtime, hooks = make_hooks()
        obj = hooks.vm.memory.allocate(8, "global", var=VAR)
        probe = site(hooks)
        runtime.roi_begin(0)
        probe(0, 0, obj.base, CS)
        probe(1, 0, obj.base, CS)
        assert runtime.asmt.get(obj.obj_id).kind == "global"
        assert len(runtime.asmt) == 1

    def test_freed_object_is_not_served(self):
        runtime, hooks = make_hooks()
        memory = hooks.vm.memory
        obj = memory.allocate(64, "heap")
        probe = site(hooks)
        runtime.roi_begin(0)
        probe(0, 0, obj.base, CS)
        memory.free(obj.base)
        assert probe(1, 0, obj.base, CS) == hooks.cm.probe_push
        assert runtime.stats.access_events == 1
        assert runtime.psecs[0].total_accesses == 1

    def test_reused_stack_frame_resolves_the_new_slot(self):
        """A frame popped and pushed again gets a new slot object; the
        site must not keep folding into the released one."""
        runtime, hooks = make_hooks()
        memory = hooks.vm.memory
        first = memory.allocate(8, "stack", var=VAR)
        read, write = site(hooks, var=VAR), site(hooks, WRITE, VAR)
        runtime.roi_begin(0)
        read(0, 0, first.base, CS)
        memory.release_stack_object(first)
        second = memory.allocate(8, "stack", var=VAR)
        write(1, 0, second.base, CS)
        read(2, 0, second.base, CS)
        entries = runtime.psecs[0].entries
        assert entries[("var", first.obj_id)].access_count == 1
        assert entries[("var", second.obj_id)].access_count == 2
        assert entries[("var", second.obj_id)].write_seen

    def test_address_past_the_end_misses(self):
        """One past an object's last byte is its guard byte: no object,
        and the next object at the same site resolves to itself."""
        runtime, hooks = make_hooks()
        memory = hooks.vm.memory
        a = memory.allocate(16, "heap")
        b = memory.allocate(16, "heap")
        probe = site(hooks)
        runtime.roi_begin(0)
        probe(0, 0, a.base + 8, CS)
        assert probe(1, 0, a.end, CS) == hooks.cm.probe_push
        probe(2, 0, b.base, CS)
        assert sorted(runtime.psecs[0].entries) == [
            ("mem", a.obj_id, 8, 8), ("mem", b.obj_id, 0, 8)]
