"""Units for the fold at the probe: each access folds into the PSECs as
it arrives, through the hook adapter's ``on_probe_access`` closure, and
its per-site last-object cache resolves addresses exactly as
``Memory.try_object_at`` does."""

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
VAR = VarInfo(uid=1, name="v", storage="local", ty=ct.IntType())
CS = ("main",)
READ, WRITE = AccessKind.READ, AccessKind.WRITE


def make_hooks(n_rois=1, sites=(), **config_kwargs):
    """A runtime over a module with ``n_rois`` ROIs and the compile-time
    site table ``sites``, and hooks over a fresh VM memory."""
    module = Module("m")
    for index in range(n_rois):
        module.new_roi(f"r{index}", "parallel_for", "main",
                       SourcePos("m.mc", 1, 1))
    module.site_table = list(sites)
    runtime = CarmotRuntime(module, RuntimeConfig(
        policy=policy_for("parallel_for"),
        shadow_callstacks=True,
        inline_processing=False,
        **config_kwargs,
    ))
    hooks = CarmotHooks(runtime)
    hooks.vm = types.SimpleNamespace(memory=Memory(), instructions=0,
                                     call_stack=["main"])
    return runtime, hooks


def access(hooks, addr, time, kind=READ, var=None, count=1, site_id=None):
    hooks.vm.instructions = time
    return hooks.on_probe_access(kind, addr, 8, var, count, 8, LOC, CS,
                                 site_id)


class TestFoldPerEvent:
    def test_identical_accesses_fold_one_at_a_time(self):
        runtime, hooks = make_hooks()
        obj = hooks.vm.memory.allocate(8, "stack", var=VAR)
        runtime.roi_begin(0)
        psec = runtime.psecs[0]
        for time in range(5):
            access(hooks, obj.base, time, var=VAR)
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
        access(hooks, obj.base + 16, 0)
        access(hooks, obj.base + 8, 1, kind=WRITE, count=3)
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
        runtime.roi_begin(0)
        for time in range(5):
            access(hooks, obj.base, time, var=VAR)
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
            access(hooks, obj.base, time)
        runtime.roi_begin(1)
        access(hooks, obj.base + 8, 3, kind=WRITE)
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


class TestSiteCache:
    """The per-site last-object cache in ``on_probe_access``."""

    @staticmethod
    def sites():
        return [(None, LOC), (None, SourceLoc.of(SourcePos("m.mc", 4, 1)))]

    def test_alternating_sites_hit(self):
        runtime, hooks = make_hooks(sites=self.sites())
        memory = hooks.vm.memory
        a = memory.allocate(64, "heap")
        b = memory.allocate(64, "heap")
        runtime.roi_begin(0)
        bisects = []
        lookup = memory._bisect
        memory._bisect = lambda addr: bisects.append(addr) or lookup(addr)
        for index in range(4):
            access(hooks, a.base + 8 * index, 2 * index, site_id=0)
            access(hooks, b.base + 8 * index, 2 * index + 1, site_id=1)
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
        runtime, hooks = make_hooks(sites=self.sites())
        obj = hooks.vm.memory.allocate(8, "global", var=VAR)
        runtime.roi_begin(0)
        access(hooks, obj.base, 0, site_id=0)
        access(hooks, obj.base, 1, site_id=0)
        assert runtime.asmt.get(obj.obj_id).kind == "global"
        assert len(runtime.asmt) == 1

    def test_freed_object_is_not_served(self):
        runtime, hooks = make_hooks(sites=self.sites())
        memory = hooks.vm.memory
        obj = memory.allocate(64, "heap")
        runtime.roi_begin(0)
        access(hooks, obj.base, 0, site_id=0)
        memory.free(obj.base)
        assert access(hooks, obj.base, 1, site_id=0) == hooks.cm.probe_push
        assert runtime.stats.access_events == 1
        assert runtime.psecs[0].total_accesses == 1

    def test_reused_stack_frame_resolves_the_new_slot(self):
        """A frame popped and pushed again gets a new slot object; the
        site must not keep folding into the released one."""
        runtime, hooks = make_hooks(sites=[(VAR, LOC)])
        memory = hooks.vm.memory
        first = memory.allocate(8, "stack", var=VAR)
        runtime.roi_begin(0)
        access(hooks, first.base, 0, var=VAR, site_id=0)
        memory.release_stack_object(first)
        second = memory.allocate(8, "stack", var=VAR)
        access(hooks, second.base, 1, kind=WRITE, var=VAR, site_id=0)
        entries = runtime.psecs[0].entries
        assert entries[("var", first.obj_id)].access_count == 1
        assert entries[("var", second.obj_id)].access_count == 1
        assert entries[("var", second.obj_id)].write_seen

    def test_address_past_the_end_misses(self):
        """One past an object's last byte is its guard byte: no object,
        and the next object at the same site resolves to itself."""
        runtime, hooks = make_hooks(sites=self.sites())
        memory = hooks.vm.memory
        a = memory.allocate(16, "heap")
        b = memory.allocate(16, "heap")
        runtime.roi_begin(0)
        access(hooks, a.base + 8, 0, site_id=0)
        assert access(hooks, a.end, 1, site_id=0) == hooks.cm.probe_push
        access(hooks, b.base, 2, site_id=0)
        assert sorted(runtime.psecs[0].entries) == [
            ("mem", a.obj_id, 8, 8), ("mem", b.obj_id, 0, 8)]
