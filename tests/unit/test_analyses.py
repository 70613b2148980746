"""Tests for the static analyses: dominators, loops, regions, points-to,
call graph, must-access, read-after-region."""

from repro.analysis.alias import PointsTo
from repro.analysis.callgraph import CallGraph
from repro.analysis.dominators import DominatorInfo
from repro.analysis.liveness import locals_read_after_region
from repro.analysis.loops import find_loops, match_trip_count
from repro.analysis.mustaccess import analyze_must_access
from repro.analysis.pdg import MemoryDependences, address_taken_allocas
from repro.analysis.regions import all_roi_regions, find_roi_region
from repro.compiler.driver import frontend
from repro.ir.instructions import Load, RoiBegin, Store


class TestDominators:
    def test_entry_dominates_everything(self):
        module = frontend(
            """
            int main() {
              int x = 0;
              if (x) { x = 1; } else { x = 2; }
              while (x < 10) x++;
              return x;
            }
            """
        )
        fn = module.functions["main"]
        dom = DominatorInfo(fn)
        for block in fn.blocks:
            assert dom.dominates(fn.entry, block)

    def test_branch_arms_do_not_dominate_join(self):
        module = frontend(
            "int f(int c) { int x; if (c) x = 1; else x = 2; return x; }"
        )
        fn = module.functions["f"]
        dom = DominatorInfo(fn)
        then_block = next(b for b in fn.blocks if b.label.startswith("then"))
        join_block = next(b for b in fn.blocks if b.label.startswith("join"))
        assert not dom.dominates(then_block, join_block)
        assert dom.dominates(fn.entry, join_block)

    def test_frontier_of_branch_arm_is_join(self):
        module = frontend(
            "int f(int c) { int x; if (c) x = 1; else x = 2; return x; }"
        )
        fn = module.functions["f"]
        dom = DominatorInfo(fn)
        then_block = next(b for b in fn.blocks if b.label.startswith("then"))
        assert len(dom.frontier[then_block]) == 1


class TestLoops:
    def test_finds_simple_loop(self):
        module = frontend(
            "int main() { int s = 0; for (int i = 0; i < 4; ++i) s += i;"
            " return s; }"
        )
        fn = module.functions["main"]
        loops = find_loops(fn)
        assert len(loops) == 1
        assert loops[0].preheader is not None
        assert loops[0].header.label.startswith("for.head")

    def test_nested_loops(self):
        module = frontend(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 3; ++i)
                for (int j = 0; j < 3; ++j)
                  s += i * j;
              return s;
            }
            """
        )
        loops = find_loops(module.functions["main"])
        assert len(loops) == 2
        sizes = sorted(len(l.blocks) for l in loops)
        assert sizes[0] < sizes[1]

    def test_trip_count_constant(self):
        module = frontend(
            "int main() { int s = 0; for (int i = 0; i < 37; ++i) s += i;"
            " return s; }"
        )
        fn = module.functions["main"]
        loop = find_loops(fn)[0]
        trip = match_trip_count(fn, loop, None)
        assert trip is not None
        assert trip.constant_trips == 37

    def test_trip_count_loaded_bound(self):
        module = frontend(
            """
            int f(int n) {
              int s = 0;
              for (int i = 0; i < n; ++i) s += i;
              return s;
            }
            """
        )
        fn = module.functions["f"]
        loop = find_loops(fn)[0]
        trip = match_trip_count(fn, loop, None)
        assert trip is not None
        assert trip.bound_const is None
        assert trip.bound_addr is not None

    def test_no_trip_count_for_while_true(self):
        module = frontend(
            "int main() { int i = 0; while (1) { i++; if (i > 3) break; }"
            " return i; }"
        )
        fn = module.functions["main"]
        loops = find_loops(fn)
        assert loops
        assert match_trip_count(fn, loops[0], None) is None


class TestTripCountFacts:
    """Induction/trip-count facts that fixed classification and the
    recommender's roles build on: starts, inclusive bounds, the
    induction-slot filter, and the recognised shapes of the golden
    example kernels."""

    def test_nonzero_start(self):
        module = frontend(
            "int main() { int s = 0; for (int i = 3; i < 10; ++i) s += i;"
            " return s; }"
        )
        fn = module.functions["main"]
        trip = match_trip_count(fn, find_loops(fn)[0], None)
        assert trip is not None
        assert trip.start == 3
        assert trip.bound_const == 10
        assert trip.constant_trips == 7

    def test_le_bound_counts_inclusive(self):
        module = frontend(
            "int main() { int s = 0; for (int i = 0; i <= 9; ++i) s += i;"
            " return s; }"
        )
        fn = module.functions["main"]
        trip = match_trip_count(fn, find_loops(fn)[0], None)
        assert trip is not None
        assert trip.bound_const == 10
        assert trip.constant_trips == 10

    def test_le_loaded_bound_rejected(self):
        module = frontend(
            """
            int f(int n) {
              int s = 0;
              for (int i = 0; i <= n; ++i) s += i;
              return s;
            }
            """
        )
        fn = module.functions["f"]
        assert match_trip_count(fn, find_loops(fn)[0], None) is None

    def test_non_constant_init_rejected(self):
        module = frontend(
            """
            int f(int n) {
              int s = 0;
              for (int i = n; i < 10; ++i) s += i;
              return s;
            }
            """
        )
        fn = module.functions["f"]
        assert match_trip_count(fn, find_loops(fn)[0], None) is None

    def test_conflicting_init_stores_rejected(self):
        module = frontend(
            """
            int f(int c) {
              int i;
              i = 0;
              if (c) { i = 2; }
              while (i < 5) { i = i + 1; }
              return i;
            }
            """
        )
        fn = module.functions["f"]
        assert match_trip_count(fn, find_loops(fn)[0], None) is None

    def _golden(self, name):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "examples" / name
        return frontend(path.read_text(), name)

    def test_golden_roi_loop_trip_counts(self):
        module = self._golden("roi_loop.mc")
        fn = module.functions["main"]
        loops = find_loops(fn)  # sorted outermost-first
        assert len(loops) == 2
        outer, inner = loops
        assert match_trip_count(fn, outer, None).constant_trips == 8
        assert match_trip_count(fn, inner, None).constant_trips == 16

    def test_golden_roi_loop_induction_slot_filter(self):
        module = self._golden("roi_loop.mc")
        fn = module.functions["main"]
        outer, inner = find_loops(fn)
        # The ROI wraps the r-loop body, so its induction_var is `r` —
        # the slot that governs the *outer* loop.
        ind_var = module.rois[0].induction_var
        assert ind_var is not None and ind_var.name == "r"
        slot = fn.var_allocas[ind_var.uid].result
        trip = match_trip_count(fn, outer, slot)
        assert trip is not None
        assert trip.induction_alloca is slot
        # The inner loop walks `i`, not `r`: the filter must reject it.
        assert match_trip_count(fn, inner, slot) is None

    def test_golden_stencil_loaded_bound(self):
        module = self._golden("stencil_calls.mc")
        fn = module.functions["main"]
        loops = find_loops(fn)
        trips = [match_trip_count(fn, loop, None) for loop in loops]
        assert all(t is not None for t in trips)
        # The t-loop is the only constant-trip loop; both i-loops reload
        # the `limit` slot as their bound.
        consts = [t.constant_trips for t in trips if t.bound_const]
        loaded = [t for t in trips if t.bound_const is None]
        assert consts == [4]
        assert len(loaded) == 2
        assert all(t.bound_addr is not None for t in loaded)

    def test_golden_stencil_checksum_parameter_bound(self):
        module = self._golden("stencil_calls.mc")
        fn = module.functions["checksum"]
        trip = match_trip_count(fn, find_loops(fn)[0], None)
        assert trip is not None
        assert trip.bound_const is None
        assert trip.bound_addr is not None


ROI_SOURCE = """
int work(int a) {
  int x = 0; int y = 0;
  for (int i = 0; i < 10; ++i) {
    #pragma carmot roi abstraction(parallel_for)
    {
      x = a + i;
      y = y + x;
      if (x > 5) { y = y * 2; }
    }
  }
  return y;
}
"""


class TestRegions:
    def test_region_found(self):
        module = frontend(ROI_SOURCE)
        fn = module.functions["work"]
        region = find_roi_region(fn, 0)
        assert region is not None
        assert isinstance(
            region.begin_block.instrs[region.begin_index], RoiBegin
        )
        assert region.end_sites

    def test_region_spans_branches(self):
        module = frontend(ROI_SOURCE)
        region = find_roi_region(module.functions["work"], 0)
        assert len(region.blocks) >= 3  # body, then, join

    def test_all_roi_regions(self):
        module = frontend(ROI_SOURCE)
        regions = all_roi_regions(module)
        assert set(regions) == {0}

    def test_region_excludes_outside_code(self):
        module = frontend(ROI_SOURCE)
        fn = module.functions["work"]
        region = find_roi_region(fn, 0)
        inside = {id(i) for _, _, i in region.instructions()}
        exit_block = next(b for b in fn.blocks if b.label.startswith("for.exit"))
        for instr in exit_block.instrs:
            assert id(instr) not in inside


class TestMustAccess:
    def test_second_read_redundant(self):
        module = frontend(ROI_SOURCE)
        fn = module.functions["work"]
        region = find_roi_region(fn, 0)
        result = analyze_must_access(fn, region)
        # y is read (y + x) then read again in the branch (y * 2): the
        # branch read must be redundant.
        y_loads = [
            (b, i, instr) for b, i, instr in region.instructions()
            if isinstance(instr, Load) and instr.var is not None
            and instr.var.name == "y"
        ]
        assert len(y_loads) == 2
        flags = [result.load_is_redundant(fn, b, i, l) for b, i, l in y_loads]
        assert flags == [False, True]

    def test_first_access_not_redundant(self):
        module = frontend(ROI_SOURCE)
        fn = module.functions["work"]
        region = find_roi_region(fn, 0)
        result = analyze_must_access(fn, region)
        first = next(
            (b, i, instr) for b, i, instr in region.instructions()
            if isinstance(instr, (Load, Store))
        )
        block, index, instr = first
        if isinstance(instr, Load):
            assert not result.load_is_redundant(fn, block, index, instr)

    def test_conditional_write_not_redundant_after(self):
        source = """
        int f(int c) {
          int v = 0;
          for (int i = 0; i < 4; ++i) {
            #pragma carmot roi
            {
              if (c) { v = 1; }
              v = 2;
            }
          }
          return v;
        }
        """
        module = frontend(source)
        fn = module.functions["f"]
        region = find_roi_region(fn, 0)
        result = analyze_must_access(fn, region)
        stores = [
            (b, i, instr) for b, i, instr in region.instructions()
            if isinstance(instr, Store) and instr.var is not None
            and instr.var.name == "v"
        ]
        assert len(stores) == 2
        # The second store is NOT guaranteed preceded by a write on all
        # paths (the branch may be skipped).
        block, index, instr = stores[1]
        assert not result.store_is_redundant(fn, block, index, instr)


class TestPointsToAndCallGraph:
    def test_direct_call_edge(self):
        module = frontend(
            """
            int helper(int x) { return x; }
            int main() { return helper(1); }
            """
        )
        pts = PointsTo(module)
        cg = CallGraph(module, pts)
        assert "helper" in cg.callees["main"]
        assert "main" in cg.callers["helper"]

    def test_malloc_points_to_heap_site(self):
        module = frontend(
            "int main() { char *p = malloc(8); free(p); return 0; }"
        )
        pts = PointsTo(module)
        fn = module.functions["main"]
        load = next(i for b in fn.blocks for i in b.instrs
                    if isinstance(i, Load))
        objs = pts.points_to("main", load.result)
        assert any(o[0] == "heap" for o in objs)

    def test_distinct_allocas_do_not_alias(self):
        module = frontend(
            "int main() { int a = 1; int b = 2; return a + b; }"
        )
        pts = PointsTo(module)
        fn = module.functions["main"]
        allocas = [i for i in fn.entry.instrs if i.result is not None][:2]
        assert not pts.may_alias("main", allocas[0].result,
                                 "main", allocas[1].result)

    def test_transitive_callers(self):
        module = frontend(
            """
            int c() { return 1; }
            int b() { return c(); }
            int a() { return b(); }
            int main() { return a(); }
            """
        )
        cg = CallGraph(module, PointsTo(module))
        callers = cg.transitive_callers(["c"])
        assert callers == {"c", "b", "a", "main"}

    def test_may_reach_precompiled(self):
        module = frontend(
            """
            int pure(int x) { return x + 1; }
            int does_io(int x) { print_int(x); return x; }
            int main() { return pure(does_io(1)); }
            """
        )
        cg = CallGraph(module, PointsTo(module))
        assert not cg.may_reach_precompiled("pure")
        assert cg.may_reach_precompiled("does_io")
        assert cg.may_reach_precompiled("main")

    def test_address_taken_allocas(self):
        module = frontend(
            """
            int main() {
              int plain = 0;
              int taken = 0;
              int *p = &taken;
              *p = 3;
              return plain + taken;
            }
            """
        )
        fn = module.functions["main"]
        taken = address_taken_allocas(fn)
        from repro.ir.instructions import Alloca

        by_name = {a.var.name: a.result.name for a in fn.entry.instrs
                   if isinstance(a, Alloca) and a.var is not None}
        assert by_name["taken"] in taken
        assert by_name["plain"] not in taken


class TestReadAfterRegion:
    def test_variable_read_after_loop_detected(self):
        module = frontend(ROI_SOURCE)
        fn = module.functions["work"]
        region = find_roi_region(fn, 0)
        read_after = locals_read_after_region(fn, region, True)
        names = {
            alloca.var.name
            for uid, alloca in fn.var_allocas.items()
            if uid in read_after and alloca.var is not None
        }
        assert "y" in names   # returned after the loop
        assert "x" not in names
