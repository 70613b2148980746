"""Seeded, loop-shaped access streams for the runtime's fold.

:func:`make_stream` builds an op stream the way a profiled loop would
produce one; :func:`resolve_ops` interns its sites on a runtime the way
compiled probes would; :func:`stream_hooks` lays the stream's objects
out in a VM memory and :func:`probe` sends one op through the hook
adapter's ``on_probe_access``; :func:`replay_stream` replays a whole
stream in ROI invocations; :func:`psec_digest` hashes the resulting
Sets.  The fold differential suite replays these streams through both
folds, and the pinned-stream test holds the kernel's Sets for fixed
seeds to recorded digests.
"""

import hashlib
import json
import random
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import AccessKind, SourceLoc, VarInfo
from repro.ir.module import Module
from repro.lang import types as ct
from repro.lang.tokens import SourcePos
from repro.runtime.config import RuntimeConfig, policy_for
from repro.runtime.engine import CarmotHooks, CarmotRuntime
from repro.vm.memory import Memory

#: Loop-body rosters for the stream shapes: (scalar sites, array-walk
#: sites, aggregated-access chance, read-then-write sites) drawn per
#: phase.  ``scalar_loop`` is a tight reduction/flag loop (the paper's
#: induction-variable hot path); ``mixed_loop`` adds array walks and an
#: occasional aggregated access; ``array_walk`` is dominated by walks
#: whose offset advances every iteration (a new PSE key on almost every
#: access).  In those three every object is always read or always
#: written; ``read_write`` adds sites that access one PSE twice in an
#: iteration, read then write (``x = x + 1``, ``a[i] = a[i] * 2``) or
#: write then read (a private temporary), so one invocation sees reads
#: after writes of the same PSE.
STREAM_SHAPES: Dict[str, Tuple[Tuple[int, int], Tuple[int, int], float,
                               Tuple[int, int]]] = {
    "scalar_loop": ((6, 9), (0, 0), 0.0, (0, 0)),
    "mixed_loop": ((4, 7), (1, 2), 0.3, (0, 0)),
    "array_walk": ((0, 1), (2, 3), 0.3, (0, 0)),
    "read_write": ((1, 3), (0, 1), 0.2, (2, 4)),
}


def _stream_module() -> Module:
    """A module with one ROI — just enough for a CarmotRuntime."""
    module = Module("bench")
    module.new_roi("bench_roi", "parallel_for", "main",
                   SourcePos("bench.mc", 1, 1))
    return module


def make_stream(
    seed: int, n_events: int, shape: str = "mixed_loop"
) -> Tuple[List[Tuple[int, int, int, int, int, int, int]],
           Dict[int, Optional[VarInfo]], List[SourceLoc],
           List[Tuple[str, ...]]]:
    """One seeded, loop-shaped op stream for the runtime's fold.

    Profiled programs spend their ROIs in loops, so the stream is built
    from *phases*: each phase fixes a loop-body roster of access sites —
    scalar accumulators/flags (variable PSEs, identical access every
    iteration), array walks (heap PSEs, the offset advances per
    iteration), and an occasional aggregated access — then replays the
    roster for a run of iterations, exactly like a hot loop re-executing
    its body.  ``shape`` (see :data:`STREAM_SHAPES`) picks the roster
    mix.  Each op is ``(is_write, obj_index, offset, count, stride,
    loc_index, cs_index)``.
    """
    scalar_range, walk_range, agg_chance, rmw_range = STREAM_SHAPES[shape]
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
        # Drawn only for shapes that have them, so the other shapes'
        # draws (and pinned digests) stay as they were.
        for _ in range(rng.randint(*rmw_range) if rmw_range[1] else 0):
            obj = next_obj
            next_obj += 1
            if rng.random() < 0.5:  # a scalar
                vars_by_obj[obj] = VarInfo(uid=10_000 + obj, name=f"v{obj}",
                                           storage="local", ty=int_ty)
                kind = "rmw_scalar"
            else:  # an array walk
                vars_by_obj[obj] = None
                kind = "rmw_walk"
            write_first = 1 if rng.random() < 0.5 else 0
            roster.append((kind, write_first, obj,
                           rng.randrange(len(locs)), cs_index))
        for iteration in range(rng.randint(200, 600)):
            for kind, is_write, obj, loc_index, cs in roster:
                if kind == "scalar":
                    ops.append((is_write, obj, 0, 1, 0, loc_index, cs))
                elif kind == "walk":
                    ops.append((is_write, obj, 8 * (iteration % 64), 1, 0,
                                loc_index, cs))
                elif kind == "agg":
                    ops.append((is_write, obj, 0, 8, 8, loc_index, cs))
                else:  # is_write is the first access's kind
                    offset = (0 if kind == "rmw_scalar"
                              else 8 * (iteration % 64))
                    ops.append((is_write, obj, offset, 1, 0, loc_index, cs))
                    ops.append((1 - is_write, obj, offset, 1, 0, loc_index,
                                cs))
            if len(ops) >= n_events:
                break
    return ops[:n_events], vars_by_obj, locs, callstacks


def stream_runtime() -> CarmotRuntime:
    return CarmotRuntime(_stream_module(), RuntimeConfig(
        policy=policy_for("parallel_for"),
        shadow_callstacks=True,
        inline_processing=False,
    ))


def resolve_ops(ops, vars_by_obj, locs, callstacks, runtime: CarmotRuntime):
    """Pre-resolve the stream the way compiled probes would (operands in
    instruction fields, site ids interned at compile time on
    ``runtime``).  Call it before :func:`stream_hooks`, which sizes the
    per-site object cache from the runtime's site table."""
    resolved = []
    for is_write, obj, offset, count, stride, loc_index, cs_index in ops:
        var = vars_by_obj[obj]
        loc = locs[loc_index]
        site_id = runtime._site_for(var, loc)
        resolved.append((is_write, obj, offset, count, stride, var,
                         loc, site_id, callstacks[cs_index]))
    return resolved


def stream_hooks(runtime: CarmotRuntime, n_objects: int):
    """Hooks over a VM memory holding one 512-byte object per stream
    object, stream object ``i`` with id ``1000 + i``; returns the hooks
    and the objects' base addresses."""
    memory = Memory()
    memory._obj_counter = 999
    bases = [memory.allocate(512, "heap").base for _ in range(n_objects)]
    hooks = CarmotHooks(runtime)
    hooks.vm = SimpleNamespace(memory=memory, instructions=0)
    return hooks, bases


def probe(hooks: CarmotHooks, bases, op, time: int, is_write=None) -> None:
    """Send one resolved op through ``on_probe_access`` at ``time``
    (``is_write`` overrides the op's access kind)."""
    written, obj, offset, count, stride, var, loc, site_id, cs = op
    if is_write is None:
        is_write = written
    hooks.vm.instructions = time
    hooks.on_probe_access(AccessKind.WRITE if is_write else AccessKind.READ,
                          bases[obj] + offset, 8, var, count, stride, loc,
                          cs, site_id)


def replay_stream(runtime: CarmotRuntime, resolved, n_objects: int,
                  invocation_len: int) -> None:
    """Probe every op of ``resolved``, ``invocation_len`` ops per ROI
    invocation, then finish the run."""
    roi_id = next(iter(runtime.psecs))
    hooks, bases = stream_hooks(runtime, n_objects)
    runtime.roi_begin(roi_id)
    for index, op in enumerate(resolved):
        if index and index % invocation_len == 0:
            runtime.roi_end(roi_id)
            runtime.roi_begin(roi_id)
        probe(hooks, bases, op, index)
    runtime.roi_end(roi_id)
    runtime.finish()


def psec_digest(runtime: CarmotRuntime) -> str:
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
