"""The four workloads: which requests each sends, in which order.

A *pair* is (program, kind) over the 15 ``repro.workloads`` programs and
the two request kinds, 30 pairs in all.  A plan is a whole number of
*blocks*; a block holds every pair the same number of times, so every
plan does the same work under any seed.  The seed only shuffles the
order within each block, which for ``serve_mix`` also decides which of
a pair's requests are the edits and the new clients.  (Drawing pairs at
random instead made the median depend on the draw.)

The run length is fixed in blocks, not in seconds, so two commits
always do the same work.  ``nominal_block_s`` sizes it: the seconds one
block took on the reference host (2 CPUs, Python 3.11), so a run of
``round(seconds / nominal_block_s)`` blocks measures about ``seconds``
there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

KINDS = ("psec", "recommend")

#: How a request reaches the store: ``new`` uses a namespace no earlier
#: request used (every stage misses); ``repeat`` re-sends a request the
#: set-up already sent (every stage hits); ``edit`` appends a fresh
#: ``// rev N`` comment, so only the frontend misses (the comment does
#: not change the IR, so the later stages hit).
VARIANTS = ("new", "repeat", "edit")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: ``test`` (``test_params``) or ``ref`` (``ref_params``).
    size: str
    #: Variants of each pair in one block.
    mix: Tuple[str, ...]
    #: Through ``python -m repro serve`` instead of an in-process core.
    serve: bool
    nominal_block_s: float


#: The fewest blocks a run measures, however short ``--seconds`` is.
MIN_BLOCKS = 2

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        # A developer's first profile of a small input: the only workload
        # where the frontend, passes, codegen and serialization are a
        # large share of a request.
        WorkloadSpec("cold_small", "test", ("new",), serve=False,
                     nominal_block_s=1.6),
        # The paper's reference inputs, cold: the VM run and the runtime
        # dominate, so VM and runtime gains show here.
        WorkloadSpec("cold_ref", "ref", ("new",), serve=False,
                     nominal_block_s=11.6),
        # Repeat queries (CI, IDE): every stage hits and the VM never
        # runs, so a VM gain must show no change here and a read-path
        # gain shows mainly here.
        WorkloadSpec("warm_ref", "ref", ("repeat",), serve=False,
                     nominal_block_s=0.9),
        # The deployed path: 2 client connections to the daemon, 70%
        # repeats, 20% edits, 10% new clients.  The only workload with
        # store writes beside reads, the wire and the daemon queue.
        WorkloadSpec("serve_mix", "test",
                     ("repeat",) * 7 + ("edit",) * 2 + ("new",),
                     serve=True, nominal_block_s=5.0),
    )
}


@dataclass(frozen=True)
class Item:
    program: str
    kind: str
    variant: str


def pairs(programs: List[str]) -> List[Tuple[str, str]]:
    return [(program, kind) for program in programs for kind in KINDS]


def blocks_for(spec: WorkloadSpec, seconds: float) -> int:
    return max(MIN_BLOCKS, round(seconds / spec.nominal_block_s))


def make_plan(spec: WorkloadSpec, programs: List[str], seed: int,
              blocks: int) -> List[Item]:
    """``blocks`` shuffled blocks of every pair times ``spec.mix``."""
    rng = random.Random(f"{spec.name}:{seed}")
    block = [Item(program, kind, variant)
             for program, kind in pairs(programs) for variant in spec.mix]
    plan: List[Item] = []
    for _ in range(blocks):
        shuffled = list(block)
        rng.shuffle(shuffled)
        plan.extend(shuffled)
    return plan
