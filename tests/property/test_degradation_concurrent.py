"""Property: DegradationReport serialization is canonical — independent
of the arrival order (and thread interleaving) of its records.

Records arrive in whatever order failures happen to surface — and the
report is a lock-guarded accumulator any thread may append to; its
contract is that ``to_dict()``/``to_json()`` erase that nondeterminism.
"""

import json
import random
import threading

import pytest

from repro.resilience.degradation import (
    ACTION_CLASSIFY_ONLY,
    DegradationRecord,
    DegradationReport,
)


def _records(seed: int, n: int):
    rng = random.Random(seed)
    # Record kinds and actions are free-form strings: a cached profile
    # may carry ones the runtime no longer produces.
    kinds = ["worker_crash", "drop", "shed", "slow", "event-budget"]
    actions = ["retried", "conservative-fallback", "delayed",
               ACTION_CLASSIFY_ONLY]
    return [
        DegradationRecord(
            kind=rng.choice(kinds),
            rois=tuple(sorted(rng.sample(range(4), rng.randint(0, 3)))),
            events=rng.randrange(0, 500),
            action=rng.choice(actions),
            sets_complete=rng.random() < 0.5,
            use_callstacks_complete=rng.random() < 0.5,
            detail=f"detail-{rng.randrange(6)}",
        )
        for _ in range(n)
    ]


def _fill_concurrently(report: DegradationReport, records, n_threads: int,
                       seed: int) -> None:
    """Each thread adds a disjoint slice, interleaved at random."""
    slices = [records[i::n_threads] for i in range(n_threads)]
    barrier = threading.Barrier(n_threads)
    rng = random.Random(seed)
    delays = [[rng.random() * 0.0005 for _ in chunk] for chunk in slices]

    def writer(chunk, waits):
        barrier.wait()
        for record, wait in zip(chunk, waits):
            threading.Event().wait(wait)
            report.add(record)

    threads = [
        threading.Thread(target=writer, args=(chunk, waits))
        for chunk, waits in zip(slices, delays)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@pytest.mark.parametrize("seed", [0, 7, 42, 1234])
def test_concurrent_writers_serialize_canonically(seed):
    records = _records(seed, 60)

    # Oracle: sequential insertion in generated order.
    sequential = DegradationReport()
    for record in records:
        sequential.add(record)

    # Same records shuffled and raced across writer threads.
    shuffled = list(records)
    random.Random(seed + 1).shuffle(shuffled)
    concurrent = DegradationReport()
    _fill_concurrently(concurrent, shuffled, n_threads=4, seed=seed)

    assert concurrent.to_json() == sequential.to_json()
    assert concurrent.to_dict() == sequential.to_dict()
    payload = json.loads(concurrent.to_json())
    assert len(payload["records"]) == len(records)


def test_serialization_is_stable_across_repeats():
    records = _records(3, 30)
    outputs = set()
    for trial in range(5):
        shuffled = list(records)
        random.Random(trial).shuffle(shuffled)
        report = DegradationReport()
        _fill_concurrently(report, shuffled, n_threads=3, seed=trial)
        outputs.add(report.to_json())
    assert len(outputs) == 1


def test_records_sorted_by_stable_key():
    report = DegradationReport()
    late = DegradationRecord(kind="slow", rois=(0,), events=0,
                             action="delayed", sets_complete=True,
                             use_callstacks_complete=True)
    early = DegradationRecord(kind="drop", rois=(1,), events=5,
                              action="conservative-fallback",
                              sets_complete=False,
                              use_callstacks_complete=False)
    report.add(late)
    report.add(early)
    assert [r.kind for r in report.records()] == ["drop", "slow"]
    assert json.loads(report.to_json())["records"][0]["kind"] == "drop"
