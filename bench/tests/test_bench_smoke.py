"""One request per pair on every workload, every answer checked."""

import json
from time import perf_counter

import pytest

import drive
from plans import VARIANTS, WORKLOADS, Item, pairs

ROOT = drive.ROOT


@pytest.fixture(scope="module")
def elapsed():
    spent = []
    yield spent
    assert sum(spent) < 60, f"smoke runs took {sum(spent):.1f} s"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_request_per_pair(name, tmp_path, elapsed):
    spec = WORKLOADS[name]
    # serve_mix cycles through the three variants; the others use theirs.
    variants = VARIANTS if spec.serve else spec.mix
    plan = [Item(program, kind, variants[i % len(variants)])
            for i, (program, kind) in enumerate(pairs(drive.programs()))]
    start = perf_counter()
    workload = drive.Workload(spec, tmp_path / "work")
    try:
        workload.setup()
        result = workload.measure(plan)
    finally:
        workload.close()
    elapsed.append(perf_counter() - start)
    assert result["attempted"] == 30
    assert result["failed"] / result["attempted"] == 0, result["errors"]
    assert set(result["metrics"]) == set(drive.END_TO_END_UNITS) - {"setup_s"}
    assert all(value > 0 for value in result["metrics"].values())


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == drive.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == drive.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
