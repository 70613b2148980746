"""The tree-walk oracle pins what the bytecode VM is held to.

- **Benchmark digests.**  ``bench/expected_digests.json`` holds one
  response digest per (workload, size, kind).  Every ``test``-size
  entry must come out of the tree-walk oracle, routed through
  :class:`~repro.service.ServiceCore` with the artifact cache off, so
  the benchmark's pinned answers are the oracle's answers.  The file is
  read, never written.
- **Figure 6 line profile.**  The bytecode VM's per-source-line costs,
  and the loop and sections profile built beside them, equal the
  oracle's on the baseline build of every Figure 6 workload.
"""

import json
from pathlib import Path

import pytest

import repro.compiler.driver as driver
from repro.compiler import compile_baseline
from repro.parallel.profile import profile_execution
from repro.service import (
    PsecRequest,
    RecommendRequest,
    RunOptions,
    ServiceCore,
    response_digest,
)
from repro.workloads import ALL_WORKLOADS, figure6_workloads
from tests.helpers.treewalk import (
    profile_treewalk,
    run_treewalk,
    treewalk_engine,
)

EXPECTED = (Path(__file__).resolve().parents[2] / "bench"
            / "expected_digests.json")
REQUESTS = {"psec": PsecRequest, "recommend": RecommendRequest}


def test_oracle_reproduces_the_pinned_test_size_digests():
    expected = {key: digest
                for key, digest in json.loads(EXPECTED.read_text()).items()
                if key.split("/")[1] == "test"}
    assert len(expected) == 2 * len(ALL_WORKLOADS)
    core = ServiceCore()
    oracle = RunOptions(no_cache=True)
    digests = {}
    with treewalk_engine():
        assert driver.run_module is run_treewalk
        for w in ALL_WORKLOADS:
            source = w.source(w.test_params)
            for kind, request_type in REQUESTS.items():
                doc = core.execute(request_type(source=source, name=w.name,
                                                options=oracle))
                assert doc["ok"], (w.name, kind, doc["error"])
                digests[f"{w.name}/test/{kind}"] = response_digest(doc)
    assert digests == expected


def _profile_state(profile):
    result = profile.result
    return (profile.loops, profile.sections, profile.total_cost,
            profile.line_costs, result.output, result.cost,
            result.instructions)


@pytest.mark.parametrize("name", [w.name for w in figure6_workloads()])
def test_line_profile_matches_the_oracle(name):
    workload = next(w for w in figure6_workloads() if w.name == name)
    module = compile_baseline(workload.test_source("openmp"),
                              workload.name).module
    oracle = profile_treewalk(module)
    assert oracle.line_costs
    assert _profile_state(profile_execution(module)) == \
        _profile_state(oracle)
