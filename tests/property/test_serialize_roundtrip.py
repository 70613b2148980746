"""Round-trip properties of the versioned IR and profile serializers.

The artifact cache is only sound if serialization is a *normal form*:

- ``serialize(deserialize(serialize(m)))`` must equal ``serialize(m)``
  byte-for-byte, for every build mode (byte-identity);
- digests must not depend on process state — two interpreters with
  different hash seeds must agree (digest stability);
- a deserialized profile must preserve PSEC set membership *exactly* —
  a single element migrating between sets would silently change
  recommendations served from cache.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_baseline, compile_carmot, compile_naive
from repro.compiler.driver import frontend
from repro.resilience.budgets import ResiliencePolicy
from repro.ir.serialize import (
    deserialize_module,
    module_digest,
    serialize_module,
)
from repro.runtime.psec import SET_NAMES
from repro.runtime.psec_json import (
    deserialize_profile,
    psec_sets_digest,
    serialize_profile,
)
from repro.workloads import ALL_WORKLOADS

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]
BUILDS = {
    "plain": lambda src, name: frontend(src, name),
    "baseline": lambda src, name: compile_baseline(src, name).module,
    "naive": lambda src, name: compile_naive(src, name=name).module,
    "carmot": lambda src, name: compile_carmot(src, name=name).module,
}


def _source(name: str) -> str:
    return (REPO / "examples" / f"{name}.mc").read_text()


# -- IR byte-identity --------------------------------------------------------

@pytest.mark.parametrize("example", EXAMPLES)
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_ir_roundtrip_is_byte_identical(example, build):
    module = BUILDS[build](_source(example), example)
    text = serialize_module(module)
    again = serialize_module(deserialize_module(text))
    assert again == text


@pytest.mark.parametrize("example", EXAMPLES)
def test_ir_roundtrip_preserves_rendering(example):
    module = compile_carmot(_source(example), name=example).module
    restored = deserialize_module(serialize_module(module))
    assert str(restored) == str(module)
    assert module_digest(restored) == module_digest(module)


@settings(max_examples=25, deadline=None)
@given(
    bound=st.integers(1, 12),
    step=st.integers(1, 4),
    seed_val=st.integers(-40, 40),
    op=st.sampled_from(["+", "-", "*", "&", "^"]),
)
def test_generated_programs_roundtrip(bound, step, seed_val, op):
    source = f"""
    int main() {{
      int i, acc;
      acc = {seed_val if seed_val >= 0 else f"(0 - {-seed_val})"};
      #pragma carmot roi abstraction(parallel_for)
      for (i = 0; i < {bound}; i = i + {step}) {{
        acc = acc {op} i;
      }}
      print_int(acc);
      return 0;
    }}
    """
    for build in ("plain", "carmot"):
        module = BUILDS[build](source, "gen")
        text = serialize_module(module)
        assert serialize_module(deserialize_module(text)) == text


# -- digest stability across processes ---------------------------------------

_DIGEST_SCRIPT = """
import sys
from repro.compiler import compile_carmot
from repro.ir.serialize import module_digest
from repro.workloads import ALL_WORKLOADS
sources = [("roi_loop", open(sys.argv[1]).read())]
sources += [(w.name, w.test_source()) for w in ALL_WORKLOADS]
for name, source in sources:
    print(name, module_digest(compile_carmot(source, name=name).module))
"""


def test_module_digest_stable_across_process_hash_seeds(tmp_path):
    """Fresh interpreters place objects at different addresses and hash
    strings differently; neither may reach the CARMOT IR of
    ``roi_loop.mc`` or of any of the 15 ports (mem2reg once ordered its
    φ-nodes by block address)."""
    script = tmp_path / "digest.py"
    script.write_text(_DIGEST_SCRIPT)
    listings = set()
    for seed in ("0", "0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, str(script),
             str(REPO / "examples" / "roi_loop.mc")],
            capture_output=True, text=True, env=env, check=True,
        )
        listings.add(out.stdout)
    assert len(listings) == 1, f"digests vary across interpreters: {listings}"
    assert len(next(iter(listings)).splitlines()) == 16


# -- profile round-trip ------------------------------------------------------

STRUCT_LOCAL = """
struct P { int x; int y; };
int main() {
  struct P p;
  int i;
  p.x = 0;
  #pragma carmot roi abstraction(parallel_for)
  for (i = 0; i < 4; ++i) { p.x = p.x + i; }
  print_int(p.x);
  return 0;
}
"""

#: name → (source, run options): the examples and the 15 ports at test
#: size, plus one run the per-ROI event budget degrades, so degradation
#: records and inexact Sets go through the round trip too, and a PSE
#: whose variable has a struct type, so the profile's struct table does.
PROFILED = {name: (_source(name), {}) for name in EXAMPLES}
PROFILED.update({w.name: (w.test_source(), {}) for w in ALL_WORKLOADS})
PROFILED["roi_loop@events-per-roi=20"] = (
    _source("roi_loop"),
    {"resilience": ResiliencePolicy(max_events_per_roi=20)},
)
PROFILED["struct_local"] = (STRUCT_LOCAL, {})


def _profiled(example):
    source, options = PROFILED[example]
    program = compile_carmot(source, name=example)
    result, runtime = program.run(**options)
    return result, runtime


@pytest.mark.parametrize("example", sorted(PROFILED))
def test_profile_roundtrip_is_byte_identical(example):
    result, runtime = _profiled(example)
    text = serialize_profile(runtime, result)
    profile = deserialize_profile(text, runtime.module)
    assert serialize_profile(profile, profile.result) == text
    assert profile.degradation.to_json() == runtime.degradation.to_json()
    assert {roi: psec.sets_exact for roi, psec in profile.psecs.items()} \
        == {roi: psec.sets_exact for roi, psec in runtime.psecs.items()}
    if PROFILED[example][1]:
        assert profile.degraded
        assert not all(psec.sets_exact for psec in profile.psecs.values())
    # Encoded piecewise, the text is still the canonical dump of the
    # whole document: sorted keys, compact separators.
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"))


@pytest.mark.parametrize("example", sorted(PROFILED))
def test_profile_roundtrip_preserves_set_membership(example):
    result, runtime = _profiled(example)
    profile = deserialize_profile(
        serialize_profile(runtime, result), runtime.module
    )
    assert set(profile.psecs) == set(runtime.psecs)
    for roi, live in runtime.psecs.items():
        restored = profile.psecs[roi].sets()
        for set_name in SET_NAMES:
            assert restored[set_name] == live.sets()[set_name], \
                f"{example} roi {roi}: {set_name} membership changed"
    assert psec_sets_digest(profile.psecs) == psec_sets_digest(runtime.psecs)
