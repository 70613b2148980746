"""The recording oracle must fold the accesses it is compared on.

The differential suites compare the production fold with the oracle of
:mod:`tests.helpers.decoder`, which is swapped in by patching the hook
adapter's per-site factory and its Pin fold.  If a run's probes
bypassed those patches, the oracle side would fold through the kernel,
and every differential would compare the kernel with itself and pass.
``decoder_fold`` therefore fails a block in which the oracle folded no
access.  These tests check that guard, and that the oracle folds
exactly the accesses the kernel counts.
"""

import types
from pathlib import Path

import pytest

from repro.compiler import compile_carmot
from repro.runtime.engine import CarmotHooks
from repro.vm import run_module
from tests.helpers.decoder import decoder_fold

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]

#: The ROI's only traffic is memcpy/qsort, which reaches the PSEC through
#: Pin accesses (§4.5).
PIN_HEAVY = """
int main() {
  int a[8];
  int b[8];
  for (int i = 0; i < 8; ++i) a[i] = 8 - i;
  #pragma carmot roi abstraction(parallel_for)
  {
    memcpy((char*) b, (char*) a, 64);
    qsort_int(b, 8);
  }
  print_int(b[0]);
  return 0;
}
"""


def _program(name):
    source = (REPO / "examples" / f"{name}.mc").read_text()
    return compile_carmot(source, name=f"examples/{name}.mc")


def test_a_block_that_folds_nothing_fails():
    with pytest.raises(AssertionError, match="folded no access"):
        with decoder_fold():
            pass


def test_a_run_that_bypasses_the_oracle_fails():
    """Hooks whose sites come from the kernel's factory, not the
    patched one, fold through the kernel; the guard catches it."""
    program = _program("roi_loop")
    kernel_sites = CarmotHooks.probe_site
    with pytest.raises(AssertionError, match="folded no access"):
        with decoder_fold():
            runtime, hooks = program.make_runtime()
            hooks.probe_site = types.MethodType(kernel_sites, hooks)
            run_module(program.module, hooks=hooks)
    assert runtime.stats.access_events > 0


@pytest.mark.parametrize("name", EXAMPLES)
def test_oracle_folds_every_probe_the_kernel_counts(name):
    program = _program(name)
    _, kernel = program.run()
    with decoder_fold() as folded:
        _, oracle = program.run()
    assert folded[0] == oracle.stats.access_events
    assert folded[0] == kernel.stats.access_events > 0


def test_oracle_folds_pin_accesses():
    program = compile_carmot(PIN_HEAVY, name="pin_heavy")
    with decoder_fold() as folded:
        _, runtime = program.run()
    assert runtime.stats.pin_accesses > 0
    assert folded[1] > 0
