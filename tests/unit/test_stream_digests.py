"""Pinned Sets for the seeded event streams.

Each stream shape at seed 1234 is replayed through the per-site access
probes the VM calls, which fold each access as it arrives (20,000
events, ROI invocations of 500 events).  The Sets digest must equal the
recorded value: a fold change that moves any PSE between Sets shows up
here even when the kernel and the decoder oracle move together.
"""

import pytest

from tests.helpers.streams import (
    STREAM_SHAPES,
    make_stream,
    psec_digest,
    replay_stream,
    stream_runtime,
)

PINNED = {
    "scalar_loop":
        "99dd2a5ae7230724d965d56a7f23054697382d11d36a2810911d5da6dac2ab06",
    "mixed_loop":
        "d7784eb4331f7c2385db390455ec5a7694a5ec22ad5e473558c5a294cd8cdb76",
    "array_walk":
        "dfc2c9e7f4d8f754e1ec78f72bea9e70819007d21000e87cec35440d5f188b33",
    "read_write":
        "db9617202e8670db83af123ec11dd5693ed5ca45f2f703b2df1d6578232237a2",
}


@pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
def test_stream_digest_pinned(shape):
    runtime = stream_runtime()
    replay_stream(runtime, make_stream(1234, 20_000, shape),
                  invocation_len=500)
    assert psec_digest(runtime) == PINNED[shape]
