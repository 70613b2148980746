"""``repro serve`` with the benchmark's layer wrappers installed.

Runs the same daemon as ``python -m repro serve`` (default workers and
queue) and, when it shuts down, writes every span it recorded to
``--spans-out`` as a JSON list of :class:`tracing.Span` rows.

    PYTHONPATH=src python bench/serve_traced.py --socket S --cache-dir D \\
        --spans-out spans.json
"""

from __future__ import annotations

import argparse
import asyncio
import json

from tracing import Tracer

from repro.service.daemon import ServeDaemon


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    tracer.install()
    try:
        asyncio.run(ServeDaemon(args.socket, cache_dir=args.cache_dir).run())
    finally:
        tracer.uninstall()
        with open(args.spans_out, "w") as out:
            json.dump(tracer.spans, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
