"""Command-line interface: ``python -m repro <file.mc> [options]``.

Mirrors how a programmer invokes CARMOT: point it at a source file whose
ROIs carry ``#pragma carmot roi`` annotations, and it profiles one
execution and prints the recommendation for every ROI.

Subcommands:

- ``recommend`` (default) — profile and print abstraction recommendations;
- ``psec``      — print the raw Sets of every ROI;
- ``overhead``  — compare baseline/naive/CARMOT cost on the program;
- ``ir``        — dump the (optionally instrumented) IR;
- ``dis``       — disassemble the lowered register bytecode;
- ``serve``     — long-lived profiling daemon on a Unix socket
  (``--stats``/``--shutdown`` talk to a running daemon);
- ``request``   — send one request to a running daemon and print the
  response exactly as the local subcommand would;
- ``cache``     — artifact-cache maintenance (stats/clear/verify).

Request throughput and latency are measured end to end by
``bench/run.py`` at the repository root, not by a subcommand.

Every profiling subcommand is a thin client of the service layer
(:mod:`repro.service`): the command body builds a typed request, executes
it through :class:`~repro.service.ServiceCore` (or ships it to a daemon
via :class:`~repro.service.ServiceClient`), and renders the response
document with the pure formatters in :mod:`repro.service.format`.  The
CLI and a daemon client are therefore the same code path by construction
— the bytes printed are a function of the response document alone.

Unchanged source + pipeline + runtime config loads IR and PSECs from the
artifact cache instead of recompiling and re-running the VM.
``--no-cache`` forces every stage live; ``--cache-dir`` (or
``$REPRO_CACHE_DIR``) relocates the store from the default
``.repro-cache/``.  Cached and live runs print byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro._version import __version__
from repro.errors import ReproError
from repro.resilience.budgets import MAX_CALL_DEPTH
from repro.service import (
    REQUEST_KINDS,
    DisRequest,
    IrRequest,
    OverheadRequest,
    PsecRequest,
    RecommendRequest,
    Rendered,
    RenderOptions,
    RunOptions,
    ServiceClient,
    ServiceCore,
    render_response,
)
from repro.session import ArtifactStore


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise ReproError(str(error)) from None
    except UnicodeDecodeError as error:
        raise ReproError(f"{path}: source is not UTF-8 ({error})") from None


def _emit(rendered: Rendered) -> int:
    if rendered.out:
        sys.stdout.write(rendered.out)
    if rendered.err:
        sys.stderr.write(rendered.err)
    return rendered.exit_code


def _build_request(kind: str, args: argparse.Namespace, source: str):
    """The typed service request for one subcommand invocation."""
    options = RunOptions.from_args(args)
    common = {"source": source, "name": args.file, "options": options}
    if kind == "ir":
        return IrRequest(mode=getattr(args, "mode", None) or "plain",
                         **common)
    if kind == "dis":
        return DisRequest(mode=getattr(args, "mode", None) or "carmot",
                          **common)
    return {
        "recommend": RecommendRequest,
        "psec": PsecRequest,
        "overhead": OverheadRequest,
    }[kind](**common)


def _cmd_execute(args: argparse.Namespace) -> int:
    """Shared body of recommend/psec/overhead/ir/dis: build the request,
    execute it in-process, render the response document."""
    source = _read(args.file)
    request = _build_request(args.kind, args, source)
    core = ServiceCore(cache_dir=getattr(args, "cache_dir", None))
    doc = core.execute(request)
    return _emit(render_response(doc, RenderOptions.from_args(args)))


def _cmd_request(args: argparse.Namespace) -> int:
    """Like ``_cmd_execute``, over a serve daemon's socket instead of
    in-process — same request document, same renderer, same bytes."""
    source = _read(args.file)
    request = _build_request(args.kind, args, source)
    with ServiceClient(args.socket, namespace=args.namespace,
                       timeout=args.timeout) as client:
        doc = client.request(request)
    return _emit(render_response(doc, RenderOptions.from_args(args)))


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.stats:
        with ServiceClient(args.socket) as client:
            doc = client.stats()
        print(json.dumps(doc["body"], indent=2, sort_keys=True))
        return 0
    if args.shutdown:
        with ServiceClient(args.socket) as client:
            doc = client.shutdown()
        body = doc["body"]
        print(f"daemon draining {body['draining']} in-flight request(s); "
              f"served {body['served']} total")
        return 0

    import asyncio

    from repro.service.daemon import ServeDaemon

    daemon = ServeDaemon(
        socket_path=args.socket,
        cache_dir=getattr(args, "cache_dir", None),
        workers=args.workers,
        queue_bound=args.queue,
        queue_policy=args.queue_policy,
    )

    def announce(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    try:
        asyncio.run(daemon.run(announce=announce))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = ArtifactStore.open(getattr(args, "cache_dir", None))
    if args.action == "stats":
        stats = store.stats()
        print(f"cache dir : {store.root}")
        print(f"entries   : {stats.entries}")
        print(f"bytes     : {stats.payload_bytes}")
        for kind in sorted(stats.by_kind):
            print(f"  {kind:8s}: {stats.by_kind[kind]}")
        for name in sorted(stats.by_namespace):
            ns = stats.by_namespace[name]
            print(f"namespace {name}: {ns['entries']} entr(ies), "
                  f"{ns['payload_bytes']} bytes")
        print(f"session   : {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.evicted_corrupt} corrupt entr(ies) evicted")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entr(ies) from {store.root}")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"checked {report['checked']} entr(ies): {report['ok']} ok, "
              f"{report['evicted']} corrupt (evicted)")
        for name in sorted(report["by_namespace"]):
            ns = report["by_namespace"][name]
            print(f"  {name}: {ns['checked']} checked, {ns['ok']} ok, "
                  f"{ns['evicted']} evicted")
        return 0 if report["evicted"] == 0 else 1
    raise ReproError(f"unknown cache action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CARMOT reproduction: PSEC profiling of MiniC programs",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="MiniC source file")
        p.add_argument("--abstraction", default=None,
                       choices=["parallel_for", "task", "smart_pointers",
                                "stats"],
                       help="override the abstraction named in the pragma")
        p.add_argument(
            "--recommenders", default=None, metavar="SELECTION",
            help="recommender selection à la --passes, e.g. 'roles', "
                 "'paper,reduction_hint' or 'all,-stats' (aliases: paper, "
                 "roles, all; '-name' removes a recommender; default "
                 "'roles' adds the role-driven hints to the JSON document "
                 "without changing the rendered recommendation)",
        )
        p.add_argument("--entry", default="main")
        p.add_argument(
            "--budget", default=None, metavar="SPEC",
            help="VM budgets and the per-ROI event budget, e.g. "
                 "'steps=5000000,heap=1048576,depth=256,"
                 "events-per-roi=20000' (an ROI past its event budget "
                 "degrades to conservative Sets; depth is at most "
                 f"{MAX_CALL_DEPTH}, the call-depth ceiling every run has)",
        )
        p.add_argument(
            "--passes", default=None, metavar="PIPELINE",
            help="explicit pass pipeline à la LLVM's -passes=, e.g. "
                 "'carmot,-pin-reduction' or 'selective-mem2reg,instrument' "
                 "(aliases: carmot, naive, baseline; '-name' removes a pass)",
        )
        p.add_argument(
            "--print-pass-stats", action="store_true",
            help="print per-pass wall time, analysis cache hits/misses, "
                 "and IR deltas for the compilation pipeline (implies "
                 "--no-cache: the report only exists on a live compile)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="artifact cache location (default: $REPRO_CACHE_DIR or "
                 "./.repro-cache)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="run every stage live; do not read or write the cache",
        )
        p.add_argument(
            "--cache-stats", action="store_true",
            help="report per-stage cache hit/miss on stderr (a repeated "
                 "psec/recommend is one stored response: response=hit)",
        )

    def tracing(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", action="store_true",
            help="stream an execution trace to stderr — one line per "
                 "bytecode instruction; implies --no-cache (the trace "
                 "only exists on a live run)",
        )

    rec = sub.add_parser("recommend", help="print recommendations (default)")
    common(rec)
    tracing(rec)
    rec.add_argument("--show-output", action="store_true")
    rec.add_argument(
        "--json", action="store_true",
        help="print the structured service response document instead of "
             "the human rendering",
    )
    rec.set_defaults(func=_cmd_execute, kind="recommend")

    psec = sub.add_parser("psec", help="print the raw PSEC sets")
    common(psec)
    tracing(psec)
    psec.add_argument(
        "--json", action="store_true",
        help="print the canonical sets-level JSON document (the "
             "psec_sets_digest material) instead of the human listing — "
             "byte-identical across runs with identical Sets",
    )
    psec.set_defaults(func=_cmd_execute, kind="psec")

    over = sub.add_parser("overhead", help="baseline/naive/carmot cost")
    common(over)
    over.add_argument(
        "--json", action="store_true",
        help="print the structured service response document instead of "
             "the human rendering",
    )
    over.set_defaults(func=_cmd_execute, kind="overhead")

    ir = sub.add_parser("ir", help="dump IR")
    common(ir)
    ir.add_argument("--mode", default="plain",
                    choices=["plain", "baseline", "naive", "carmot"])
    ir.set_defaults(func=_cmd_execute, kind="ir")

    dis = sub.add_parser(
        "dis", help="disassemble the lowered register bytecode"
    )
    common(dis)
    dis.add_argument("--mode", default="carmot",
                     choices=["baseline", "naive", "carmot"],
                     help="pipeline to lower before disassembling "
                          "(default: carmot, the instrumented build)")
    dis.set_defaults(func=_cmd_execute, kind="dis")

    serve = sub.add_parser(
        "serve",
        help="profiling daemon on a Unix socket (length-prefixed JSON)",
        epilog="The daemon multiplexes concurrent requests onto one "
               "artifact store; clients pick a --namespace for an "
               "isolated cache partition.  Past the queue bound the "
               "'shed' policy answers with a canonical overloaded "
               "response (clients exit 2); 'block' parks requests until "
               "a worker frees up.  --stats and --shutdown talk to an "
               "already-running daemon on the same socket.",
    )
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="Unix socket path to listen on (or to query "
                            "with --stats/--shutdown)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="artifact cache location (default: "
                            "$REPRO_CACHE_DIR or ./.repro-cache)")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="worker threads executing requests (default 4)")
    serve.add_argument("--queue", type=int, default=16, metavar="N",
                       help="admission bound on queued requests "
                            "(0 = unbounded; default 16)")
    serve.add_argument("--queue-policy", default="shed",
                       choices=["block", "shed"],
                       help="past the bound: park new requests (block) or "
                            "answer overloaded immediately (shed, default)")
    serve.add_argument("--stats", action="store_true",
                       help="print a running daemon's metrics as JSON")
    serve.add_argument("--shutdown", action="store_true",
                       help="ask a running daemon to drain and exit")
    serve.set_defaults(func=_cmd_serve)

    req = sub.add_parser(
        "request",
        help="send one request to a running serve daemon",
        epilog="Output is byte-identical to running the same subcommand "
               "locally: both render the same service response document.",
    )
    req.add_argument("kind", choices=list(REQUEST_KINDS),
                     help="which subcommand to run remotely")
    common(req)
    req.add_argument("--socket", required=True, metavar="PATH",
                     help="Unix socket of the serve daemon")
    req.add_argument("--namespace", default=None, metavar="NAME",
                     help="cache namespace on the daemon's store "
                          "(isolated partition per client)")
    req.add_argument("--timeout", type=float, default=60.0, metavar="S",
                     help="socket timeout in seconds (default 60)")
    req.add_argument("--json", action="store_true",
                     help="print the structured response document "
                          "(psec: the canonical sets-level document)")
    req.add_argument("--show-output", action="store_true")
    req.add_argument("--mode", default=None,
                     choices=["plain", "baseline", "naive", "carmot"],
                     help="ir/dis pipeline mode (defaults: ir=plain, "
                          "dis=carmot)")
    req.set_defaults(func=_cmd_request)

    cache = sub.add_parser(
        "cache", help="artifact cache maintenance (stats/clear/verify)"
    )
    cache.add_argument("action", choices=["stats", "clear", "verify"],
                       help="stats: entries/bytes per kind and namespace; "
                            "clear: delete all entries; verify: re-hash "
                            "and evict corrupt entries, per namespace")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="artifact cache location (default: "
                            "$REPRO_CACHE_DIR or ./.repro-cache)")
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Default subcommand: treat `repro foo.mc` as `repro recommend foo.mc`.
    known = {"recommend", "psec", "overhead", "ir", "dis", "serve",
             "request", "cache", "-h", "--help", "--version"}
    if argv and argv[0] not in known:
        argv.insert(0, "recommend")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
