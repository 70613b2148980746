#!/usr/bin/env python3
"""End-to-end request benchmark: ``psec`` / ``recommend`` on the 15 ports.

Run from the root of a checkout::

    python3 bench/run.py [--workload NAME]... [--seed 1234] [--seconds S]
                         [--trace [0|1]] [--repeat N] [--out FILE]
    python3 bench/run.py compare A.json B.json
    python3 bench/run.py --write-expected

Each run of a workload spawns fresh child processes
(``bench/run.py --child NAME``): the set-up is timed in ``SETUPS``
of them and the last one goes on to the timed phase.  ``--trace`` runs
the workload once untraced and once with layer spans, and prints where
the time went instead of the end-to-end metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import hostspeed
from plans import WORKLOADS, blocks_for, make_plan
from stats import spread

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3
#: A child still running after this many seconds is stopped.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def _benchmark() -> Dict[str, object]:
    return json.loads(BENCHMARK.read_text())


# -- children -----------------------------------------------------------------


def _child_main(args: argparse.Namespace) -> int:
    import drive

    spec = WORKLOADS[args.child]
    plan = make_plan(spec, drive.programs(), args.seed,
                     blocks_for(spec, args.seconds))
    result = drive.run_child(
        spec, plan, bool(args.trace),
        ready=lambda scales: print("READY", json.dumps(scales), flush=True),
        setup_only=args.setup_only)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


def _spawn(name: str, seed: int, seconds: float, trace: bool,
           setup_only: bool = False
           ) -> Tuple[float, List[float], Optional[dict]]:
    """(set-up seconds, host speeds during set-up, result) of one child:
    set-up runs from the spawn until the child reports ready."""
    command = [sys.executable, str(BENCH / "run.py"), "--child", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    # A fixed hash seed keeps set and dict orders, and so the work, the
    # same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.terminate)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _stop(proc)
    word, _, scales = ready.partition(" ")
    if word != "READY" or code != 0:
        raise BenchError(f"{name}: child exited with code {code}")
    result = None if setup_only else json.loads(rest.splitlines()[-1])
    return setup_s, json.loads(scales), result


def _stop(proc: subprocess.Popen) -> None:
    """Let a child still running shut its daemon down, then make sure."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, object]:
    """One run of one workload, as the child reported it plus set-up."""
    if trace:
        untraced = _spawn(name, seed, seconds, trace=False)[2]
        result = _spawn(name, seed, seconds, trace=True)[2]
        result["layers"]["trace.overhead_pct"] = 100 * (
            1 - result["metrics"]["req_per_s"]
            / untraced["metrics"]["req_per_s"])
        return result
    cpus = hostspeed.work_cpus(WORKLOADS[name].serve)
    setups, scaled = [], []
    for index in range(SETUPS):
        # The host is timed just before the spawn and by the child while
        # it sets up; the set-up is scaled by the median of those samples.
        before = hostspeed.sample(cpus)
        setup_s, scales, result = _spawn(name, seed, seconds, False,
                                         setup_only=index < SETUPS - 1)
        setups.append(setup_s)
        scaled.append(setup_s * statistics.median([before] + scales))
    result["setups"] = scaled
    result["raw"]["setup_s"] = statistics.median(setups)
    result["metrics"]["setup_s"] = statistics.median(scaled)
    return result


# -- reporting ----------------------------------------------------------------


def _print_run(result: Dict[str, object], trace: bool) -> None:
    import drive

    n = result["n"]
    print(f"== {result['workload']}: {n} requests in "
          f"{result['wall_s']:.2f} s, failed {result['failed']}")
    for error in result["errors"]:
        print(f"   error: {error}")
    if trace:
        _print_layers(result)
        return
    metrics = result["metrics"]
    for name, unit in drive.END_TO_END_UNITS.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{result['tail_q'] * 100:g} of n={n})"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(
                f"{s:.3f}" for s in result["setups"]) + ")"
        print(f"   {name:<20} {metrics[name]:>10.3f} {unit:<6}{note}")
    print(f"   {'error_rate':<20} {result['failed'] / n:>10.3f} ratio")
    print("   median ms per pair:")
    pairs = result["pairs"]
    for program in drive.programs():
        print(f"     {program:<14} psec {pairs[program + '/psec']:>9.2f}"
              f"   recommend {pairs[program + '/recommend']:>9.2f}")


def _print_layers(result: Dict[str, object]) -> None:
    from tracing import SPANS

    layers = result["layers"]
    wall_ms = result["latency_mean_ms"]
    print(f"   {'span':<28} {'self ms/req':>12} {'% of wall':>10} "
          f"{'calls/req':>10}")
    for span in SPANS:
        self_ms = layers[f"{span}.self_ms"]
        print(f"   {span:<28} {self_ms:>12.3f} "
              f"{100 * self_ms / wall_ms:>10.1f} "
              f"{layers[f'{span}.calls']:>10.2f}")
    for name, value in layers.items():
        if not name.endswith((".self_ms", ".calls")):
            print(f"   {name:<28} {value:>12.3f}")


def _summary_line(results: Dict[str, List[dict]], trace: bool) -> str:
    """The contract line: medians over repeats, names prefixed with the
    workload when there are several."""
    import drive

    units = drive.PER_LAYER_UNITS if trace else drive.END_TO_END_UNITS
    key = "layers" if trace else "metrics"
    attempted = failed = 0
    metrics = {}
    for workload, runs in results.items():
        attempted += sum(run["attempted"] for run in runs)
        failed += sum(run["failed"] for run in runs)
        prefix = f"{workload}." if len(results) > 1 else ""
        for name, unit in units.items():
            value = statistics.median(run[key][name] for run in runs)
            metrics[prefix + name] = {"value": value, "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _write_layers(results: Dict[str, List[dict]]) -> None:
    path = OUT / "layers.json"
    layers = json.loads(path.read_text()) if path.exists() else {}
    for workload, runs in results.items():
        layers[workload] = runs[-1]["layers"]
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(layers, indent=1, sort_keys=True) + "\n")


def _host() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


# -- compare ------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Verdict per (workload, metric) of B against A under the bounds in
    BENCHMARK.json; exits 1 when any is worse."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    any_worse = False
    print(f"{'workload':<11} {'metric':<20} {'A median':>10} {'B median':>10} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in [w for w in a["runs"] if w in b["runs"]]:
        for metric in _benchmark()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            va = [run[name] for run in a["runs"][workload]]
            vb = [run[name] for run in b["runs"][workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            worse_by = change if lower else -change
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if all_better:
                verdict = "within bound"
            elif max(spread(va), spread(vb)) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "within bound"
            print(f"{workload:<11} {name:<20} {ma:>10.3f} {mb:>10.3f} "
                  f"{100 * change:>+7.1f}% {100 * bound:>5.0f}%  {verdict}")
    return 1 if any_worse else 0


# -- main ---------------------------------------------------------------------


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal timed seconds per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="print per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload")
    parser.add_argument("--out", help="write every run's metrics here "
                                      "(input to compare)")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected_digests.json with the "
                             "tree-walk oracle")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = _parse(argv)
    # On SIGTERM unwind normally, so that children and daemons are
    # stopped and work directories removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _use_checkout_source()
    if args.child:
        return _child_main(args)
    if args.write_expected:
        import drive

        drive.EXPECTED_PATH.write_text(json.dumps(
            drive.expected_digests(), indent=1, sort_keys=True) + "\n")
        return 0
    seconds = args.seconds or _benchmark()["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    results: Dict[str, List[dict]] = {}
    try:
        for name in workloads:
            for _ in range(args.repeat):
                result = run_workload(name, args.seed, seconds, trace)
                _print_run(result, trace)
                results.setdefault(name, []).append(result)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if trace:
        _write_layers(results)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": seconds, "host": _host(),
            "runs": {w: [dict(run["metrics"], failed=run["failed"],
                              raw=run["raw"])
                         for run in runs] for w, runs in results.items()},
        }, indent=1) + "\n")
    print(_summary_line(results, trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
