"""Benchmark entry point: run one workload (or all four) and report.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign-iid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json

The program is imported from ``src/`` next to this directory; without it
the command exits 2 and prints no result.  Human-readable lines go to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the BENCHMARK.json
``end_to_end`` metrics with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  The exit code is 1 when any output check fails.  Every
run also writes ``perfbench/out/<workload>-seed<N>-trace<T>.json`` with
the run metadata, the workload-specific metrics and the failed checks.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metadata(ctx, backend: Optional[str], clients: Optional[int]) -> Dict[str, Any]:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "commit": commit,
        "seed": ctx.seed,
        "size": ctx.size,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "clients": clients,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def resolved_backend() -> str:
    from repro.rs.backends import resolve_engine

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return resolve_engine("auto")[1]


def run_one(args) -> int:
    import workloads
    from layers import complete

    spec = load_spec()
    reference = json.loads(Path(args.reference).read_text())
    ctx = workloads.Context(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        size=args.size,
        trace=bool(args.trace),
        reference=reference,
    )
    started = time.perf_counter()
    try:
        result = workloads.run(ctx, args.workload)
    except Exception as exc:  # noqa: BLE001 - report, then fail the run
        import traceback

        traceback.print_exc()
        result = workloads.Result()
        result.op(False, f"workload raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started

    ratio = result.failed / result.attempted if result.attempted else 1.0
    if not ctx.trace:
        result.e2e["failed_ops_ratio"] = (ratio, "ratio", result.attempted)
    meta = metadata(ctx, resolved_backend(), result.info.get("clients"))
    correct = result.failed == 0 and result.attempted > 0

    w = args.workload
    print(f"# {w}  seed={ctx.seed}  size={ctx.size}  trace={int(ctx.trace)}  "
          f"backend={meta['backend']}  nproc={meta['nproc']}  wall={wall:.1f}s")
    for name, (value, unit, samples) in result.e2e.items():
        print(f"{w:16s} {name:24s} {value:14.6g} {unit:6s} n={samples}")
    if ctx.trace:
        for name, entry in complete(result.layer).items():
            print(f"{w:16s} {name:32s} {entry['value']:14.6g} {entry['unit']}")
    for failure in result.failures:
        print(f"{w:16s} CHECK FAILED: {failure}")

    if ctx.trace:
        metrics = complete(result.layer)
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in result.generic:
                correct = False
                print(f"{w:16s} MISSING METRIC: {m['name']}")
                continue
            metrics[m["name"]] = {"value": result.generic[m["name"]], "unit": m["unit"]}

    record = {
        "workload": w,
        "metadata": meta,
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "metrics": {
            name: {"value": v, "unit": u, "samples": n}
            for name, (v, u, n) in result.e2e.items()
        },
        "per_layer": complete(result.layer) if ctx.trace else {},
        "generic": metrics,
        "info": result.info,
    }
    ctx.out.mkdir(parents=True, exist_ok=True)
    out = ctx.out / f"{w}-seed{ctx.seed}-trace{int(ctx.trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed if result.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    import workloads

    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Any] = {}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--reference", str(args.reference)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct &= bool(summary["correct"]) and proc.returncode == 0
        attempted += summary["attempted"]
        failed += summary["failed"]
        metrics.update({f"{w}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def compare(paths: List[str]) -> int:
    """Print metric ratios of two result files; refuse mixed backends."""
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    backends = (a["metadata"]["backend"], b["metadata"]["backend"])
    if backends[0] != backends[1]:
        print(f"refusing to compare: `auto` resolved to {backends[0]!r} in "
              f"{paths[0]} but to {backends[1]!r} in {paths[1]}", file=sys.stderr)
        return 2
    if a["workload"] != b["workload"]:
        print(f"refusing to compare workloads {a['workload']!r} and "
              f"{b['workload']!r}", file=sys.stderr)
        return 2
    for key in ("metrics", "per_layer"):
        for name in sorted(set(a[key]) & set(b[key])):
            va, vb = a[key][name]["value"], b[key][name]["value"]
            ratio = f"{vb / va:8.3f}x" if va else "     n/a"
            print(f"{name:32s} {va:14.6g} {vb:14.6g} {ratio}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The program under test is the source next to the benchmark, never
    # an installed copy.
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
