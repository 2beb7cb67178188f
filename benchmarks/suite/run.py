"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

Without ``--workload`` all four workloads run, one after another.
Each runs in a fresh child process (``child.py``) with
``PYTHONHASHSEED=0``; the only other processes are the campaigns' two
pool workers.  Every metric is printed as ``workload metric value
unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer ones and writes ``spans.json`` and ``layers.json`` under
``<out>/<workload>/``.  The exit code is 0 only when every cell of
every workload passed its checks.

This file imports nothing from the package, so it can tell a checkout
without the package's sources apart from a failing benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: A child must finish well inside the 180 s one run may take.
CHILD_TIMEOUT_S = 170


def parse_args(argv: Optional[List[str]], declaration: dict):
    names = [workload["name"] for workload in declaration["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark."
    )
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the seed the golden pins")
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"],
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for spans, layers and scratch")
    parser.add_argument("--length", type=int, default=100_000,
                        help="accesses per trace")
    parser.add_argument("--golden", type=Path, default=HERE / "golden.json",
                        help="cell digests to check against")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's cell digests instead")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.length < 1000:
        parser.error("--length must be >= 1000")
    return args, names


def run_child(config: dict) -> Optional[dict]:
    """Run one workload; its result document, or None if it broke."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(config)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the child and its pool workers.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"benchmark: {config['workload']} exceeded "
              f"{CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"benchmark: {config['workload']} exited with code "
              f"{child.returncode} and no result", file=sys.stderr)
        return None


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    declaration_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        declaration_path.is_file()
    ):
        print(f"benchmark: {ROOT} holds no package sources to measure "
              "(expected src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    declaration = json.loads(declaration_path.read_text(encoding="utf-8"))
    args, names = parse_args(argv, declaration)
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    workloads = [args.workload] if args.workload else names
    summary: Dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        result = run_child({
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "out": str(args.out.resolve()),
            "length": args.length,
            "golden": str(args.golden.resolve()),
            "write_golden": args.write_golden,
        })
        if result is None:
            return 1
        metrics = result["metrics"]
        reported = {name: entry["unit"] for name, entry in metrics.items()}
        if reported != units:
            print(f"benchmark: {workload} reported {sorted(reported)}, "
                  f"BENCHMARK.json declares {sorted(units)}",
                  file=sys.stderr)
            return 1
        for name in units:
            print(f"{workload} {name} {_fmt(metrics[name]['value'])} "
                  f"{units[name]}")
        for name, value, unit in result["info"]:
            print(f"{workload} {name} {_fmt(value)} {unit}")
        for problem in result["problems"]:
            print(f"benchmark: {workload}: {problem}", file=sys.stderr)
        summary[workload] = metrics
        attempted += result["attempted"]
        failed += result["failed"]

    if args.workload:
        metrics = summary[args.workload]
    else:
        if args.trace:
            merged = {
                workload: json.loads(
                    (args.out / workload / "layers.json").read_text()
                )
                for workload in workloads
            }
            (args.out / "layers.json").write_text(
                json.dumps(merged, indent=2, sort_keys=True) + "\n"
            )
        metrics = {f"{workload}.{name}": entry
                   for workload, entries in summary.items()
                   for name, entry in entries.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
