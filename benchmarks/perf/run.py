"""The repo's benchmark: one command, every metric by name and unit.

    python benchmarks/perf/run.py [--workload NAME] [--seed 0]
                                  [--seconds 15] [--trace [0|1]]
                                  [--selfcheck [N]]

Runs each workload in its own fresh interpreter (``worker.py``), checks
every answer, and prints the end-to-end metrics; with ``--trace`` it
re-runs the workload with harness-installed spans and prints the
per-layer metrics and the tracing overhead.  ``--selfcheck`` runs two
back-to-back sets of runs on the same code and fails if their medians
disagree by more than the benchmark's own bounds.

The driver's form, ``--workload W --seed N --seconds S --trace 0|1``,
prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric for
``--trace 0``, every per-layer metric for ``--trace 1``).  See
README.md for the workloads, the metrics and the timing protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalogue import (  # noqa: E402
    CONTRACT_END_TO_END,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_NAMES,
    Metric,
)

SRC_DIR = HERE.parents[1] / "src"
#: The driver allows a run 180 s; a worker that hangs is stopped first.
WORKER_TIMEOUT_S = 170


def worker_env() -> Dict[str, str]:
    """Fixed hash seed and single-threaded BLAS for every worker."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    return env


def run_worker(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """One workload run in a fresh interpreter; its result object."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=worker_env()
    )
    try:
        output, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        # Timeout or Ctrl-C: SIGTERM lets the worker reap its server
        # child and remove its scratch directory before it goes.
        child.terminate()
        try:
            child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    if child.returncode != 0:
        raise SystemExit(
            f"error: {workload} worker exited with code {child.returncode}"
        )
    lines = output.strip().splitlines()
    try:
        return dict(json.loads(lines[-1]))
    except (IndexError, ValueError):
        raise SystemExit(f"error: {workload} worker printed no result")


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #


def _format(value: Optional[float]) -> str:
    if value is None:
        return "absent"
    if value == 0 or abs(value) >= 1000:
        return f"{value:,.0f}" if value == int(value) else f"{value:,.1f}"
    return f"{value:.4g}"


def print_end_to_end(result: Dict[str, Any]) -> None:
    values = result["end_to_end"]
    print(
        f"\n{result['workload']}  seed {result['seed']}  scale "
        f"{result['scale']}: {result['passes']} passes, "
        f"{result['calls']} timed calls "
        f"({result['calls_beyond_p99']} beyond the pooled 99th percentile), "
        f"{result['timed_s']:.1f} s timed, "
        f"{result['failed']}/{result['attempted']} failed"
    )
    if result["served"]:
        served = result["served"]
        print(
            f"  server: {served['trips_admitted']} trips sent, "
            f"{served['trips_answered']} succeeded, "
            f"{served['trips_failed']} failed, {served['rejected']} x 429"
        )
    # Beside each quietest-observation timing: the median over passes
    # (throughput, ingest) or the percentile of the pooled calls.
    sustained = {k: _format(v) for k, v in result["sustained"].items()}
    print(f"  {'metric':<26}{'value':>12}{'median/pooled':>15}")
    for metric in END_TO_END:
        bound = (
            "any" if metric.bound == 0 else f"{100 * (metric.bound or 0):.0f}%"
        )
        print(
            f"  {metric.name:<26}{_format(values[metric.name]):>12}"
            f"{sustained.get(metric.name, ''):>15} "
            f"{metric.unit:<10} {metric.better} is better, "
            f"regression beyond {bound}"
        )


def print_per_layer(result: Dict[str, Any]) -> None:
    values = result["per_layer"]
    print(f"\n{result['workload']}  per layer (traced run, seed {result['seed']})")
    for metric in PER_LAYER:
        print(
            f"  {metric.name:<38}{_format(values[metric.name]):>12} "
            f"{metric.unit}"
        )


def contract_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The driver's result object.  A layer the workload bypasses does
    no work, so its absent metrics read 0 here."""
    if trace:
        metrics = {
            m.name: {"value": result["per_layer"][m.name] or 0, "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name], "unit": m.unit}
            for m in CONTRACT_END_TO_END
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------------- #
# Self-check
# ---------------------------------------------------------------------- #


def worsening(metric: Metric, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if metric.better == "lower" else -change


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def selfcheck(
    workloads: Sequence[str], n_runs: int, seed: int, seconds: float
) -> int:
    """Two back-to-back sets of ``n_runs`` runs (seeds ``seed`` ..) plus
    one traced run per set; the two medians of every end-to-end metric
    must agree within its bound, whichever set is the worse one, and
    every exact count must be identical."""
    problems: List[str] = []
    for workload in workloads:
        sets: List[List[Dict[str, Any]]] = []
        traced: List[Dict[str, Any]] = []
        for _ in range(2):
            sets.append([
                run_worker(workload, seed + i, seconds, False)
                for i in range(n_runs)
            ])
            traced.append(run_worker(workload, seed, seconds, True))
        print(f"\n{workload}: two sets of {n_runs} runs, seeds {seed}..{seed + n_runs - 1}")
        print(
            f"  {'metric':<26}{'median A':>12}{'median B':>12}{'gap':>9}"
            f"{'bound':>8}{'spread A':>10}{'spread B':>10}"
        )
        for metric in END_TO_END:
            first, second = (
                [run["end_to_end"][metric.name] for run in runs] for runs in sets
            )
            gap = worsening(
                metric, statistics.median(first), statistics.median(second)
            )
            ok = abs(gap) <= (metric.bound or 0)
            print(
                f"  {metric.name:<26}{_format(statistics.median(first)):>12}"
                f"{_format(statistics.median(second)):>12}{100 * gap:>+8.1f}%"
                f"{100 * (metric.bound or 0):>7.0f}%{100 * spread(first):>9.1f}%"
                f"{100 * spread(second):>9.1f}%{'' if ok else '  EXCEEDED'}"
            )
            if not ok:
                problems.append(f"{workload} {metric.name} gap {100 * gap:+.1f}%")
        for runs in sets:
            for run in runs:
                if not run["correct"]:
                    problems.append(f"{workload} seed {run['seed']} failed answers")
        differing = [
            metric.name
            for metric in PER_LAYER
            if metric.exact
            and traced[0]["per_layer"][metric.name]
            != traced[1]["per_layer"][metric.name]
        ]
        print(
            "  exact counts: "
            + ("identical" if not differing else "DIFFER: " + ", ".join(differing))
        )
        problems.extend(f"{workload} {name} not exact" for name in differing)
    if problems:
        print("\nselfcheck FAILED: " + "; ".join(problems))
        return 1
    print("\nselfcheck passed: every gap within its bound, exact counts identical")
    return 0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0",
        choices=("0", "1", "both"),
        help="bare --trace runs untraced then traced; 1 runs traced only",
    )
    parser.add_argument("--selfcheck", nargs="?", const=3, default=None, type=int)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: the program is not here ({SRC_DIR}/repro)", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.selfcheck is not None:
        return selfcheck(workloads, args.selfcheck, args.seed, args.seconds)
    lines: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        if args.trace in ("0", "both"):
            result = run_worker(workload, args.seed, args.seconds, False)
            print_end_to_end(result)
            lines[workload] = contract_line(result, trace=False)
        if args.trace in ("1", "both"):
            result = run_worker(workload, args.seed, args.seconds, True)
            print_per_layer(result)
            if args.trace == "1":
                lines[workload] = contract_line(result, trace=True)
    print()
    print(json.dumps(lines[args.workload] if args.workload else lines))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)  # scratch and children are already cleaned up
