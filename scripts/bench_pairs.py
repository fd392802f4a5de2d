#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload expand-cold \\
        --first-seed 27201 [--pairs 10] [--seconds S]

PARENT and CHANGE are checkout directories, each holding ``perfbench/run.py``
and ``src/``.  Pair i runs ``perfbench/run.py --workload W --seed
FIRST_SEED+i --seconds S`` in both checkouts, the parent first in even pairs
and the change first in odd ones.  Pick seeds that neither checkout has run.
The workloads and the default S are the ``workloads`` names and the
``run_seconds`` of the parent's ``BENCHMARK.json``.

Before any timing the script refuses fewer than two pairs, since
quartiles need two runs a side, and checkouts whose paths differ in length,
since ``peak_rss_mb`` follows the length of the checkout path.  It reads
the parent's ``BENCHMARK.json``, refuses a workload that the file does not
name, compiles every module under ``src/`` and ``perfbench/`` and imports
the package once in each checkout.  Both then run from the same bytecode
state (``setup_s`` includes the import), also under
``PYTHONDONTWRITEBYTECODE``.  It stops with a one-line error and exit 2 at
a checkout that cannot import the package, and at the first run whose last
line is not a JSON result with every end-to-end metric, or does not read
``"correct": true`` with ``"failed": 0``.

For each end-to-end metric in the parent's ``BENCHMARK.json`` it prints
both sides' medians and quartiles, the change of the median against the
metric's bound, the pairs the change won under the metric's ``better``, and
whether the gap between the medians exceeds the parent's interquartile
range.  Quartiles are ``statistics.quantiles(xs, n=4, method="inclusive")``.
Only the Python standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


class PairError(RuntimeError):
    """The two checkouts cannot be compared, or a run is not trustworthy."""


def check_paths(parent: Path, change: Path) -> None:
    if len(str(parent)) != len(str(change)):
        raise PairError(
            f"checkout paths differ in length ({len(str(parent))} and "
            f"{len(str(change))} characters): peak_rss_mb follows the length "
            f"of the path, so use directory names of equal length"
        )
    for checkout in (parent, change):
        if not (checkout / "perfbench" / "run.py").is_file():
            raise PairError(f"{checkout} has no perfbench/run.py")


def read_benchmark(parent: Path) -> tuple[list[str], float, list[dict]]:
    """The workload names, ``run_seconds`` and ``end_to_end`` metrics of the
    parent's ``BENCHMARK.json``."""
    path = parent / "BENCHMARK.json"
    try:
        benchmark = json.loads(path.read_text())
        workloads = [workload["name"] for workload in benchmark["workloads"]]
        return workloads, float(benchmark["run_seconds"]), benchmark["end_to_end"]
    except (OSError, ValueError, LookupError, TypeError) as err:
        raise PairError(
            f"{path}: no workloads, run_seconds or end_to_end metrics ({err!r})"
        ) from None


def _env() -> dict:
    # each checkout imports its own src/, never one named by the caller
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def warm_bytecode(checkout: Path) -> None:
    """Compile every module of ``checkout`` and import the package once."""
    # compileall writes bytecode even where PYTHONDONTWRITEBYTECODE stops imports
    code = ("import compileall, sys; compileall.compile_dir('src', quiet=2); "
            "compileall.compile_dir('perfbench', quiet=2); "
            "sys.path[:0] = ['src', 'perfbench']; import matroid_hopf, inputs")
    child = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=_env(),
                           capture_output=True, text=True)
    if child.returncode != 0:
        last = (child.stderr.strip().splitlines() or [""])[-1]
        raise PairError(f"{checkout} cannot import the package (exit {child.returncode}): {last}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, names: list[str]) -> dict:
    """One benchmark run; the metrics in ``names`` as name -> value."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    child = subprocess.run(argv, cwd=checkout, env=_env(), capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise PairError(f"{checkout} seed {seed}: exit {child.returncode}\n{child.stderr}")
    try:
        result = json.loads(lines[-1])
        if result.get("correct") is not True or result.get("failed") != 0:
            raise PairError(f"{checkout} seed {seed}: not correct: {lines[-1]}")
        return {name: float(result["metrics"][name]["value"]) for name in names}
    except (ValueError, LookupError, TypeError, AttributeError) as err:
        raise PairError(
            f"{checkout} seed {seed}: malformed result ({err!r}): {lines[-1]}"
        ) from None


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric of ``metrics`` (BENCHMARK.json's ``end_to_end``).

    ``parent_runs[i]`` and ``change_runs[i]`` are pair i.  A pair is won
    when the change is strictly better under the metric's ``better``.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        rows.append({
            "name": name,
            "parent": (pq1, pmed, pq3),
            "change": (cq1, cmed, cq3),
            "relative": (cmed - pmed) / pmed if pmed else 0.0,
            "bound": metric["bound"],
            "won": won,
            "pairs": len(parent),
            "beyond_iqr": abs(cmed - pmed) > pq3 - pq1,
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    def side(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    out = [f"{'metric':<12} {'parent median [Q1, Q3]':<30} {'change median [Q1, Q3]':<30} "
           f"{'change':>8} {'bound':>6} {'won':>6}  gap > parent IQR"]
    for r in rows:
        out.append(
            f"{r['name']:<12} {side(r['parent']):<30} {side(r['change']):<30} "
            f"{r['relative']:>+8.1%} {r['bound']:>6.0%} {r['won']:>3}/{r['pairs']:<2}  "
            f"{'yes' if r['beyond_iqr'] else 'no'}"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload named in the parent's BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: the parent's run_seconds)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    parent, change = args.parent.resolve(), args.change.resolve()
    try:
        check_paths(parent, change)
        workloads, run_seconds, metrics = read_benchmark(parent)
        if args.workload not in workloads:
            raise PairError(
                f"unknown workload {args.workload!r}; BENCHMARK.json names "
                f"{', '.join(workloads)}"
            )
        seconds = run_seconds if args.seconds is None else args.seconds
        names = [metric["name"] for metric in metrics]
        for checkout in (parent, change):
            warm_bytecode(checkout)
        parent_runs, change_runs = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [(parent, parent_runs), (change, change_runs)]
            for checkout, runs in order if i % 2 == 0 else order[::-1]:
                runs.append(run_once(checkout, args.workload, seed, seconds, names))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    except PairError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, --seconds {seconds:g}")
    print("\n".join(format_rows(summarize(parent_runs, change_runs, metrics))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
