#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for matroid-hopf.

Usage, from the repository root:

    python3 perfbench/run.py --workload expand-cold --seed 1 --seconds 20 --trace 0

Workloads (single process tree, no threads, one fork at a time):

  verify-n4    ``verify.run_all(max_n=4)`` from empty memos, on catalogs that
               set-up enumerated into a fresh cache directory.  The
               polynomial layer does most of the work; the canonical search
               does little.
  expand-cold  a seeded, stratified stream of CLI-style queries on matroids
               of 6-8 elements.  Each query runs in a process forked from
               one that has only imported the package and built the inputs,
               so it starts with every memo empty, as a CLI call does.  The
               canonical search dominates.
  expand-warm  the same stream with memos kept: set-up runs one untimed
               pass, timed passes repeat it.  Minors, the memo-hit path and
               polynomial arithmetic dominate.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first checks the
tracer on a tiny input, then runs one untraced and one traced measurement of
the same work and prints the per-layer metrics; spans are written to
``.perfbench_out/`` in the repository root.

An operation is a query on the expand workloads and a suite on verify-n4.
``wall_s`` is one pass: the sum of its query times (expand) or the time of
``run_all`` (verify-n4), the median over the run's passes.  Times are
reference-speed seconds from ``refclock.py``, which removes the swings in
core speed of a shared machine; latency quantiles are Harrell-Davis
estimates.  ``setup_s`` is the median of several set-ups, each in a fresh
process (one for expand-warm, whose set-up includes an untimed pass).

Every output is compared with ``reference.json``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark reads and writes only inside the repository and
exits with status 2, printing no result, when ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import inputs
import tracer
from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "matroid_hopf"
WORKLOADS = ("verify-n4", "expand-cold", "expand-warm")
SETUP_REPS = 7
VERIFY_MAX_N = 4


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child; return its result and peak RSS (KiB).

    The child starts from this process's memory, so it sees exactly the
    memos this process holds; nothing it computes flows back except the
    pickled result.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            payload = pickle.dumps((True, fn(*args)))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        try:
            with os.fdopen(wfd, "wb") as f:
                f.write(payload)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    if not data or status != 0:
        raise BenchmarkError(f"child exited with status {status} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise BenchmarkError(value)
    return value, usage.ru_maxrss


def import_package():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    mh = importlib.import_module(PACKAGE)
    where = Path(mh.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchmarkError(f"{PACKAGE} was imported from {where}, not from {SRC}")
    return mh


def timed_setups(prepare, reps: int, last_here: bool):
    """Run ``prepare`` ``reps`` times; return the median time and the last state.

    Runs happen in forked children of a process that has not imported the
    package, so each one pays the import again.  With ``last_here`` the last
    run happens in this process and its state is returned; otherwise the
    last child's (picklable) result is.
    """
    times, state = [], None
    for i in range(reps):
        if last_here and i == reps - 1:
            clock = RefClock().start()
            state = prepare()
            times.append(clock.stop())
        else:
            (elapsed, state), _ = in_child(_metered, prepare, not last_here)
            times.append(elapsed)
    return statistics.median(times), state


def _metered(prepare, keep: bool):
    clock = RefClock().start()
    state = prepare()
    return clock.stop(), state if keep else None


def self_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- verify-n4 ---------------------------------------------------------------


def prepare_verify(tmp: Path) -> Path:
    """Import, then enumerate and save the catalogs into a fresh cache directory."""
    mh = import_package()
    cache_dir = Path(tempfile.mkdtemp(prefix="catalogs-", dir=tmp))
    for n in range(VERIFY_MAX_N + 1):
        mh.save_cache(mh.enumerate_matroids(n), cache_dir)
    return cache_dir


def verify_pass(cache_dir: Path, traced: bool) -> dict:
    """One ``run_all`` in a fresh (forked) process, suites timed one by one."""
    os.environ["MATROID_HOPF_CACHE_DIR"] = str(cache_dir)
    import_package()
    verify = importlib.import_module(f"{PACKAGE}.verify")
    clock = RefClock().start()
    tr = tracer.Tracer(clock.now).install() if traced else None
    times: list[float] = []
    undo = [] if traced else _time_suites(times, clock.now)
    t0 = clock.now()
    results = verify.run_all(max_n=VERIFY_MAX_N, cache_dir=cache_dir)
    wall = clock.now() - t0
    clock.stop()
    tracer.restore(undo)
    return {"rows": [[r.name, r.ok, r.detail] for r in results], "times": times,
            "wall": wall, "trace": tr.snapshot() if traced else None}


def _time_suites(times: list, now) -> list:
    undo = []
    for fn in tracer.suite_functions():
        undo += tracer.replace_everywhere(fn, _timed_suite(fn, times, now))
    return undo


def _timed_suite(fn, times: list, now):
    def timed(*args, **kwargs):
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(now() - t0)

    return timed


def _traced_prepare_verify(tmp: Path):
    import_package()
    tr = tracer.Tracer().install()
    tr.trace = -1  # set-up spans get their own trace id
    cache_dir = prepare_verify(tmp)
    catalog = {k: v for k, v in tr.agg.items() if k.startswith("catalog.")}
    return cache_dir, {"agg": catalog, "spans": tr.spans, "memo": {}}


def run_verify(args, tmp: Path) -> dict:
    reference = inputs.load_reference()["verify_n4"]
    if args.trace:
        (cache_dir, setup_snap), _ = in_child(_traced_prepare_verify, tmp)
    else:
        setup_s, cache_dir = timed_setups(
            lambda: prepare_verify(tmp), SETUP_REPS, last_here=False
        )
    passes, rss = [], 0

    def one(traced: bool) -> dict:
        nonlocal rss
        result, child_rss = in_child(verify_pass, cache_dir, traced)
        rss = max(rss, child_rss)
        passes.append(result)
        return result

    if args.trace:
        plain, traced = one(False), one(True)
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            one(False)
    mismatched = sum(_verify_mismatches(p["rows"], reference) for p in passes)
    attempted = sum(len(p["rows"]) for p in passes)
    if args.trace:
        # catalog enumeration happens in set-up, so its layer is traced there;
        # every other layer is traced in the pass alone
        snap = tracer.merge_snapshots([setup_snap, traced["trace"]])
        _write_spans(args, snap["spans"])
        metrics = layer_metrics(snap, 1, traced["wall"] - plain["wall"])
        return result_line(attempted, mismatched, metrics)
    latencies = [t for p in passes for t in p["times"]]
    walls = [p["wall"] for p in passes]
    metrics = end_to_end(setup_s, walls, latencies, rss, attempted, mismatched)
    return result_line(attempted, mismatched, metrics)


def _verify_mismatches(rows, reference) -> int:
    if len(rows) != len(reference):
        return max(len(rows), len(reference))
    return sum(1 for got, want in zip(rows, reference) if got != want)


# -- expand workloads --------------------------------------------------------


def prepare_expand(seed: int, warm: bool, tr=None) -> dict:
    """Import, build the seeded inputs, and (warm) run one untimed pass.

    A tracer given here watches only the untimed pass, so functionals built
    there are already tagged when traced passes later hit them.
    """
    mh = import_package()
    reference = inputs.load_reference()
    pool = reference["pool"]
    stream = inputs.make_stream(seed, pool)
    matroids = inputs.build_inputs(mh, stream, pool)
    again = inputs.build_inputs(mh, inputs.make_stream(seed, pool), pool)
    if inputs.input_bytes(stream, matroids) != inputs.input_bytes(stream, again):
        raise BenchmarkError(f"seed {seed} did not reproduce its inputs")
    if inputs.stratum_counts(stream) != inputs.stream_design():
        raise BenchmarkError("the stream does not match the stratified design")
    state = {"mh": mh, "stream": stream, "matroids": matroids,
             "expected": [reference["expected"][inputs.reference_key(q)] for q in stream]}
    if warm:
        if tr is not None:
            tr.install()
        for q, m in zip(stream, matroids):
            inputs.run_query(mh, q["op"], m)
        if tr is not None:
            tr.uninstall()
    else:
        leftover = tracer.memo_sizes()["memo.total.size"]
        if leftover:
            raise tracer.ColdIsolationError(f"{leftover} memo entries before the first cold query")
    return state


def cold_query(mh, op: str, m, traced: bool, trace_id: int):
    """One query from empty memos, in a forked child."""
    clock = RefClock().start()
    tr = tracer.Tracer(clock.now).install() if traced else None
    guard = tracer.FirstKeyGuard()
    t0 = clock.now()
    if traced:
        text = tr.root(f"query.{op}", trace_id, inputs.run_query, mh, op, m)
    else:
        text = inputs.run_query(mh, op, m)
    latency = clock.now() - t0
    clock.stop()
    guard.remove()
    return latency, inputs.digest(text), tr.snapshot() if traced else None


def cold_pass(state, traced: bool) -> dict:
    latencies, mismatched, rss, snaps = [], 0, 0, []
    for i, (q, m, want) in enumerate(zip(state["stream"], state["matroids"], state["expected"])):
        (latency, got, snap), child_rss = in_child(
            cold_query, state["mh"], q["op"], m, traced, i
        )
        latencies.append(latency)
        mismatched += got != want
        rss = max(rss, child_rss)
        if snap is not None:
            snaps.append(snap)
    return {"latencies": latencies, "mismatched": mismatched, "rss": rss,
            "wall": sum(latencies), "trace": tracer.merge_snapshots(snaps) if traced else None}


def warm_pass(state, now, tr=None, base_id: int = 0) -> dict:
    mh = state["mh"]
    latencies, mismatched = [], 0
    for i, (q, m, want) in enumerate(zip(state["stream"], state["matroids"], state["expected"])):
        t0 = now()
        if tr is not None:
            text = tr.root(f"query.{q['op']}", base_id + i, inputs.run_query, mh, q["op"], m)
        else:
            text = inputs.run_query(mh, q["op"], m)
        latencies.append(now() - t0)
        mismatched += inputs.digest(text) != want
    return {"latencies": latencies, "mismatched": mismatched, "wall": sum(latencies)}


def run_expand(args, warm: bool) -> dict:
    # The warm set-up includes a whole untimed pass (about 13 s), so it runs
    # once: repeating it would more than double the length of a run.
    reps = 1 if args.trace or warm else SETUP_REPS
    tr = tracer.Tracer() if args.trace and warm else None
    setup_s, state = timed_setups(
        lambda: prepare_expand(args.seed, warm, tr), reps, last_here=True
    )
    plain = []
    start = time.perf_counter()
    if warm:
        clock = RefClock().start()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(warm_pass(state, clock.now))
        rss = self_rss_kib()
    else:
        # a traced cold run compares one untraced pass with one traced pass
        while not plain or not args.trace and time.perf_counter() - start < args.seconds:
            plain.append(cold_pass(state, traced=False))
        rss = max(p["rss"] for p in plain)
    if args.trace:
        if warm:
            tr.agg.clear()
            tr.spans.clear()
            tr.clock = clock.now
            tr.install()
            size = len(state["stream"])
            traced = [warm_pass(state, clock.now, tr, k * size) for k in range(len(plain))]
            clock.stop()
            snap = tr.snapshot()
        else:
            traced = [cold_pass(state, traced=True)]
            snap = traced[0]["trace"]
        everything = plain + traced
        attempted = sum(len(p["latencies"]) for p in everything)
        mismatched = sum(p["mismatched"] for p in everything)
        overhead = (sum(p["wall"] for p in traced) - sum(p["wall"] for p in plain)) / len(plain)
        _write_spans(args, snap["spans"])
        return result_line(attempted, mismatched, layer_metrics(snap, len(traced), overhead))
    if warm:
        clock.stop()
    attempted = sum(len(p["latencies"]) for p in plain)
    mismatched = sum(p["mismatched"] for p in plain)
    latencies = [t for p in plain for t in p["latencies"]]
    walls = [p["wall"] for p in plain]
    metrics = end_to_end(setup_s, walls, latencies, rss, attempted, mismatched)
    return result_line(attempted, mismatched, metrics)


# -- metrics -----------------------------------------------------------------


def end_to_end(setup_s, walls, latencies, rss_kib, attempted, mismatched) -> dict:
    """Operations are queries on the expand workloads and suites on verify-n4."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(walls), "unit": "1/s"},
        "op_p50_ms": {"value": hd_quantile(latencies, 0.5) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": hd_quantile(latencies, 0.9) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MB"},
        "match_frac": {"value": 1 - mismatched / attempted, "unit": "frac"},
    }


def hd_quantile(xs, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.  On a
    mix of query kinds whose latencies differ by orders of magnitude, it
    moves far less between seeds than an interpolation of the two nearest
    order statistics does.  The weights integrate the Beta density over
    each ((i-1)/n, i/n] by the midpoint rule.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)
    total = weight = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for k in range(steps):
            t = (i * steps + k + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w * x
        weight += w
    return total / weight


# Per-layer metrics read from the tracer's aggregates: (metric, layer, field,
# unit), where a field indexes [calls, total s, self s, memo misses, extra].
CALLS, TOTAL, SELF, MISSES, EXTRA = range(5)
LAYER_METRICS = (
    ("canonical.key.calls", "canonical.key", CALLS, "count"),
    ("canonical.key.misses", "canonical.key", MISSES, "count"),
    ("canonical.key.self_s", "canonical.key", SELF, "s"),
    ("matroid.restrict.calls", "matroid.restrict", CALLS, "count"),
    ("matroid.restrict.self_s", "matroid.restrict", SELF, "s"),
    ("matroid.contract.calls", "matroid.contract", CALLS, "count"),
    ("matroid.contract.self_s", "matroid.contract", SELF, "s"),
    ("matroid.components.calls", "matroid.components", CALLS, "count"),
    ("matroid.components.self_s", "matroid.components", SELF, "s"),
    ("formal.polynomial.ops", "formal.polynomial", CALLS, "count"),
    ("formal.polynomial.self_s", "formal.polynomial", SELF, "s"),
    ("formal.monomial.calls", "formal.monomial", CALLS, "count"),
    ("formal.monomial.self_s", "formal.monomial", SELF, "s"),
    ("formal.tensor.self_s", "formal.tensor", SELF, "s"),
    ("formal.module.self_s", "formal.module", SELF, "s"),
    ("characters.poly_P.calls", "characters.poly_P", CALLS, "count"),
    ("characters.poly_P.subsets", "characters.poly_P", EXTRA, "count"),
    ("characters.poly_P.self_s", "characters.poly_P", SELF, "s"),
    ("characters.alpha.self_s", "characters.alpha", SELF, "s"),
    ("characters.convolve.self_s", "characters.convolve", SELF, "s"),
    ("characters.conv_exp.self_s", "characters.conv_exp", SELF, "s"),
    ("hopf.coproduct.calls", "hopf.coproduct", CALLS, "count"),
    ("hopf.coproduct.self_s", "hopf.coproduct", SELF, "s"),
    ("hopf.coproduct_monomial.misses", "hopf.coproduct_monomial", MISSES, "count"),
    ("hopf.antipode.misses", "hopf.antipode", MISSES, "count"),
    ("hopf.antipode.self_s", "hopf.antipode", SELF, "s"),
    ("dendriform.split.self_s", "dendriform.split", SELF, "s"),
    ("dendriform.axioms.self_s", "dendriform.axioms", SELF, "s"),
    ("catalog.enumerate.calls", "catalog.enumerate", CALLS, "count"),
    ("catalog.enumerate.self_s", "catalog.enumerate", SELF, "s"),
) + tuple(
    (f"verify.{name}.s", f"verify.{name}", TOTAL, "s") for name in inputs.VERIFY_SUITES
)


def layer_metrics(snap: dict, passes: int, overhead_s: float) -> dict:
    """Per-layer figures per pass, from a tracer snapshot."""
    agg = snap["agg"]

    def stat(layer, field):
        return agg.get(layer, [0, 0.0, 0.0, 0, 0])[field] / passes

    out = {name: {"value": stat(layer, field), "unit": unit}
           for name, layer, field, unit in LAYER_METRICS}
    calls = stat("canonical.key", CALLS)
    hit_ratio = 1 - stat("canonical.key", MISSES) / calls if calls else 0.0
    out["canonical.key.hit_ratio"] = {"value": hit_ratio, "unit": "frac"}
    for name, size in snap["memo"].items():
        out[name] = {"value": size, "unit": "count"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


def result_line(attempted: int, mismatched: int, metrics: dict) -> dict:
    return {"correct": mismatched == 0, "attempted": attempted,
            "failed": mismatched, "metrics": metrics}


def _write_spans(args, spans) -> None:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as f:
        for trace_id, sid, parent, name, t0, t1 in spans:
            f.write(json.dumps({"trace": trace_id, "id": sid, "parent": parent,
                                "name": name, "start": t0, "end": t1}) + "\n")


# -- tracer self-test --------------------------------------------------------


def selftest(tmp: Path) -> None:
    """Every boundary records a call on a tiny input, and tracing changes no output."""
    plain, _ = in_child(_tiny_run, tmp / "selftest-plain", False)
    traced, _ = in_child(_tiny_run, tmp / "selftest-traced", True)
    if plain["outputs"] != traced["outputs"]:
        raise BenchmarkError("traced outputs differ from untraced outputs")
    agg = traced["agg"]
    layers = {layer for layer, *_ in tracer.BOUNDARIES}
    layers |= {layer for _, layer in tracer.FUNCTIONAL_FACTORIES}
    layers |= {f"verify.{name}" for name in inputs.VERIFY_SUITES}
    silent = sorted(layer for layer in layers if agg.get(layer, [0])[0] == 0)
    if silent:
        raise BenchmarkError(f"tracer recorded no call at: {', '.join(silent)}")
    for layer in ("canonical.key", "hopf.coproduct_monomial", "hopf.antipode"):
        if agg[layer][MISSES] == 0:
            raise BenchmarkError(f"tracer saw no memo miss at {layer}")


def _tiny_run(cache_dir: Path, traced: bool) -> dict:
    mh = import_package()
    verify = importlib.import_module(f"{PACKAGE}.verify")
    tr = tracer.Tracer().install() if traced else None
    m = mh.graphic(3, [(0, 1), (1, 2), (0, 2), (0, 1), (2, 2)])
    outputs = [inputs.run_query(mh, op, m) for op in inputs.OPS]
    outputs += [repr(r) for r in verify.run_all(max_n=2, cache_dir=cache_dir)]
    return {"outputs": outputs, "agg": tr.agg if traced else None}


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    # An empty cache directory, so no catalog cache left elsewhere on the
    # machine can change set-up time or results.
    os.environ["MATROID_HOPF_CACHE_DIR"] = str(tmp)
    try:
        if args.trace:
            selftest(tmp)
        if args.workload == "verify-n4":
            result = run_verify(args, tmp)
        else:
            result = run_expand(args, warm=args.workload == "expand-warm")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
