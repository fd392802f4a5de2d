"""Checks of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from refclock import RefClock  # noqa: E402

import matroid_hopf as mh  # noqa: E402


@pytest.fixture(scope="module")
def pool():
    return inputs.load_reference()["pool"]


def _input_bytes(seed, pool):
    stream = inputs.make_stream(seed, pool)
    return inputs.input_bytes(stream, inputs.build_inputs(mh, stream, pool))


def test_same_seed_gives_identical_inputs(pool):
    assert _input_bytes(7, pool) == _input_bytes(7, pool)
    assert _input_bytes(7, pool) != _input_bytes(8, pool)


@pytest.mark.parametrize("seed", [0, 1, 2, 99, 123456789])
def test_stratum_counts_do_not_depend_on_seed(seed, pool):
    stream = inputs.make_stream(seed, pool)
    assert inputs.stratum_counts(stream) == inputs.stream_design()
    # p90 needs at least ten samples beyond it
    assert len(stream) >= 100


def test_every_pool_query_has_a_reference(pool):
    expected = inputs.load_reference()["expected"]
    for n in inputs.SIZES:
        for shape in inputs.SHAPES:
            for item in range(len(pool[str(n)][shape])):
                for op in inputs.OPS:
                    q = {"n": n, "shape": shape, "item": item, "op": op}
                    assert inputs.reference_key(q) in expected


def test_outputs_match_reference_under_relabeling(pool):
    expected = inputs.load_reference()["expected"]
    stream = [q for q in inputs.make_stream(3, pool) if q["n"] == 6][:12]
    for q, m in zip(stream, inputs.build_inputs(mh, stream, pool)):
        got = inputs.digest(inputs.run_query(mh, q["op"], m))
        assert got == expected[inputs.reference_key(q)]


def test_verify_suite_names_match_reference():
    rows = inputs.load_reference()["verify_n4"]
    assert tuple(name for name, _, _ in rows) == inputs.VERIFY_SUITES


def test_tracer_selftest(tmp_path):
    run.selftest(tmp_path)


def test_guard_rejects_a_warm_first_key():
    m = mh.uniform(1, 3).direct_sum(mh.uniform(0, 1))
    original = mh.canonical_key
    original(m)
    guard = tracer.FirstKeyGuard()
    try:
        with pytest.raises(tracer.ColdIsolationError):
            mh.canonical_key(m)
    finally:
        guard.remove()
    assert mh.canonical_key is original


def test_memo_sizes_see_the_key_memo():
    m = mh.graphic(3, [(0, 1), (1, 2), (0, 2), (2, 2)])
    mh.canonical_key(m)
    assert tracer.memo_sizes()["memo.canonical.size"] >= 1


def test_refclock_advances_and_stops():
    clock = RefClock().start()
    t0 = clock.now()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    elapsed = clock.stop() - t0
    assert elapsed > 0
    assert clock.now() >= elapsed
