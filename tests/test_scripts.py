import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matroid_hopf

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
    )


def test_show_expansions_runs():
    child = run_script("show_expansions.py")
    assert child.returncode == 0, child.stderr
    assert "restriction-deletion coproducts" in child.stdout
    assert "P_U_{2,4} = x^4" in child.stdout



def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_fixed_numbers():
    bench = _bench_pairs()
    metrics = [
        {"name": "wall_s", "better": "lower", "bound": 0.15},
        {"name": "ops_per_s", "better": "higher", "bound": 0.15},
    ]
    walls = [0.40, 0.41, 0.39, 0.42, 0.40]
    parent = [{"wall_s": w, "ops_per_s": 100.0} for w in walls]
    # four of five pairs faster; ops_per_s only ties or loses
    change = [{"wall_s": w, "ops_per_s": o} for w, o in
              zip([0.36, 0.37, 0.35, 0.43, 0.36], [100.0, 99.0, 100.0, 100.0, 100.0])]
    wall, ops = bench.summarize(parent, change, metrics)
    # inclusive quartiles of 0.39, 0.40, 0.40, 0.41, 0.42
    assert wall["parent"] == pytest.approx((0.40, 0.40, 0.41))
    assert wall["change"][1] == pytest.approx(0.36)
    assert wall["relative"] == pytest.approx(-0.1)
    assert (wall["won"], wall["pairs"], wall["beyond_iqr"]) == (4, 5, True)
    assert (ops["won"], ops["beyond_iqr"], ops["relative"]) == (0, False, 0.0)
    lines = bench.format_rows([wall, ops])
    assert lines[1].split()[:2] == ["wall_s", "0.4"]
    assert "-10.0%" in lines[1] and "4/5" in lines[1] and lines[1].endswith("yes")
    assert "0/5" in lines[2] and lines[2].endswith("no")


def test_bench_pairs_refuses_paths_of_unequal_length(tmp_path):
    for name in ("a", "bb"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
    child = run_script(
        "bench_pairs.py", str(tmp_path / "a"), str(tmp_path / "bb"),
        "--workload", "expand-cold", "--first-seed", "1",
    )
    assert child.returncode == 2
    assert "differ in length" in child.stderr
    assert child.stdout == ""


BENCHMARK = (
    '{"run_seconds": 3, "workloads": [{"name": "expand-cold"}, {"name": "w2"}], '
    '"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.15}]}'
)


def _fake_checkouts(tmp_path, last_line, benchmark=BENCHMARK, package=("", "")):
    """Checkouts "a" and "b" whose perfbench/run.py prints ``last_line``
    and leaves a file holding its arguments behind, so a test can tell
    whether and how any run started.  ``package`` holds the text of each
    checkout's ``matroid_hopf/__init__.py``."""
    runs = tmp_path / "runs"
    runs.mkdir()
    for name, init in zip(("a", "b"), package):
        root = tmp_path / name
        (root / "src" / "matroid_hopf").mkdir(parents=True)
        (root / "src" / "matroid_hopf" / "__init__.py").write_text(init)
        (root / "perfbench").mkdir()
        (root / "perfbench" / "inputs.py").write_text("")
        (root / "perfbench" / "run.py").write_text(
            "import os, sys\n"
            f"with open(os.path.join({str(runs)!r}, str(os.getpid())), 'w') as f:\n"
            "    f.write(' '.join(sys.argv[1:]))\n"
            f"print({last_line!r})\n"
        )
        if benchmark is not None:
            (root / "BENCHMARK.json").write_text(benchmark)
    return runs, [str(tmp_path / "a"), str(tmp_path / "b")]


def _bench_pairs_on(checkouts, *args, workload="expand-cold"):
    return run_script(
        "bench_pairs.py", *checkouts, "--workload", workload, "--first-seed", "1", *args
    )


def test_bench_pairs_compares_fake_runs(tmp_path, monkeypatch):
    # both checkouts get bytecode even where imports would write none
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    result = '{"correct": true, "failed": 0, "metrics": {"wall_s": {"value": 0.5}}}'
    runs, checkouts = _fake_checkouts(tmp_path, result)
    child = _bench_pairs_on(checkouts, "--pairs", "2")
    assert child.returncode == 0, child.stderr
    assert len(list(runs.iterdir())) == 4
    row = child.stdout.splitlines()[-1]
    assert row.split()[:2] == ["wall_s", "0.5"] and "0/2" in row
    for checkout in map(Path, checkouts):
        for module in ("src/matroid_hopf/__init__.py", "perfbench/run.py"):
            assert Path(importlib.util.cache_from_source(str(checkout / module))).is_file()


@pytest.mark.parametrize("pairs", ["0", "1"])
def test_bench_pairs_refuses_fewer_than_two_pairs(tmp_path, pairs):
    runs, checkouts = _fake_checkouts(tmp_path, "{}")
    child = _bench_pairs_on(checkouts, "--pairs", pairs)
    assert child.returncode == 2
    assert "usage:" in child.stderr and "at least 2" in child.stderr
    assert "Traceback" not in child.stderr
    assert list(runs.iterdir()) == []


@pytest.mark.parametrize(
    "last_line",
    [
        "wall_s 0.5",
        '{"correct": true, "failed": 0, "metrics": {"ops_per_s": {"value": 2.0}}}',
        '{"correct": true, "failed": 0, "metrics": {"wall_s": {"value": null}}}',
        "[]",
    ],
    ids=["not JSON", "metric missing", "value not a number", "not an object"],
)
def test_bench_pairs_reports_a_malformed_result(tmp_path, last_line):
    runs, checkouts = _fake_checkouts(tmp_path, last_line)
    child = _bench_pairs_on(checkouts, "--pairs", "2")
    assert child.returncode == 2
    (line,) = child.stderr.splitlines()
    assert line.startswith("error: ") and "malformed result" in line
    assert child.stdout == ""
    # the first run of the first pair is the last
    assert len(list(runs.iterdir())) == 1


def test_bench_pairs_reads_the_benchmark_before_any_run(tmp_path):
    runs, checkouts = _fake_checkouts(tmp_path, "{}", benchmark=None)
    child = _bench_pairs_on(checkouts, "--pairs", "2")
    assert child.returncode == 2
    (line,) = child.stderr.splitlines()
    assert line.startswith("error: ") and "BENCHMARK.json" in line
    assert list(runs.iterdir()) == []


def test_bench_pairs_takes_workloads_and_run_length_from_the_benchmark(tmp_path):
    result = '{"correct": true, "failed": 0, "metrics": {"wall_s": {"value": 0.5}}}'
    runs, checkouts = _fake_checkouts(tmp_path, result)
    # a workload that BENCHMARK.json names, run for its run_seconds
    child = _bench_pairs_on(checkouts, "--pairs", "2", workload="w2")
    assert child.returncode == 0, child.stderr
    argv = {run.read_text() for run in runs.iterdir()}
    assert argv == {f"--workload w2 --seed {seed} --seconds 3.0" for seed in (1, 2)}
    assert "--seconds 3" in child.stdout


def test_bench_pairs_refuses_an_unknown_workload(tmp_path):
    runs, checkouts = _fake_checkouts(tmp_path, "{}")
    child = _bench_pairs_on(checkouts, "--pairs", "2", workload="verify-n4")
    assert child.returncode == 2
    (line,) = child.stderr.splitlines()
    assert line.startswith("error: ") and "unknown workload 'verify-n4'" in line
    assert "expand-cold, w2" in line
    assert list(runs.iterdir()) == []


@pytest.mark.parametrize("broken", [0, 1], ids=["parent", "change"])
def test_bench_pairs_reports_a_checkout_that_cannot_import(tmp_path, broken):
    package = ["", ""]
    package[broken] = "raise RuntimeError('no import here')\n"
    runs, checkouts = _fake_checkouts(tmp_path, "{}", package=package)
    child = _bench_pairs_on(checkouts, "--pairs", "2")
    assert child.returncode == 2
    (line,) = child.stderr.splitlines()
    assert line.startswith(f"error: {checkouts[broken]} cannot import the package")
    assert line.endswith("RuntimeError: no import here")
    assert list(runs.iterdir()) == []
