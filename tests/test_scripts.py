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
