import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matroid_hopf
from matroid_hopf.cli import COMMANDS, main, parse_expression
from matroid_hopf import uniform, graphic
from matroid_hopf.canonical import GroundSetTooLarge
from matroid_hopf.cli import InputError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpressionParser:
    def test_uniform(self):
        assert parse_expression("uniform(1,2)") == uniform(1, 2)
        assert parse_expression(" uniform( 2 , 4 ) ") == uniform(2, 4)

    def test_graphic(self):
        got = parse_expression("graphic(2; 0-1, 0-1, 0-1, 1-1)")
        assert got == graphic(2, [(0, 1), (0, 1), (0, 1), (1, 1)])
        assert parse_expression("graphic(3)") == graphic(3, [])

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_expression("octopus(3)")
        for text in ("graphic(2; 0+1)", "graphic(3; 0-a)", "graphic(3; 0-)"):
            with pytest.raises(InputError):
                parse_expression(text)

    def test_rejects_oversized_before_building(self):
        with pytest.raises(GroundSetTooLarge):
            parse_expression("uniform(11,11)")
        with pytest.raises(GroundSetTooLarge):
            parse_expression("graphic(2; " + ", ".join(["0-1"] * 11) + ")")


class TestCommands:
    def test_coproduct_golden(self, capsys):
        code, out, _ = run(capsys, "coproduct", "--mode", "rd", "--expr", "uniform(1,2)")
        assert code == 0
        assert out == "1⊗U_{1,2} + 2*U_{1,1}⊗U_{1,1} + U_{1,2}⊗1\n"

    def test_poly_golden(self, capsys):
        code, out, _ = run(capsys, "poly", "--expr", "uniform(2,4)")
        assert code == 0
        assert out == "x^4\n"

    def test_alpha(self, capsys):
        code, out, _ = run(capsys, "alpha", "--expr", "uniform(0,1)")
        assert code == 0
        assert out == "s*y\n"

    def test_antipode(self, capsys):
        code, out, _ = run(capsys, "antipode", "--expr", "uniform(1,1)")
        assert code == 0
        assert out == "-1*U_{1,1}\n"

    def test_split(self, capsys):
        code, out, _ = run(capsys, "split", "--mode", "rd", "--expr", "uniform(1,3)")
        assert code == 0
        assert out.splitlines() == [
            "prec: 3*U_{1,2}⊗U_{1,1}",
            "succ: 3*U_{1,1}⊗U_{1,2}",
        ]

    def test_show(self, capsys):
        code, out, _ = run(capsys, "show", "--expr", "graphic(2; 0-1, 0-1, 0-1, 1-1)")
        assert code == 0
        lines = dict(line.split(": ") for line in out.splitlines())
        assert lines["n"] == "4"
        assert lines["rank"] == "1"
        assert lines["loops"] == "1"
        assert lines["class"] == "M[4;0,1,2,4]"

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "independent": [[], [0], [1]]}))
        code, out, _ = run(capsys, "poly", "--input", str(path))
        assert code == 0
        assert out == "x^2\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "coproduct", "--json", "--expr", "uniform(1,2)")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "coproduct"
        assert record["mode"] == "rd"
        assert "U_{1,2}" in record["result"]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "coproduct", "--expr", "uniform(2,4)")
        _, second, _ = run(capsys, "coproduct", "--expr", "uniform(2,4)")
        assert first == second


class TestErrors:
    def test_axiom_violation_reports_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "independent": [[], [0, 1]]}))
        code, out, err = run(capsys, "poly", "--input", str(path))
        assert code == 2
        assert "I2" in err

    def test_bad_expression(self, capsys):
        code, _, err = run(capsys, "poly", "--expr", "uniform(9,3)")
        assert code == 2
        assert "uniform" in err

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "poly")
        assert code == 2
        assert "--expr" in err or "--input" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_expr_and_input_together(self, capsys, tmp_path, command):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(uniform(1, 2).to_dict()))
        code, out, err = run(capsys, command, "--expr", "uniform(2,3)", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "poly", "--bogus")
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "poly", "--input", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "record, needle",
        [
            ({"n": 3, "independent": [[], [0], [5]]}, "element 5"),
            ({"n": "3", "independent": [[]]}, "'n'"),
            ({"n": -1, "independent": [[]]}, "'n'"),
            ({"n": True, "independent": [[]]}, "'n'"),
            ({"n": 3, "independent": [[], [0.5]]}, "element 0.5"),
            ({"n": 3, "independent": [[], ["a"]]}, "element 'a'"),
            ({"n": 3, "independent": [[], 0]}, "'independent'"),
        ],
    )
    def test_malformed_input_file(self, capsys, tmp_path, record, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        code, out, err = run(capsys, "show", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize(
        "command", ["show", "coproduct", "antipode", "split", "poly", "alpha"]
    )
    def test_ground_set_guard(self, tmp_path, command):
        # 10**6 loops, run in a child under a 10 s CPU limit: any per-element
        # pass before the guard is quadratic or worse, and 2^n without it
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 10**6, "independent": [[]]}))
        script = textwrap.dedent(
            """
            import resource, sys
            from matroid_hopf.cli import main

            _, hard = resource.getrlimit(resource.RLIMIT_CPU)
            resource.setrlimit(resource.RLIMIT_CPU, (10, hard))
            sys.exit(main(sys.argv[1:]))
            """
        )
        child = subprocess.run(
            [sys.executable, "-c", script, command, "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
        )
        assert child.returncode == 2, child.stderr
        assert child.stdout == ""
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
        assert "1000000" in child.stderr

    def test_oversized_expression_exits_before_building(self, capsys):
        # 30 edges: building the family first would walk 2^30 edge subsets
        expr = "graphic(2; " + ", ".join(["0-1"] * 30) + ")"
        code, out, err = run(capsys, "show", "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "30" in err

    @pytest.mark.parametrize(
        "command, max_n, reason",
        [
            pytest.param("verify", "-1", "--max-n", id="verify"),
            pytest.param("enumerate", "-1", "--max-n", id="enumerate"),
            pytest.param("verify", "5", "size 4, got 5", id="verify-5"),
            pytest.param("enumerate", "5", "size 4, got 5", id="enumerate-5"),
        ],
    )
    def test_negative_max_n(self, capsys, tmp_path, monkeypatch, command, max_n, reason):
        # rejected before any enumeration or cache write
        def enumerated(*args):
            pytest.fail(f"{command} --max-n {max_n} enumerated a catalog")

        monkeypatch.setattr("matroid_hopf.cli.enumerate_matroids", enumerated)
        monkeypatch.setattr("matroid_hopf.verify.cached_catalog", enumerated)
        code, out, err = run(
            capsys, command, "--max-n", max_n, "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert reason in err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_unusable_cache_dir(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "enumerate", "--max-n", "1", "--cache-dir", str(blocker)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err


class TestVerifyAndEnumerate:
    def test_verify_small_is_clean(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--cache-dir", str(tmp_path))
        lines = out.splitlines()
        assert lines[-1].endswith("suites passed")
        # at n <= 2 the restriction-deletion dendriform defect is not visible
        assert code == 0
        assert all(line.startswith("ok") for line in lines[:-1])

    def test_verify_json(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "--json", "--max-n", "1", "--cache-dir", str(tmp_path)
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["command"] == "verify" for r in records)
        assert "summary" in records[-1]

    def test_enumerate_writes_cache(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "--max-n", "3", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        for n, classes in enumerate([1, 2, 4, 8]):
            assert (tmp_path / f"catalog-{n}.jsonl").is_file()
            assert f"n={n}: {classes} classes" in out

    def test_verify_consumes_cache(self, capsys, tmp_path):
        run(capsys, "enumerate", "--max-n", "2", "--cache-dir", str(tmp_path))
        code, out, _ = run(
            capsys, "verify", "--max-n", "2", "--cache-dir", str(tmp_path)
        )
        assert code == 0
