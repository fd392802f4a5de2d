import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matroid_hopf
from matroid_hopf import matroid
from matroid_hopf.cli import COMMANDS, main, parse_expression
from matroid_hopf import enumerate_matroids, graphic, save_cache, uniform
from matroid_hopf.matroid import GroundSetTooLarge
from matroid_hopf.cli import InputError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
    )


def run_module(*argv):
    """Run ``python -m matroid_hopf.cli`` in a child with fresh memos."""
    return _child("-m", "matroid_hopf.cli", *argv)


def run_library_verify(max_n, cache_dir=None):
    """Print ``run_all(max_n, cache_dir)`` one row a line, in a child with fresh memos."""
    script = textwrap.dedent(
        """
        import sys
        from pathlib import Path
        from matroid_hopf.verify import run_all

        cache_dir = Path(sys.argv[2]) if sys.argv[2] else None
        for row in run_all(max_n=int(sys.argv[1]), cache_dir=cache_dir):
            print(row)
        """
    )
    return _child("-c", script, str(max_n), str(cache_dir or ""))


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


_K5_EDGES = ", ".join(f"{u}-{w}" for u in range(5) for w in range(u + 1, 5))
GOLDEN_INPUTS = {
    "U38": "uniform(3,8)",
    "K5": f"graphic(5; {_K5_EDGES})",
    "multi": "graphic(4; 0-1,0-1,0-1,1-2,2-3,3-0,0-0,2-2)",
}

# SHA-256 of the whole stdout of each command, text and --json: any change
# to a rendered term, its order or a JSON field changes the digest.
GOLDEN_DIGESTS = [
    ("U38", "show", "650726925539c125f377631e1e4f42e071c12d1c6dcf9bd39081ce9755bb31f5"),
    ("U38", "show --json", "bfa6a7eea04e2d6fd651414081ff3de675c9ccce1f12137c0bc08b1ad739d093"),
    ("U38", "coproduct --mode rc", "c3b2ea4ef41b92c8b8b7d00e9226a4d48efd6dea759ac27e1885869a29dd6603"),
    ("U38", "coproduct --mode rc --json", "b060109f0952a5583c293b7d0196d764bfea78c1bb1075d6b234edd8a32c9677"),
    ("U38", "coproduct --mode rd", "68f8148b9a4118059806ff9f89147b3eb3ca8f68a5d4415813551203327b0998"),
    ("U38", "coproduct --mode rd --json", "b269d57101777aeb0e3667141841d322e40a208273d6d385ac72a1cb86f94aa9"),
    ("U38", "split --mode rc", "c797146bf37dd3edcd92a080b090473b4d1c3cf958276e4d21f34f504b7170ca"),
    ("U38", "split --mode rc --json", "bc5bf220dc2ec9d6c1ea22652dc38a3c09260927e4cbb0d6a72a56a58773461a"),
    ("U38", "split --mode rd", "7e58114953a1a3feca8c6f15c79a479c27c5182ee9847dcd695369affe173f9b"),
    ("U38", "split --mode rd --json", "6b9959902740f30d58b281c0c5a3e95360bf5af72fd515d8573d981ee4f010cd"),
    ("U38", "antipode", "af69f59592d022efdf35c696131d0dd7b03e62ef85b8bc00d83c9ed78ce718a7"),
    ("U38", "antipode --json", "4cde7e654b208aa0747e2939aecf36dac1729a96c33748568a2aaf6e93c45d81"),
    ("U38", "alpha", "ad1275680bb293b792f3d713d826e5cd8812874cd8877947275e97832f7f0363"),
    ("U38", "alpha --json", "6256ff959da01c7f1fb0b11f7a957502d647a05fdcd468a20343814e86187cff"),
    ("U38", "poly", "0dabbe8af022b23eded456171b5ffc9941a58bd756f346d4624caed7271557ab"),
    ("U38", "poly --json", "b93574fe5530f7b9515e9680bf94bf5f6428d09795ca529e7c9c9706fa359700"),
    ("K5", "show", "bd30930f51c136bf454f9884f0ad79cd4a47fb8cc76dcdf3f26b4a793f828a6e"),
    ("K5", "show --json", "a8c7179cff5febae8082738f70d2f0f1bca4da95a41934b675cbbec8080cc036"),
    ("K5", "coproduct --mode rc", "d059e638131dcf06d10e2bed8122a6c641c275218a07e382bab2bea11687ee6b"),
    ("K5", "coproduct --mode rc --json", "00fcdbd2d3b5d8115c530d5b3611c5655bbf816a2ab4ed92610ad9f5a0619c50"),
    ("K5", "coproduct --mode rd", "8e93e2511ee221c6e2154bfbc5374a3aa51bedf62a936905b0af22d73efcd33a"),
    ("K5", "coproduct --mode rd --json", "929c1e2613a0219f3803605bb828a37027f0e74f66316829aafcc20b052023df"),
    ("K5", "split --mode rc", "48b4561d325468c2c1f809ea586ca872b0b1839c710e697b043631f8770d3fce"),
    ("K5", "split --mode rc --json", "b28a97b3781ce346422dc341d08cf83c12434efe9778b769e6d0576473c537c2"),
    ("K5", "split --mode rd", "55d00651d20fc894176979e400b430d789b21f1cb22a15107b3c0325a7803cc4"),
    ("K5", "split --mode rd --json", "022f3b0ae91cd1bfc87e08b27c5e5ab70e8b6d028e676df7c8f4df92f447fcf7"),
    ("K5", "antipode", "f1b450255950890a02f301448e4ce2f050cc24ec3742369ad38de20d32f262c1"),
    ("K5", "antipode --json", "8bae094a956152499efac9a9a041c312d93c218022151756ab897e77c67ece1d"),
    ("K5", "alpha", "7c880578f6c5a0f49929f84a68c32cedfa7c68f5f7eacb4aeb7112a26db6e937"),
    ("K5", "alpha --json", "1e84a85ed31c4af7e7f61c2c2275548e7aed813cd3b68c6460e4163290b09abb"),
    ("K5", "poly", "84f472c978d57eb49950744739628b79a92e5c9bff553e54937aa7b87f450bf4"),
    ("K5", "poly --json", "1058dbf498b67c659bf9617d8abd87681b65253b39b924923b6f95f5425cd132"),
    ("multi", "show", "5c1d0c60b42db2801bd716a8611867c177d288bb4d515ff4c9ef660c271bfb41"),
    ("multi", "show --json", "dd8297dc612da93f144726a684f89e953c33f12820d2e0e089b7d664c49416a3"),
    ("multi", "coproduct --mode rc", "c084502ed61ed37924635137efdd1e7802576d4246434ee19b6ef9e4f3424185"),
    ("multi", "coproduct --mode rc --json", "f2b0af280ec2cadafdae77d410118eff8cb8cb8580842c02c3c47122e47d435f"),
    ("multi", "coproduct --mode rd", "ca613fd49b5edef69f075768fbe85c0ef6c22755fac0c6747c3a52c98c181641"),
    ("multi", "coproduct --mode rd --json", "f81e42b7dce3a3a5855a290317758fd43829081c259018b1ee450a8fcb2e561a"),
    ("multi", "split --mode rc", "56a5077d398d081da78d3a040ada35d69d9cbca1874e3bcdb9a78fb8bb2e15da"),
    ("multi", "split --mode rc --json", "27d6f717a9a228361dfeacb3326804ffdd8be24afd2b94fae441cccdb82fcd89"),
    ("multi", "split --mode rd", "795e275f1d1e285a9bcc47e5f1b11067bfae55ddd87ac2c65eacceab4db1b30a"),
    ("multi", "split --mode rd --json", "b201ae418f58e025318f81a7d9ff078d5b933ce2ada17bee1c6c868a91d8526f"),
    ("multi", "antipode", "734f77af846af81b999f8d81a563c84f2810381ca0f98e88124b7577aeb1ff8a"),
    ("multi", "antipode --json", "e11b6010ffcbe2e0ecba9b5b9fb66170cfb1e8990d3c4ebc130672bfa0e014e1"),
    ("multi", "alpha", "08f42be4d40e43a23d60be8fe8ae8394ad9d2e177796ca3599376f4e2f231cb6"),
    ("multi", "alpha --json", "e3118b2f8cc3c9aa932f46d76761093202a1713550dbba3a572bd177874680dc"),
    ("multi", "poly", "719fd516bd6018b9421c91cb681197a73595a371b86d59201f6b23f6db7cbe6b"),
    ("multi", "poly --json", "387d0385154e25fe4165c0257251f1b44ec2a1e34b1c72543843c97aa58cfc6b"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "name, argv, digest", GOLDEN_DIGESTS, ids=[f"{n} {a}" for n, a, _ in GOLDEN_DIGESTS]
    )
    def test_stdout_digest(self, capsys, name, argv, digest):
        code, out, _ = run(capsys, *argv.split(), "--expr", GOLDEN_INPUTS[name])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "expr",
        [
            "uniform(2," + "9" * 5000 + ")",
            "uniform(" + "9" * 5000 + ",2)",
            "graphic(" + "9" * 5000 + "; 0-1)",
        ],
        ids=["uniform-n", "uniform-r", "graphic-vertices"],
    )
    def test_huge_integer_in_expression(self, capsys, expr):
        # int() refuses strings over 4300 digits with a ValueError
        code, out, err = run(capsys, "show", "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "5000 digits" in err

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

    def test_deeply_nested_input_file(self, capsys, tmp_path):
        # json raises RecursionError, not ValueError, at this depth
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, "show", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read matroid file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (
                ["show", "--expr", "uniform(3,2)"],
                "uniform matroid needs 0 <= r <= n, got r=3, n=2",
            ),
            (
                ["show", "--expr", "uniform(1,11)"],
                "ground set of size 11 exceeds the canonicalization limit 10",
            ),
            (["show", "--expr", "graphic(2;0-5)"], "edge (0,5) exceeds vertex count 2"),
            (
                ["show", "--expr", "bogus"],
                "cannot parse expression 'bogus'; expected uniform(r,n) or "
                "graphic(v; u-w, ...)",
            ),
            (
                ["split", "--expr", "uniform(0,0)"],
                "the empty matroid is not in the augmentation ideal",
            ),
            (
                ["show", "--input", "i2.json"],
                "I2 violated: (0, 1) is independent but its subset (1,) is not",
            ),
            (
                ["show", "--input", "ntrue.json"],
                "ntrue.json: 'n' must be a nonnegative integer, got True",
            ),
            (
                ["show", "--input", "missing.json"],
                "cannot read matroid file missing.json: [Errno 2] No such file or "
                "directory: 'missing.json'",
            ),
            (["show"], "one of --expr or --input is required"),
            (
                ["verify", "--max-n", "5"],
                "catalog enumeration is limited to ground sets of size 4, got 5",
            ),
        ],
    )
    def test_error_corpus(self, capsys, tmp_path, monkeypatch, argv, stderr):
        # the exact line of each kind of bad input, relative paths included
        monkeypatch.chdir(tmp_path)
        (tmp_path / "i2.json").write_text('{"n": 2, "independent": [[], [0, 1]]}')
        (tmp_path / "ntrue.json").write_text('{"n": true, "independent": [[]]}')
        assert run(capsys, *argv) == (2, "", f"error: {stderr}\n")

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

    def test_oversized_input_exits_before_validating(self, capsys, tmp_path, monkeypatch):
        # validating a file before its size check took over a minute for
        # U_{8,16}'s 39,203 sets, only to be rejected afterwards
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 11, "independent": [[]]}))
        monkeypatch.setattr(matroid, "validate", lambda *args: pytest.fail("validate was called"))
        code, out, err = run(capsys, "show", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "11" in err

    def test_oversized_expression_exits_before_building(self, capsys):
        # 30 edges: building the family first would walk 2^30 edge subsets
        expr = "graphic(2; " + ", ".join(["0-1"] * 30) + ")"
        code, out, err = run(capsys, "show", "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "30" in err

    @pytest.mark.parametrize(
        "max_n, reason",
        [
            pytest.param("-1", "--max-n", id="verify"),
            pytest.param("5", "size 4, got 5", id="verify-5"),
        ],
    )
    def test_negative_max_n(self, capsys, monkeypatch, max_n, reason):
        # rejected before any enumeration
        def enumerated(*args):
            pytest.fail(f"verify --max-n {max_n} enumerated a catalog")

        monkeypatch.setattr("matroid_hopf.verify.cached_catalog", enumerated)
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert reason in err
        assert sum("error:" in line for line in err.splitlines()) == 1


class TestVerifyAndEnumerate:
    def test_verify_small_is_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "2")
        lines = out.splitlines()
        assert lines[-1].endswith("suites passed")
        # at n <= 2 the restriction-deletion dendriform defect is not visible
        assert code == 0
        assert all(line.startswith("ok") for line in lines[:-1])

    def test_verify_without_nonempty_classes_passes(self, capsys):
        # only the empty class: every suite passes, the witness suite with
        # no pair tried
        assert main(["verify", "--max-n", "0"]) == 0
        out = capsys.readouterr().out
        assert "ok   codendriform-gap      no pair of nonempty classes tried" in out

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "--max-n", "1")
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["command"] == "verify" for r in records)
        assert "summary" in records[-1]

    def test_verify_reads_no_cache(self, capsys, tmp_path, monkeypatch):
        # the same code and rows with every cache read failing the test and
        # an empty home directory, which stays empty
        expected = run(capsys, "verify", "--max-n", "2")
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setattr(
            "matroid_hopf.catalog.load_cache", lambda *args: pytest.fail("read a cache")
        )
        assert run(capsys, "verify", "--max-n", "2") == expected
        assert not list(tmp_path.iterdir())

    def test_verify_enumerates_again_over_malformed_records(self, tmp_path):
        # true loads as 1: these records name genuine classes, which verify
        # once took from the cache and printed as U_{0,True}.  It runs in a
        # child, whose empty memos cannot map U_{0,True} onto U_{0,1}.
        for n in range(3):
            save_cache(enumerate_matroids(n), tmp_path)
        for n, genuine, malformed in [
            (1, '{"n": 1, "independent": [[]]}', '{"n": true, "independent": [[]]}'),
            (2, '[[], [0], [1]]', '[[], [0], [true]]'),
        ]:
            path = tmp_path / f"catalog-{n}.jsonl"
            path.write_text(path.read_text().replace(genuine, malformed))
        child = run_library_verify(2, tmp_path)
        fresh = run_library_verify(2)
        assert (child.returncode, child.stdout) == (fresh.returncode, fresh.stdout)
        assert "(U_{0,1}, U_{0,1})" in child.stdout


class TestEntryPoint:
    """``python -m matroid_hopf.cli`` runs ``entry()``, which exits with main's code."""

    def test_success(self):
        child = run_module("poly", "--expr", "uniform(2,4)")
        assert (child.returncode, child.stdout) == (0, "x^4\n")

    def test_verification_failure(self):
        # dendriform-rd fails from n = 4 on, by design
        child = run_module("verify", "--max-n", "4")
        assert child.returncode == 1, child.stderr
        assert "FAIL dendriform-rd" in child.stdout

    def test_input_error(self):
        child = run_module("poly", "--expr", "uniform(9,3)")
        assert child.returncode == 2
        assert child.stdout == ""
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("first_line", [True, False], ids=["after-line-1", "at-start"])
    def test_closed_stdout_ends_quietly(self, unbuffered, first_line):
        # like `verify --json | head -n 1`; closed at the start, the child's
        # first write meets the closed pipe whether stdout is buffered or not
        child = subprocess.Popen(
            [sys.executable, "-m", "matroid_hopf.cli", "verify", "--max-n", "2", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1]),
                "PYTHONUNBUFFERED": unbuffered,
            },
        )
        if first_line:
            row = json.loads(child.stdout.readline())
            assert row["check"] == "matroid-axioms"
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=120), stderr) == (0, b"")
