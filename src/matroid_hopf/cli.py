"""Command-line front end.

Subcommands: show, coproduct, antipode, split, poly, alpha, verify.
Matroids come from --input (JSON file with keys "n" and "independent") or
--expr ("uniform(r,n)" or "graphic(v; u-w, ...)").  verify enumerates the
catalogs afresh on every run and reads no file.  Output is deterministic;
--json mirrors each text line as one JSON object.
Exit codes: 0 success, 1 verification failure, 2 usage or input error:
``main`` catches every bad input as the library's one ``InputError``.  A
reader that closes standard output early, as ``| head -n 1`` does, ends the
command with 0 and nothing on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .canonical import canonical_key
from .catalog import MAX_CATALOG_N
from .characters import alpha, poly_P
from .dendriform import split
from .formal import Monomial
from .hopf import CoproductMode, antipode_rd, coproduct
from .matroid import InputError, MalformedRecord, Matroid, graphic, uniform
from .verify import run_all

_UNIFORM_RE = re.compile(r"^uniform\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")
_GRAPHIC_RE = re.compile(r"^graphic\(\s*(\d+)\s*(?:;(.*))?\)$")


def _int(digits: str) -> int:
    """int(digits), or an InputError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise InputError(f"integer of {len(digits.lstrip('-'))} digits is too large") from None


def parse_expression(text: str) -> Matroid:
    """uniform(r,n) or graphic(v; u1-w1, ...); no family beyond MAX_GROUND_SET."""
    text = text.strip()
    m = _UNIFORM_RE.match(text)
    if m:
        n = _int(m.group(2))
        return uniform(_int(m.group(1)), n)
    m = _GRAPHIC_RE.match(text)
    if m:
        vertex_count = _int(m.group(1))
        edges = []
        body = (m.group(2) or "").strip()
        if body:
            for part in body.split(","):
                try:
                    u, w = (int(end) for end in part.strip().split("-"))
                except ValueError:
                    raise InputError(f"bad edge {part.strip()!r}, expected 'u-w'") from None
                edges.append((u, w))
        return graphic(vertex_count, edges)
    raise InputError(
        f"cannot parse expression {text!r}; expected uniform(r,n) or "
        f"graphic(v; u-w, ...)"
    )


def load_matroid_file(path: str) -> Matroid:
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as err:
        raise InputError(f"cannot read matroid file {path}: {err}") from err
    try:
        return Matroid.from_dict(record)
    except MalformedRecord as err:
        raise InputError(f"{path}: {err}") from err


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _matroid_from_args(args) -> Matroid:
    if args.expr is not None:
        return parse_expression(args.expr)
    if args.input is not None:
        return load_matroid_file(args.input)
    raise InputError("one of --expr or --input is required")


def _show(m: Matroid, mode):
    key = canonical_key(m)
    c, l = m.element_counts()
    for name, value in (
        ("n", str(m.n)),
        ("rank", str(key.rank)),
        ("independent-sets", str(len(m.independents))),
        ("loops", str(l)),
        ("non-loops", str(c)),
        ("class", key.render()),
        ("monomial", Monomial.from_matroid(m).render()),
    ):
        yield {"field": name, "value": value}, f"{name}: {value}"


def _split(m: Matroid, mode: CoproductMode):
    halves = split(mode, m)
    for name, tensor in (("prec", halves.prec), ("succ", halves.succ)):
        text = tensor.render()
        yield {"half": name, "result": text}, f"{name}: {text}"


def _result(value) -> list[tuple[dict, str]]:
    text = value.render()
    return [({"result": text}, text)]


# name: (help text, takes --mode, function of the matroid and the mode or
# None that yields the output lines as (JSON fields, text) pairs)
COMMANDS = {
    "show": ("ground set, rank, loops, isomorphism class", False, _show),
    "coproduct": (
        "full coproduct of a matroid", True, lambda m, mode: _result(coproduct(mode, m))
    ),
    "antipode": (
        "restriction-deletion antipode",
        False,
        lambda m, mode: _result(antipode_rd(canonical_key(m))),
    ),
    "split": ("dendriform halves of the reduced coproduct", True, _split),
    "poly": (
        "the subset-sum polynomial invariant", False, lambda m, mode: _result(poly_P(m))
    ),
    "alpha": (
        "the convolution character value", False, lambda m, mode: _result(alpha(m))
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroid-hopf",
        description="Matroid Hopf algebra computations with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, takes_mode, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--expr", help="constructor expression, e.g. 'uniform(1,2)'")
        source.add_argument("--input", help="path to a matroid JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if takes_mode:
            p.add_argument("--mode", choices=["rc", "rd"], default="rd")
    verify = sub.add_parser("verify", help="run every identity suite")
    verify.add_argument("--all", action="store_true", help="run all suites (default)")
    verify.add_argument("--max-n", type=_nonnegative_int, default=MAX_CATALOG_N)
    verify.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        code = _dispatch(args)
        # a buffered stdout meets a closed pipe here, not at interpreter exit
        sys.stdout.flush()
        return code
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device so that the
        # interpreter's own flush at exit does not fail on the pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


def _dispatch(args) -> int:
    def emit(fields: dict, text: str) -> None:
        if args.json:
            print(json.dumps({"command": args.command, **fields}, sort_keys=True))
        else:
            print(text)

    if args.command in COMMANDS:
        _, takes_mode, lines = COMMANDS[args.command]
        m = _matroid_from_args(args)
        mode = CoproductMode(args.mode) if takes_mode else None
        for fields, text in lines(m, mode):
            emit({"mode": args.mode, **fields} if mode else fields, text)
        return 0
    results = run_all(max_n=args.max_n)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.ok else "FAIL"
        emit(
            {"check": r.name, "ok": r.ok, "detail": r.detail},
            f"{status:4} {r.name:<{width}}  {r.detail}",
        )
    passed = sum(r.ok for r in results)
    summary = f"{passed}/{len(results)} suites passed"
    emit({"summary": summary, "ok": passed == len(results)}, summary)
    return 0 if passed == len(results) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
