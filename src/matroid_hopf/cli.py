"""Command-line front end.

Subcommands: show, coproduct, antipode, split, poly, alpha, verify,
enumerate.  Matroids come from --input (JSON file with keys "n" and
"independent") or --expr ("uniform(r,n)" or "graphic(v; u-w, ...)").
Output is deterministic; --json mirrors each text line as one JSON object.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .canonical import GroundSetTooLarge, canonical_key, check_size
from .catalog import (
    CatalogTooLarge,
    MAX_CATALOG_N,
    default_cache_dir,
    enumerate_matroids,
    save_cache,
)
from .characters import alpha, poly_P
from .dendriform import EmptyMatroidError, split
from .formal import Monomial
from .hopf import CoproductMode, antipode_rd, coproduct
from .matroid import (
    AxiomViolation,
    BadVertexIndex,
    InvalidRank,
    Matroid,
    graphic,
    mask_of,
    uniform,
    validate,
)
from .verify import run_all


class InputError(ValueError):
    pass


_UNIFORM_RE = re.compile(r"^uniform\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")
_GRAPHIC_RE = re.compile(r"^graphic\(\s*(\d+)\s*(?:;(.*))?\)$")


def parse_expression(text: str) -> Matroid:
    """uniform(r,n) or graphic(v; u1-w1, ...); no family beyond MAX_GROUND_SET."""
    text = text.strip()
    m = _UNIFORM_RE.match(text)
    if m:
        n = int(m.group(2))
        check_size(n)
        return uniform(int(m.group(1)), n)
    m = _GRAPHIC_RE.match(text)
    if m:
        vertex_count = int(m.group(1))
        edges = []
        body = (m.group(2) or "").strip()
        if body:
            for part in body.split(","):
                try:
                    u, w = (int(end) for end in part.strip().split("-"))
                except ValueError:
                    raise InputError(f"bad edge {part.strip()!r}, expected 'u-w'") from None
                edges.append((u, w))
        check_size(len(edges))
        return graphic(vertex_count, edges)
    raise InputError(
        f"cannot parse expression {text!r}; expected uniform(r,n) or "
        f"graphic(v; u-w, ...)"
    )


def load_matroid_file(path: str) -> Matroid:
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise InputError(f"cannot read matroid file {path}: {err}") from err
    if not isinstance(record, dict) or "n" not in record or "independent" not in record:
        raise InputError(f"{path}: expected an object with keys 'n' and 'independent'")
    n, sets = record["n"], record["independent"]
    if not _is_int(n) or n < 0:
        raise InputError(f"{path}: 'n' must be a nonnegative integer, got {n!r}")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise InputError(f"{path}: 'independent' must be a list of element lists")
    for s in sets:
        for e in s:
            if not _is_int(e) or not 0 <= e < n:
                raise InputError(
                    f"{path}: element {e!r} is not an integer in [0, {n})"
                )
    m = validate(n, [mask_of(s) for s in sets])
    check_size(m.n)
    return m


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


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
    catalog = sub.add_parser("enumerate", help="write catalog cache files")
    for p in (verify, catalog):
        p.add_argument("--max-n", type=_nonnegative_int, default=MAX_CATALOG_N)
        p.add_argument("--json", action="store_true")
        p.add_argument("--cache-dir", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _dispatch(args)
    except (
        InputError,
        AxiomViolation,
        InvalidRank,
        BadVertexIndex,
        GroundSetTooLarge,
        EmptyMatroidError,
        CatalogTooLarge,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    def emit(fields: dict, text: str) -> None:
        if args.json:
            print(json.dumps({"command": args.command, **fields}, sort_keys=True))
        else:
            print(text)

    if args.command in ("verify", "enumerate") and args.max_n > MAX_CATALOG_N:
        raise CatalogTooLarge(args.max_n)
    if args.command in COMMANDS:
        _, takes_mode, lines = COMMANDS[args.command]
        m = _matroid_from_args(args)
        mode = CoproductMode(args.mode) if takes_mode else None
        for fields, text in lines(m, mode):
            emit({"mode": args.mode, **fields} if mode else fields, text)
        return 0
    if args.command == "verify":
        cache_dir = Path(args.cache_dir) if args.cache_dir else None
        results = run_all(max_n=args.max_n, cache_dir=cache_dir)
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
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    for n in range(args.max_n + 1):
        catalog = enumerate_matroids(n)
        try:
            path = save_cache(catalog, cache_dir)
        except OSError as err:
            raise InputError(f"cannot write the catalog cache to {cache_dir}: {err}")
        emit(
            {
                "n": n,
                "classes": len(catalog),
                "labeled": catalog.labeled_count,
                "path": str(path),
            },
            f"n={n}: {len(catalog)} classes ({catalog.labeled_count} labeled) -> {path}",
        )
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
