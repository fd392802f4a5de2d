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

from .canonical import GroundSetTooLarge, MAX_GROUND_SET, canonical_key
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
from .matroid import AxiomViolation, BadVertexIndex, InvalidRank, Matroid, mask_of
from .verify import run_all


class InputError(ValueError):
    pass


_UNIFORM_RE = re.compile(r"^uniform\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")
_GRAPHIC_RE = re.compile(r"^graphic\(\s*(\d+)\s*(?:;(.*))?\)$")


def parse_expression(text: str) -> Matroid:
    """uniform(r,n) or graphic(v; u1-w1, ...); no family beyond MAX_GROUND_SET."""
    from .matroid import graphic, uniform

    text = text.strip()
    m = _UNIFORM_RE.match(text)
    if m:
        n = int(m.group(2))
        if n > MAX_GROUND_SET:
            raise GroundSetTooLarge(n)
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
        if len(edges) > MAX_GROUND_SET:
            raise GroundSetTooLarge(len(edges))
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
    from .matroid import validate

    return validate(n, [mask_of(s) for s in sets])


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


class Emitter:
    """Collects output lines; text or one JSON object per line."""

    def __init__(self, as_json: bool):
        self.as_json = as_json

    def emit(self, payload: dict, text: str) -> None:
        if self.as_json:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(text)


def _add_matroid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--expr", help="constructor expression, e.g. 'uniform(1,2)'")
    parser.add_argument("--input", help="path to a matroid JSON file")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroid-hopf",
        description="Matroid Hopf algebra computations with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="ground set, rank, loops, isomorphism class")
    _add_matroid_args(p)

    p = sub.add_parser("coproduct", help="full coproduct of a matroid")
    _add_matroid_args(p)
    p.add_argument("--mode", choices=["rc", "rd"], default="rd")

    p = sub.add_parser("antipode", help="restriction-deletion antipode")
    _add_matroid_args(p)

    p = sub.add_parser("split", help="dendriform halves of the reduced coproduct")
    _add_matroid_args(p)
    p.add_argument("--mode", choices=["rc", "rd"], default="rd")

    p = sub.add_parser("poly", help="the subset-sum polynomial invariant")
    _add_matroid_args(p)

    p = sub.add_parser("alpha", help="the convolution character value")
    _add_matroid_args(p)

    p = sub.add_parser("verify", help="run every identity suite")
    p.add_argument("--all", action="store_true", help="run all suites (default)")
    p.add_argument("--max-n", type=_nonnegative_int, default=MAX_CATALOG_N)
    p.add_argument("--json", action="store_true")
    p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("enumerate", help="write catalog cache files")
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
    out = Emitter(getattr(args, "json", False))
    if args.command in ("verify", "enumerate") and args.max_n > MAX_CATALOG_N:
        raise CatalogTooLarge(args.max_n)
    if args.command == "show":
        m = _matroid_from_args(args)
        key = canonical_key(m)
        c, l = m.element_counts()
        lines = [
            ("n", str(m.n)),
            ("rank", str(m.rank() if m.n else 0)),
            ("independent-sets", str(len(m.independents))),
            ("loops", str(l)),
            ("non-loops", str(c)),
            ("class", key.render()),
            ("monomial", Monomial.from_matroid(m).render()),
        ]
        for name, value in lines:
            out.emit({"command": "show", "field": name, "value": value}, f"{name}: {value}")
        return 0
    if args.command == "coproduct":
        m = _matroid_from_args(args)
        mode = CoproductMode(args.mode)
        text = coproduct(mode, m).render()
        out.emit({"command": "coproduct", "mode": args.mode, "result": text}, text)
        return 0
    if args.command == "antipode":
        m = _matroid_from_args(args)
        text = antipode_rd(canonical_key(m)).render()
        out.emit({"command": "antipode", "result": text}, text)
        return 0
    if args.command == "split":
        m = _matroid_from_args(args)
        mode = CoproductMode(args.mode)
        halves = split(mode, m)
        for name, tensor in (("prec", halves.prec), ("succ", halves.succ)):
            text = tensor.render()
            out.emit(
                {"command": "split", "mode": args.mode, "half": name, "result": text},
                f"{name}: {text}",
            )
        return 0
    if args.command == "poly":
        m = _matroid_from_args(args)
        text = poly_P(m).render()
        out.emit({"command": "poly", "result": text}, text)
        return 0
    if args.command == "alpha":
        m = _matroid_from_args(args)
        text = alpha(m).render()
        out.emit({"command": "alpha", "result": text}, text)
        return 0
    if args.command == "verify":
        cache_dir = Path(args.cache_dir) if args.cache_dir else None
        results = run_all(max_n=args.max_n, cache_dir=cache_dir)
        width = max(len(r.name) for r in results)
        for r in results:
            status = "ok" if r.ok else "FAIL"
            out.emit(
                {"command": "verify", "check": r.name, "ok": r.ok, "detail": r.detail},
                f"{status:4} {r.name:<{width}}  {r.detail}",
            )
        passed = sum(r.ok for r in results)
        summary = f"{passed}/{len(results)} suites passed"
        out.emit(
            {"command": "verify", "summary": summary, "ok": passed == len(results)},
            summary,
        )
        return 0 if passed == len(results) else 1
    if args.command == "enumerate":
        cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        for n in range(args.max_n + 1):
            catalog = enumerate_matroids(n)
            path = save_cache(catalog, cache_dir)
            out.emit(
                {
                    "command": "enumerate",
                    "n": n,
                    "classes": len(catalog),
                    "labeled": catalog.labeled_count,
                    "path": str(path),
                },
                f"n={n}: {len(catalog)} classes ({catalog.labeled_count} labeled) -> {path}",
            )
        return 0
    raise InputError(f"unknown command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
