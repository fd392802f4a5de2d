"""Layer tracing and memo inspection for the benchmark, from outside ``src/``.

The tracer wraps the package's public functions: it replaces the name in
every package module that imported it, and the attribute on the class for
methods.  Every wrapped call pushes a frame, so a layer's self time is its
duration minus the time its wrapped callees took.  Calls at the public
boundaries (coproducts, antipode, splits, ``poly_P``, ``alpha``, catalog
enumeration, verify suites) are also kept as spans with a parent id; hot
inner calls (minors, ``canonical_key``, polynomial and tensor arithmetic,
functional evaluations) keep aggregate counts and times only.

Memos are found by inspection rather than by name: a module-level dict or
sized object whose name contains "cache" or "memo", an ``lru_cache``
wrapper, or such a dict on an instance of a package class.  A memo a later
change adds is then counted, and emptied by the fork that isolates a cold
query, without edits here.  A cache miss is a call during which its
module's memos grew.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time

PACKAGE = "matroid_hopf"

# (layer, module, owner class or None, attributes, span, memo module for misses)
BOUNDARIES = (
    ("canonical.key", "canonical", None, ("canonical_key",), False, "canonical"),
    ("matroid.restrict", "matroid", "Matroid", ("restrict",), False, None),
    ("matroid.contract", "matroid", "Matroid", ("contract",), False, None),
    ("matroid.components", "matroid", "Matroid", ("components",), False, None),
    (
        "formal.polynomial",
        "formal",
        "Polynomial",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "__truediv__", "__pow__", "__eq__", "eval"),
        False,
        None,
    ),
    (
        "formal.monomial",
        "formal",
        "Monomial",
        ("from_matroid", "from_factors", "__mul__", "matroid", "render"),
        False,
        None,
    ),
    (
        "formal.tensor",
        "formal",
        "TensorElement",
        ("__init__", "__add__", "__sub__", "__neg__", "__rmul__", "__eq__",
         "swap", "legwise_product", "render"),
        False,
        None,
    ),
    (
        "formal.module",
        "formal",
        "ModuleElement",
        ("__add__", "__sub__", "__neg__", "__rmul__", "__mul__", "__eq__", "render"),
        False,
        None,
    ),
    ("formal.module", "formal", None, ("module_product",), False, None),
    ("hopf.coproduct", "hopf", None, ("coproduct",), True, None),
    ("hopf.coproduct_monomial", "hopf", None, ("coproduct_monomial",), True, "hopf"),
    ("hopf.antipode", "hopf", None, ("antipode_rd",), True, "hopf"),
    ("hopf.iterated", "hopf", None, ("iterated_coproduct",), True, None),
    ("dendriform.split", "dendriform", None, ("split", "reduced_coproduct"), True, None),
    ("dendriform.axioms", "dendriform", None, ("check_dendriform_axioms",), True, None),
    ("dendriform.gap", "dendriform", None, ("codendriform_gap",), True, None),
    ("characters.poly_P", "characters", None, ("poly_P",), True, None),
    (
        "characters.alpha",
        "characters",
        None,
        ("alpha", "alpha_of_monomial", "alpha_four_factor"),
        True,
        None,
    ),
    ("catalog.enumerate", "catalog", None, ("enumerate_matroids",), True, None),
)
# Functionals are evaluated through one method; their layer is named after
# the factory that built them.
FUNCTIONAL_FACTORIES = (("convolve", "characters.convolve"), ("conv_exp", "characters.conv_exp"))
FUNCTIONAL_LAYER = "characters.functional"
MEMO_MODULES = ("canonical", "hopf", "characters")


class TracerError(RuntimeError):
    """A boundary the tracer or a guard needs is missing from the package."""


class ColdIsolationError(RuntimeError):
    """A query that must start cold found a warm memo."""


def package_modules() -> dict[str, object]:
    """Loaded package modules by short name ('' for the package itself)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            out[name[len(PACKAGE) + 1 :]] = mod
    return out


def _is_memo_name(name: str) -> bool:
    low = name.lower()
    return "cache" in low or "memo" in low


def _probe(obj):
    """A size probe if ``obj`` is a memo container, else None."""
    info = getattr(obj, "cache_info", None)
    if callable(info):
        return lambda: info().currsize
    if callable(obj) or isinstance(obj, (str, bytes, tuple, frozenset)):
        return None
    if hasattr(obj, "__len__"):
        return lambda: len(obj)
    return None


def discover_memos() -> dict[str, list]:
    """Size probes for module-level memos, keyed by the defining module.

    An ``lru_cache`` wrapper belongs to the module that defined it, any other
    memo to the module it is found in first.  Each memo counts once.
    """
    found: dict[int, tuple[str, object]] = {}
    for short, mod in package_modules().items():
        for name, obj in vars(mod).items():
            if id(obj) in found:
                continue
            if hasattr(obj, "cache_info"):
                owner = getattr(obj, "__module__", "")[len(PACKAGE) + 1 :]
            elif _is_memo_name(name) and _probe(obj) is not None:
                owner = short
            else:
                continue
            found[id(obj)] = (owner, obj)
    probes: dict[str, list] = {}
    for owner, obj in found.values():
        probes.setdefault(owner, []).append(_probe(obj))
    return probes


def memo_sizer(short: str):
    probes = discover_memos().get(short, [])
    return lambda: sum(p() for p in probes)


def instance_memo_size(obj) -> int:
    return sum(
        len(v)
        for k, v in getattr(obj, "__dict__", {}).items()
        if _is_memo_name(k) and isinstance(v, dict)
    )


def memo_sizes(instances=None) -> dict[str, int]:
    """Entries held in every memo, by module, plus the total.

    Instance memos are counted on ``instances`` when given, otherwise on
    every live instance of a package class (a full heap scan).
    """
    sizes = {
        short: sum(p() for p in probes) for short, probes in discover_memos().items()
    }
    if instances is None:
        instances = [
            o
            for o in gc.get_objects()
            if type(o).__module__.startswith(PACKAGE + ".")
        ]
    for obj in instances:
        short = type(obj).__module__[len(PACKAGE) + 1 :]
        sizes[short] = sizes.get(short, 0) + instance_memo_size(obj)
    out = {f"memo.{m}.size": sizes.get(m, 0) for m in MEMO_MODULES}
    out["memo.total.size"] = sum(sizes.values())
    return out


def replace_everywhere(original, replacement) -> list:
    """Rebind every package-module name bound to ``original``."""
    undo = []
    for mod in package_modules().values():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


def _module(short: str):
    try:
        return importlib.import_module(f"{PACKAGE}.{short}")
    except ImportError as err:
        raise TracerError(f"cannot import {PACKAGE}.{short}: {err}") from err


def _attribute(owner, name: str, where: str):
    try:
        return owner.__dict__[name]
    except KeyError:
        raise TracerError(f"{where}.{name} not found; update the benchmark's boundaries") from None


def suite_functions() -> list:
    """The ``check_*`` suites that ``verify`` defines (not those it imports)."""
    verify = _module("verify")
    suites = [
        fn
        for name, fn in vars(verify).items()
        if name.startswith("check_")
        and callable(fn)
        and getattr(fn, "__module__", "") == verify.__name__
    ]
    if not suites:
        raise TracerError(f"no check_* suites found in {PACKAGE}.verify")
    return suites


class FirstKeyGuard:
    """Fails a cold query whose first ``canonical_key`` call is a cache hit.

    Install after any tracer, since removal puts back what it replaced.
    """

    def __init__(self):
        canonical = _module("canonical")
        self._original = _attribute(canonical, "canonical_key", f"{PACKAGE}.canonical")
        self._size = memo_sizer("canonical")
        self._undo = replace_everywhere(self._original, self._first_call)

    def _first_call(self, *args, **kwargs):
        restore(self._undo)
        before = self._size()
        key = self._original(*args, **kwargs)
        # a hit needs a memo that already held entries and did not grow
        if before and self._size() == before:
            raise ColdIsolationError(
                "the first canonical_key call of a cold query was a cache hit"
            )
        return key

    def remove(self) -> None:
        restore(self._undo)


class Tracer:
    """Frames, per-layer aggregates and boundary spans for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [[0.0, 0]]
        self.agg: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.trace = 0
        self._next_id = 0
        self._undo: list = []
        self.functionals: dict = {}

    # -- recording -------------------------------------------------------

    def _stats(self, layer: str) -> list:
        # calls, total seconds, self seconds, memo misses, extra count
        return self.agg.setdefault(layer, [0, 0.0, 0.0, 0, 0])

    def _enter(self, span: bool):
        parent = self.stack[-1]
        if span:
            self._next_id += 1
            frame = [0.0, self._next_id]
        else:
            frame = [0.0, parent[1]]
        self.stack.append(frame)
        return parent, frame

    def _leave(self, parent, frame, stats, layer, span, t0, t1) -> None:
        self.stack.pop()
        dur = t1 - t0
        parent[0] += dur
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - frame[0]
        if span:
            self.spans.append((self.trace, frame[1], parent[1], layer, t0, t1))

    def wrap(self, fn, layer: str, span: bool, sizer=None, extra=None):
        stats = self._stats(layer)
        perf = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, frame = self._enter(span)
            before = sizer() if sizer else 0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._leave(parent, frame, stats, layer, span, t0, t1)
                if sizer:
                    stats[3] += sizer() - before
                if extra:
                    stats[4] += extra(args)

        return traced

    def root(self, name: str, trace_id: int, fn, *args):
        """Run ``fn`` as the root span of one query or suite."""
        self.trace = trace_id
        stats = self._stats(name)
        parent, frame = self._enter(True)
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            self._leave(parent, frame, stats, name, True, t0, self.clock())

    # -- installation ----------------------------------------------------

    def install(self) -> Tracer:
        for layer, short, cls_name, attrs, span, memo_mod in BOUNDARIES:
            mod = _module(short)
            sizer = memo_sizer(memo_mod) if memo_mod else None
            extra = _subset_count if layer == "characters.poly_P" else None
            if cls_name is None:
                for attr in attrs:
                    fn = _attribute(mod, attr, f"{PACKAGE}.{short}")
                    self._undo += replace_everywhere(
                        fn, self.wrap(fn, layer, span, sizer, extra)
                    )
                continue
            cls = _attribute(mod, cls_name, f"{PACKAGE}.{short}")
            for attr in attrs:
                raw = _attribute(cls, attr, f"{PACKAGE}.{short}.{cls_name}")
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, layer, span, sizer, extra))
                else:
                    new = self.wrap(raw, layer, span, sizer, extra)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
        self._install_functionals()
        self._install_suites()
        return self

    def _install_functionals(self) -> None:
        characters = _module("characters")
        for factory, layer in FUNCTIONAL_FACTORIES:
            fn = _attribute(characters, factory, f"{PACKAGE}.characters")
            self._undo += replace_everywhere(fn, self._tagging(fn, layer))
        cls = _attribute(characters, "LinearFunctional", f"{PACKAGE}.characters")
        call = _attribute(cls, "__call__", f"{PACKAGE}.characters.LinearFunctional")
        perf = self.clock
        functionals = self.functionals
        tracer = self

        @functools.wraps(call)
        def traced_call(functional, *args):
            layer = functionals.setdefault(functional, FUNCTIONAL_LAYER)
            stats = tracer._stats(layer)
            parent, frame = tracer._enter(False)
            t0 = perf()
            try:
                return call(functional, *args)
            finally:
                tracer._leave(parent, frame, stats, layer, False, t0, perf())

        cls.__call__ = traced_call
        self._undo.append((cls, "__call__", call))

    def _tagging(self, factory, layer: str):
        @functools.wraps(factory)
        def tagged(*args, **kwargs):
            functional = factory(*args, **kwargs)
            self.functionals[functional] = layer
            return functional

        return tagged

    def _install_suites(self) -> None:
        for fn in suite_functions():
            self._undo += replace_everywhere(fn, self._suite(fn))

    def _suite(self, fn):
        perf = self.clock

        @functools.wraps(fn)
        def traced_suite(*args, **kwargs):
            self.trace += 1  # each suite is its own trace
            parent, frame = self._enter(True)
            t0 = perf()
            layer = f"verify.{fn.__name__}"
            try:
                result = fn(*args, **kwargs)
                layer = f"verify.{result.name}"
                return result
            finally:
                t1 = perf()
                self._leave(parent, frame, self._stats(layer), layer, True, t0, t1)

        return traced_suite

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates, spans, and the memo sizes held now."""
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "spans": list(self.spans),
            "memo": memo_sizes(instances=list(self.functionals)),
        }


def _subset_count(args) -> int:
    return 1 << args[0].n


def merge_snapshots(snaps: list[dict]) -> dict:
    """Sum aggregates and concatenate spans; memo sizes take the maximum."""
    agg: dict[str, list] = {}
    spans: list = []
    memo: dict[str, int] = {}
    for snap in snaps:
        for layer, vals in snap["agg"].items():
            acc = agg.setdefault(layer, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        spans.extend(snap["spans"])
        for k, v in snap["memo"].items():
            memo[k] = max(memo.get(k, 0), v)
    return {"agg": agg, "spans": spans, "memo": memo}
