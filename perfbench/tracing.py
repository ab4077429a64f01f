"""
Per-layer tracing from outside the library.

`install` wraps public duinv functions in place: every binding of a target
object among the loaded duinv modules and their classes is replaced by a
wrapper, found by identity, so package re-exports (`duinv.molien`) and
`from .x import f` copies are covered.  Span wrappers record
(name, start, end, parent, op id) in memory; count wrappers only count.
A target a later refactor removes is reported absent, not as a crash.

This module does not import duinv itself: install() rebinds the duinv
modules already in sys.modules, so the worker imports duinv first.
"""
from __future__ import annotations

import collections
import functools
import sys
import time

# (module, qualified name, metric prefix).  Span and count names are the prefix.
SPAN_TARGETS = (
    ("duinv.matgroup", "close_group", "matgroup.close_group"),
    ("duinv.matgroup", "eigenvalues", "matgroup.eigenvalues"),
    ("duinv.matgroup", "Mat2.order", "matgroup.Mat2.order"),
    ("duinv.matgroup", "classify", "matgroup.classify"),
    ("duinv.invariants", "molien", "invariants.molien"),
    ("duinv.invariants", "is_bireflection", "invariants.is_bireflection"),
    ("duinv.invariants", "bireflection_subgroup", "invariants.bireflection_subgroup"),
    ("duinv.invariants", "hdet_matrix", "invariants.hdet_matrix"),
    ("duinv.invariants", "theorem03_report", "invariants.theorem03_report"),
    ("duinv.ratfunc", "stanley_gorenstein_test", "ratfunc.stanley_gorenstein_test"),
    ("duinv.ratfunc", "RatFunc.make", "ratfunc.RatFunc.make"),
    ("duinv.intpoly", "poly_gcd_q", "intpoly.poly_gcd_q"),
    ("duinv.intpoly", "is_cyclotomic_product", "intpoly.is_cyclotomic_product"),
    ("duinv.cli", "parse_matrix", "cli.parse_matrix"),
    ("duinv.cli", "main", "cli.main"),
)
COUNT_TARGETS = (
    ("duinv.cycnum", "CycNum.__mul__", "cycnum.mul"),
    ("duinv.cycnum", "CycNum.__eq__", "cycnum.eq"),
    ("duinv.cycnum", "CycNum.__add__", "cycnum.add"),
    ("duinv.cycnum", "CycNum.inv", "cycnum.inv"),
)
# Bindings that get a span name of their own: ratfunc imports the
# cyclotomic test for denominator cancellation, while the report and the
# suites call it through intpoly.
SITE_NAMES = {("intpoly.is_cyclotomic_product", "duinv.ratfunc"):
              "ratfunc.is_cyclotomic_product"}
# Span wrapped by the worker around each paperlab check call.
CHECK_SPAN = "paperlab.check"
CACHE_TARGETS = (
    ("duinv.matgroup", "eigenvalues", "matgroup.eigenvalues"),
    ("duinv.intpoly", "factorize", "intpoly.factorize"),
)


class Tracer:
    """In-memory spans (name, start, end, parent index, op id) and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: collections.Counter = collections.Counter()

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        _keep_cache_api(wrapper, fn)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _keep_cache_api(wrapper, fn):
    """Leave cache_info() and cache_clear() of an lru_cache'd target readable."""
    for attr in ("cache_info", "cache_clear", "cache_parameters"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))


def resolve(module: str, qualname: str):
    """The object at module:qualname, or None when the name is gone."""
    obj = sys.modules.get(module)
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


def _duinv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "duinv" or name.startswith("duinv."))]


def _rebind(original, make_wrapper) -> int:
    """Replace every binding of `original`; make_wrapper(module name) -> wrapper."""
    done = 0
    for mod in _duinv_modules():
        wrapper = make_wrapper(mod.__name__)
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                done += 1
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for key, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, key, wrapper)
                        done += 1
                    elif isinstance(member, staticmethod) and member.__func__ is original:
                        setattr(value, key, staticmethod(wrapper))
                        done += 1
    return done


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the metric prefixes whose target is absent."""
    absent = []
    for module, qualname, prefix in SPAN_TARGETS:
        original = resolve(module, qualname)
        if original is None or not callable(original):
            absent.append(prefix)
            continue
        wrappers = {}

        def make(site, prefix=prefix, original=original, wrappers=wrappers):
            name = SITE_NAMES.get((prefix, site), prefix)
            if name not in wrappers:
                wrappers[name] = tracer.span(name, original)
            return wrappers[name]

        if not _rebind(original, make):
            absent.append(prefix)
    for module, qualname, prefix in COUNT_TARGETS:
        original = resolve(module, qualname)
        if original is None or not callable(original):
            absent.append(prefix)
            continue
        wrapper = tracer.counter(prefix, original)
        if not _rebind(original, lambda site, w=wrapper: w):
            absent.append(prefix)
    return absent


def cache_stats() -> dict:
    """hits, misses and entries of the lru caches of CACHE_TARGETS."""
    out = {}
    for module, qualname, prefix in CACHE_TARGETS:
        fn = resolve(module, qualname)
        info = getattr(fn, "cache_info", None)
        if info is None:
            continue
        ci = info()
        out[prefix] = {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}
    return out


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def span_totals(spans) -> dict:
    """
    name -> {"calls", "total_s", "self_s"} from (name, start, end, parent, op)
    spans listed in start order.  Self time is a span's duration minus the
    part of it its child spans cover; total time counts only spans with no
    ancestor of the same name, so recursion is not counted twice.
    """
    n = len(spans)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the child coverage merged so far
    ancestors = [frozenset()] * n  # names of the ancestors of each span
    interned: dict = {}
    out: dict = {}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        if parent >= 0:
            pname, pstart, pend = spans[parent][:3]
            lo = max(start, pstart, reach[parent])
            hi = min(end, pend)
            if hi > lo:
                covered[parent] += hi - lo
            reach[parent] = max(reach[parent], hi)
            key = (ancestors[parent], pname)
            above = interned.get(key)
            if above is None:
                above = interned[key] = ancestors[parent] | {pname}
            ancestors[i] = above
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - covered[i]
        if name not in ancestors[i]:
            rec["total_s"] += end - start
    return out
