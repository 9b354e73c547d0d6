"""Call tracer for the benchmark's child processes.

`Tracer.install()` wraps every public function of the loaded `casimir`
modules where it is defined and at every module that binds it through
`from ... import`, and every public method on its class.  Each call records
a span (parent id, name, start, end) in memory; `summary()` turns the spans
into per-name call counts and self times (duration minus the time covered
by child spans) plus a few counters taken at the same boundaries.  The
speed samples of `speed.py` count in whichever span they interrupt, about
1% of its time.

Imported only by traced children, after `casimir` is imported, so untraced
runs execute the program unmodified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

PACKAGE = "casimir"
# private helpers that are layer boundaries named by the benchmark
EXTRA = {"casimir.cli": ("_grid_samples", "_emit")}
# arguments recorded per call, to measure how much work repeats
DISTINCT = ("expr.mul", "expr.diff")
# exact scalar arithmetic: hundreds of thousands of tiny calls per command,
# counted in the self time of the expr functions that use it
SKIP_MODULES = ("casimir.cnum",)


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [parent span id, name index, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._hooks = {
            "operator.apply_casimir": self._count_terms,
            "numcheck.is_zero": self._count_verdict,
            "numcheck.sample_box": self._count_samples,
            "evalcore.Program.run": self._count_points,
        }

    # -- counters taken at layer boundaries --------------------------------

    def _bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _count_terms(self, args, kwargs, result):
        from casimir import expr as ex

        terms = sum(len(c.terms) if type(c) is ex.Add else int(c != ex.ZERO) for c in result.comps)
        self._bump("operator.apply_casimir.out_terms", terms)

    def _count_verdict(self, args, kwargs, result):
        kind = {"symbolically-zero": "symbolic", "numerically-zero": "numeric"}.get(
            result.verdict.value, "nonzero"
        )
        self._bump(f"numcheck.verdict.{kind}")

    def _count_samples(self, args, kwargs, result):
        self._bump("numcheck.points", len(result))

    def _count_points(self, args, kwargs, result):
        self._bump("evalcore.run.points", len(result))

    # -- spans ----------------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        index = self._index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        seen = self.distinct.get(name)
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                try:
                    seen.add(args)
                except TypeError:
                    seen.add(tuple(id(a) for a in args))
            rec = [stack[-1] if stack else -1, index, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public callables of every loaded casimir module; returns the count."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
                   and n not in SKIP_MODULES]
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            extra = EXTRA.get(mod.__name__, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in extra:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(obj, f"{_short(mod.__name__)}.{attr}")
                elif inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{_short(mod.__name__)}.{attr}"))
        for mod in modules:  # rebind at every import site
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        cli = sys.modules.get(PACKAGE + ".cli")
        if cli is not None:  # the CLI renders family documents with json.dumps directly
            proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json)
                                             if not k.startswith("__")})
            proxy.dumps = self.wrap(json.dumps, "cli.json.dumps")
            cli.json = proxy
        return len(self.names)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(val.__func__, f"{prefix}.{attr}")))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self.wrap(val.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(val):
                setattr(cls, attr, self.wrap(val, f"{prefix}.{attr}"))

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """{"calls": {name: n}, "self_s": {name: s}, "counters": {...}, "distinct": {...}}."""
        child_time = [0.0] * len(self.spans)
        for parent, _index, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (parent, index, start, end), inner in zip(self.spans, child_time):
            name = self.names[index]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
        return {
            "spans": len(self.spans),
            "calls": calls,
            "self_s": self_s,
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
