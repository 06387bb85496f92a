"""Per-layer tracing by wrapping the engine's public functions.

The wrappers live in the benchmark, not in the engine: each traced name
is replaced in every ``monocat.*`` module namespace that binds the same
function object (``rewrite`` imports ``canonical`` by name, for one), so
calls are counted whichever module makes them.  A name or cache that a
later version of the engine no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# traced name -> (module, attribute); several attributes may share a name
TRACED = {
    "cli.parse_expr": [("monocat.cli", "parse_expr")],
    "terms.canonical": [("monocat.terms", "canonical")],
    "terms.term_from_layers": [("monocat.terms", "term_from_layers")],
    "rewrite.equal": [("monocat.rewrite", "equal")],
    "rewrite.explore": [("monocat.rewrite", "explore")],
    "rewrite.generate_terms": [("monocat.rewrite", "generate_terms")],
    "rewrite.enum_hom_detailed": [("monocat.rewrite", "enum_hom_detailed")],
    "vect.eval_term": [("monocat.vect", "eval_term")],
    "vect.check_rule_instance": [("monocat.vect", "check_rule_instance")],
    "vect.coev_ev": [("monocat.vect", "coev_mat"), ("monocat.vect", "ev_mat")],
}

CACHES = {
    "terms.canonical": ("monocat.terms", "_canonical_key"),
    "rewrite.arrangements": ("monocat.rewrite", "_labelled_arrangements"),
}


class _Stats:
    __slots__ = ("calls", "total_s", "self_s", "witnesses", "states", "candidates",
                 "inner_equal", "inner_merges")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.witnesses = 0
        self.states = 0
        self.candidates = 0
        self.inner_equal = 0
        self.inner_merges = 0


class Tracer:
    """Install with :meth:`install`, read with :meth:`counters`, then
    :meth:`uninstall`.  Results and exceptions pass through unchanged."""

    def __init__(self):
        self.stats = {name: _Stats() for name in TRACED}
        self.absent: list[str] = []
        self._stack: list = []  # [name, child seconds] per active call
        self._patched: list = []
        self._cache_start: dict = {}

    def install(self) -> None:
        for name, targets in TRACED.items():
            found = False
            for module_name, attr in targets:
                try:
                    fn = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    continue
                found = True
                self._patch_everywhere(fn, self._wrap(name, fn))
            if not found:
                self.absent.append(name)
        for name in CACHES:
            info = self._cache_info(name)
            if info is None:
                self.absent.append(f"{name}.cache")
            else:
                self._cache_start[name] = info

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch_everywhere(self, fn, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "monocat" or mod_name.startswith("monocat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    @staticmethod
    def _cache_info(name):
        module_name, attr = CACHES[name]
        try:
            return getattr(importlib.import_module(module_name), attr).cache_info()
        except (ImportError, AttributeError):
            return None

    def _wrap(self, name, fn):
        st = self.stats[name]
        stack = self._stack
        outer = self.stats["rewrite.enum_hom_detailed"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if name == "rewrite.equal":
                st.witnesses += result is not None
                if any(f[0] == "rewrite.enum_hom_detailed" for f in stack):
                    outer.inner_equal += 1
                    outer.inner_merges += result is not None
            elif name == "rewrite.explore":
                st.states += result.states_visited
            elif name == "rewrite.generate_terms":
                st.candidates += len(result)
            return result

        return wrapper

    def counters(self) -> dict:
        """Raw additive counters; see :func:`per_layer` for the metrics."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
        eq = self.stats["rewrite.equal"]
        out["rewrite.equal.witnesses"] = eq.witnesses
        out["rewrite.explore.states"] = self.stats["rewrite.explore"].states
        out["rewrite.generate_terms.candidates"] = self.stats["rewrite.generate_terms"].candidates
        hom = self.stats["rewrite.enum_hom_detailed"]
        out["rewrite.enum_hom_detailed.equal_calls"] = hom.inner_equal
        out["rewrite.enum_hom_detailed.merges"] = hom.inner_merges
        for name, start in self._cache_start.items():
            end = self._cache_info(name)
            out[f"{name}.cache_hits"] = end.hits - start.hits
            out[f"{name}.cache_misses"] = end.misses - start.misses
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(c: dict, passes: int) -> dict:
    """Per-layer metrics from summed counters, per traced pass."""
    get = lambda k: c.get(k, 0)
    per = lambda k: get(k) / passes
    m = {}
    for name in ("cli.parse_expr", "terms.canonical", "terms.term_from_layers",
                 "rewrite.equal", "rewrite.explore", "vect.eval_term",
                 "vect.check_rule_instance", "vect.coev_ev"):
        m[f"{name}.calls"] = per(f"{name}.calls")
        m[f"{name}.self_s"] = per(f"{name}.self_s")
    for name in ("terms.canonical", "rewrite.arrangements"):
        hits, misses = get(f"{name}.cache_hits"), get(f"{name}.cache_misses")
        m[f"{name}.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["rewrite.equal.witness_ratio"] = _ratio(get("rewrite.equal.witnesses"), get("rewrite.equal.calls"))
    m["rewrite.explore.states"] = per("rewrite.explore.states")
    m["rewrite.explore.states_per_s"] = _ratio(get("rewrite.explore.states"), get("rewrite.explore.total_s"))
    m["rewrite.generate_terms.candidates"] = per("rewrite.generate_terms.candidates")
    m["rewrite.generate_terms.self_s"] = per("rewrite.generate_terms.self_s")
    m["rewrite.enum_hom_detailed.self_s"] = per("rewrite.enum_hom_detailed.self_s")
    m["rewrite.enum_hom_detailed.equal_calls"] = per("rewrite.enum_hom_detailed.equal_calls")
    m["rewrite.enum_hom_detailed.merge_ratio"] = _ratio(
        get("rewrite.enum_hom_detailed.merges"), get("rewrite.enum_hom_detailed.equal_calls"))
    return m
