"""Running items against the engine and checking every output.

``Context.run`` is the timed operation: it calls only public engine
functions, looked up on their modules at call time, so the tracer's
wrappers (or a test's stub) are what gets called.  ``Context.check``
judges the answer with the benchmark's own references (``reference.py``)
and returns the outputs-digest record of the item.
"""

from __future__ import annotations

import hashlib

from monocat import cli, rewrite, terms, vect

from reference import (
    CHECK_PAIRINGS,
    DEFAULT_PRIME,
    Semantics,
    invariant,
    kind_n_multiset,
    nat_instance,
    target,
    to_mod,
    triangle_instance,
)


def layers_of(t) -> list:
    return [(s.left, s.gen.kind.value, s.gen.m, s.gen.n) for s in t.slices]


def key_of(t) -> tuple:
    return (t.source, tuple(layers_of(t)))


def _tuples(layers) -> list:
    return [tuple(x) for x in layers]


def _caps(caps):
    return rewrite.DEFAULT_CAPS if caps is None else rewrite.SearchCaps(*caps)


class Context:
    def __init__(self):
        self._specs: dict = {}
        self._table = None
        self.check_sems = [Semantics(rows) for rows in CHECK_PAIRINGS]

    # -- set-up ------------------------------------------------------------

    def spec(self, d: int, phi: str, field: str):
        key = (d, phi, field)
        if key not in self._specs:
            f = vect.RATIONALS if field == "q" else vect.PrimeField()
            if phi == "identity":
                spec = vect.FunctorSpec.identity(d, f)
            else:
                spec = vect.FunctorSpec.random(d, int(phi.split(":")[1]), f)
            p = spec.field.p if field == "p" else DEFAULT_PRIME
            self._specs[key] = (spec, Semantics(spec.phi.entries, p))
        return self._specs[key]

    def table(self) -> dict:
        if self._table is None:
            self._table = {
                (rule.value, tuple(params)): (lhs, rhs)
                for rule, params, lhs, rhs in rewrite.rule_instances()
            }
        return self._table

    def prepare(self, item: dict):
        kind = item["kind"]
        if kind in ("equal", "explore"):
            return (terms.Mode[item["mode"]], _caps(item["caps"]))
        if kind == "homset":
            return (terms.Mode[item["mode"]], _caps(item["caps"]), _caps(item["merge_caps"]))
        if kind == "rule_check":
            spec, _ = self.spec(item["d"], item["phi"], item["field"])
            lhs, rhs = self.table()[(item["rule"], tuple(item["params"]))]
            return (spec, lhs, rhs)
        if kind == "eval":
            spec, _ = self.spec(item["d"], item["phi"], item["field"])
            return (spec, _term(item["source"], item["layers"]))
        if kind == "canonical":
            return _term(item["source"], item["layers"])
        raise ValueError(kind)

    # -- the timed operation -------------------------------------------------

    def run(self, item: dict, prep):
        kind = item["kind"]
        if kind == "equal":
            mode, caps = prep
            a, b = cli.parse_expr(item["a"]), cli.parse_expr(item["b"])
            return a, b, rewrite.equal(a, b, mode, caps)
        if kind == "explore":
            mode, caps = prep
            t = cli.parse_expr(item["expr"])
            return t, rewrite.explore(t, mode, caps)
        if kind == "homset":
            mode, caps, merge = prep
            return rewrite.enum_hom_detailed(item["m"], item["n"], mode, caps, merge)
        if kind == "rule_check":
            return vect.check_rule_instance(*prep)
        if kind == "eval":
            return vect.eval_term(*prep)
        return terms.canonical(prep)

    # -- checks --------------------------------------------------------------

    def check(self, item: dict, prep, out) -> dict:
        """{"ok", "ops", "out", ...}: ``out`` is the digest record."""
        return getattr(self, "_check_" + item["kind"])(item, prep, out)

    def _images(self, source, layers):
        return [sem.fingerprint(source, layers) for sem in self.check_sems]

    def _same_class(self, ref, t, mode_d: bool) -> str | None:
        """Why ``t`` cannot be in the class of ``ref``; None if no reason."""
        ra, ta = layers_of(ref), layers_of(t)
        if (ref.source, ref.target) != (t.source, t.target):
            return "shape differs"
        if invariant(ra) != invariant(ta):
            return "additive invariant differs"
        if mode_d and kind_n_multiset(ra) != kind_n_multiset(ta):
            return "(kind, n) multiset differs in mode D"
        if self._images(ref.source, ra) != self._images(t.source, ta):
            return "matrix images differ"
        return None

    def _check_equal(self, item, prep, out):
        a, b, w = out
        mode_d = item["mode"] == "D"
        problems = []
        if layers_of(a) != _tuples(item["a_layers"]) or layers_of(b) != _tuples(item["b_layers"]):
            problems.append("parse_expr changed the term")
        if item["expect"] == "equal" and self._same_class(a, b, mode_d) is not None:
            problems.append("benchmark built an unequal pair: " + self._same_class(a, b, mode_d))
        if w is not None:
            if item["expect"] == "distinct":
                problems.append("equal verdict on a known-distinct pair")
            problems += self._witness_problems(a, b, w, mode_d)
        rec = {"ok": not problems, "ops": 1,
               "out": ["equal", len(w)] if w is not None else ["unknown"]}
        if problems:
            rec["error"] = "; ".join(problems)
        if item["expect"] == "equal":
            rec["decided"] = w is not None
        return rec

    def _witness_problems(self, a, b, w, mode_d) -> list:
        steps, path = list(w.steps), list(w.terms)
        if len(path) != len(steps) + 1:
            return ["witness has mismatched terms and steps"]
        problems = []
        if key_of(path[0]) != key_of(terms.canonical(a)):
            problems.append("witness does not start at canonical(a)")
        if key_of(path[-1]) != key_of(terms.canonical(b)):
            problems.append("witness does not end at canonical(b)")
        for k, step in enumerate(steps):
            try:
                replayed = rewrite.apply(path[k], step)
            except Exception as exc:  # a step that does not replay is the finding
                problems.append(f"step {k} does not replay: {exc}")
                continue
            if key_of(replayed) != key_of(path[k + 1]):
                problems.append(f"step {k} replays to another term")
        for t in path:
            why = self._same_class(a, t, mode_d)
            if why:
                problems.append(f"witness joins a term whose {why}")
                break
        return problems

    def _check_explore(self, item, prep, out):
        t, rep = out
        problems = []
        if layers_of(t) != _tuples(item["layers"]):
            problems.append("parse_expr changed the term")
        if rep.identity_found:
            ident = terms.identity(t.source)
            why = self._same_class(t, ident, item["mode"] == "D")
            if why:
                problems.append(f"identity_found although the {why}")
            path = rep.witness_path or ()
            if not path or key_of(path[-1]) != key_of(ident):
                problems.append("witness path does not end at the identity")
            for x in path:
                why = self._same_class(t, x, item["mode"] == "D")
                if why:
                    problems.append(f"witness path holds a term whose {why}")
                    break
        rec = {"ok": not problems, "ops": 1,
               "out": [rep.states_visited, rep.identity_found, rep.truncated,
                       rep.min_gen_count_seen, len(rep.witness_path or ())]}
        if problems:
            rec["error"] = "; ".join(problems)
        return rec

    def _check_homset(self, item, prep, h):
        _, caps, _ = prep
        mode_d = item["mode"] == "D"
        problems = []
        members = [t for cls in h.classes for t in cls]
        keys = [key_of(t) for t in members]
        expected = {key_of(t) for t in rewrite.generate_terms(item["m"], item["n"], caps)}
        if len(set(keys)) != len(keys):
            problems.append("a candidate sits in two classes")
        if set(keys) != expected:
            problems.append("classes do not cover exactly the generated candidates")
        if any((t.source, t.target) != (item["m"], item["n"]) for t in members):
            problems.append("member of the wrong shape")
        for cls in h.classes:
            for t in cls[1:]:
                why = self._same_class(cls[0], t, mode_d)
                if why:
                    problems.append(f"class mixes members whose {why}")
                    break
        where = {key_of(t): ci for ci, cls in enumerate(h.classes) for t in cls}
        if any(where.get(key_of(x)) == where.get(key_of(y)) for x, y in h.unresolved):
            problems.append("unresolved pair inside one class")
        rec = {"ok": not problems, "ops": max(len(members), 1),
               "out": [len(h.classes), sorted(len(c) for c in h.classes), len(h.unresolved)],
               "unresolved": len(h.unresolved)}
        if problems:
            rec["error"] = "; ".join(problems)
        return rec

    def _check_rule_check(self, item, prep, holds):
        _, lhs, rhs = prep
        _, sem = self.spec(item["d"], item["phi"], item["field"])
        if item["rule"].startswith("Triangle"):
            src, ref_l, ref_r = triangle_instance(item["rule"], *item["params"])
        else:
            src, ref_l, ref_r = nat_instance(item["rule"], *item["params"])
        problems = []
        if (lhs.source, layers_of(lhs), layers_of(rhs)) != (src, ref_l, ref_r):
            problems.append("relation table differs from the defining equation")
        expect = sem.fingerprint(src, ref_l) == sem.fingerprint(src, ref_r)
        if holds is not expect:
            problems.append(f"check_rule_instance says {holds}, reference says {expect}")
        rec = {"ok": not problems, "ops": 1, "out": holds}
        if problems:
            rec["error"] = "; ".join(problems)
        return rec

    def _check_eval(self, item, prep, mat):
        _, sem = self.spec(item["d"], item["phi"], item["field"])
        ref = sem.image(item["source"], item["layers"])
        got = [[to_mod(x, sem.p) for x in row] for row in mat.entries]
        ok = ref.tolist() == got
        digest = hashlib.sha256(repr(mat.entries).encode()).hexdigest()[:16]
        rec = {"ok": ok, "ops": 1, "out": [mat.rows, mat.cols, digest]}
        if not ok:
            rec["error"] = "eval_term differs from the reference image"
        return rec

    def _check_canonical(self, item, t, c):
        problems = []
        src, lays = item["source"], _tuples(item["layers"])
        out = layers_of(c)
        if (c.source, c.target) != (src, target(src, lays)):
            problems.append("normal form has another shape")
        elif sorted((k, m, n) for _, k, m, n in out) != sorted((k, m, n) for _, k, m, n in lays):
            problems.append("normal form has other generators")
        elif self._images(src, out) != self._images(src, lays):
            problems.append("normal form has another matrix image")
        if key_of(terms.canonical(c)) != key_of(c):
            problems.append("canonical is not idempotent")
        rec = {"ok": not problems, "ops": 1, "out": [list(x) for x in out]}
        if problems:
            rec["error"] = "; ".join(problems)
        return rec


def check_groups(items, records) -> None:
    """All presentations in one group must share their normal form."""
    groups: dict = {}
    for item, rec in zip(items, records):
        if "group" in item:
            groups.setdefault(item["group"], []).append(rec)
    for recs in groups.values():
        forms = {repr(r["out"]) for r in recs}
        if len(forms) > 1:
            for r in recs:
                r["ok"] = False
                r["error"] = "presentations of one diagram normalise differently"


def _term(source: int, layers):
    """A ``Term`` built through the public constructors."""
    g = {"eta": terms.eta, "eps": terms.eps}
    out, w = [], source
    for off, k, m, n in layers:
        gen = g[k](m, n)
        out.append(terms.Slice(off, gen, w - off - gen.source))
        w += gen.delta
    return terms.Term(source, tuple(out))
