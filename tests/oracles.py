"""Independent reference routes used by the test suite.

Everything here recomputes engine results by a different method:
evaluation by dense padded slice matrices, with cups and caps nested by
literal recursion; neighbour enumeration by exhausting interchange
representatives and literally substituting whiskered relation
instances; hom-set candidates by listing every slice word; hom classes
by bounded pairwise search; expressions by a character-level tokenizer
and recursive descent.  Keep these slow and obvious.
"""

from __future__ import annotations

import random
import re
from collections import deque
from functools import lru_cache

from monocat import (
    FunctorSpec,
    HomEnumeration,
    Mat,
    Mode,
    SearchCaps,
    Term,
    canonical,
    compose,
    eps,
    equal,
    eta,
    eval_term,
    gen_count,
    identity,
    kron,
    rule_instance,
    tensor,
)
from monocat.cli import ParseError
from monocat.rewrite import Direction, RuleId
from monocat.terms import GenKind, Generator, NotComposable, Slice, term_from_layers


def term_order(t: Term) -> tuple:
    """A sort key for terms: the source, then each slice as (left, kind, m, n)."""
    return (t.source, tuple((s.left, s.gen.kind.value, s.gen.m, s.gen.n) for s in t.slices))


def nested_cup(spec: FunctorSpec, n: int) -> Mat:
    """cup_n = (id ⊗ cup_{n-1} ⊗ id) . cup_1, by literal recursion."""
    if n == 0:
        return Mat.identity(1, spec.field)
    c = spec.phi_inv
    base = Mat(
        spec.d * spec.d,
        1,
        tuple((c.entries[i][j],) for i in range(spec.d) for j in range(spec.d)),
        spec.field,
    )
    if n == 1:
        return base
    eye = Mat.identity(spec.d, spec.field)
    return kron(kron(eye, nested_cup(spec, n - 1)), eye) @ base


def nested_cap(spec: FunctorSpec, n: int) -> Mat:
    """cap_n = cap_1 . (id ⊗ cap_{n-1} ⊗ id), by literal recursion."""
    if n == 0:
        return Mat.identity(1, spec.field)
    b = spec.phi
    base = Mat(
        1,
        spec.d * spec.d,
        (tuple(b.entries[i][j] for i in range(spec.d) for j in range(spec.d)),),
        spec.field,
    )
    if n == 1:
        return base
    eye = Mat.identity(spec.d, spec.field)
    return base @ kron(kron(eye, nested_cap(spec, n - 1)), eye)


def dense_eval(spec: FunctorSpec, t: Term) -> Mat:
    """Evaluate by multiplying fully padded slice matrices."""
    d = spec.d
    m = Mat.identity(d**t.source, spec.field)
    for s in t.slices:
        g = s.gen
        core = nested_cup(spec, g.n) if g.kind is GenKind.ETA else nested_cap(spec, g.n)
        gen_mat = kron(Mat.identity(d**g.m, spec.field), core)
        slice_mat = kron(
            kron(Mat.identity(d**s.left, spec.field), gen_mat),
            Mat.identity(d**s.right, spec.field),
        )
        m = slice_mat @ m
    return m


def layers(t: Term) -> list[tuple[int, Generator]]:
    return [(s.left, s.gen) for s in t.slices]


def swap_adjacent(
    u: tuple[int, Generator], v: tuple[int, Generator]
) -> list[tuple[tuple[int, Generator], tuple[int, Generator]]]:
    """All legal transpositions of the adjacent pair (u first, v second).

    Case 1: v's source block lies entirely left of u's offset; v keeps its
    offset and u shifts by v's width change.  Case 2: v's source block lies
    entirely right of u's target block; u keeps its offset and v shifts
    back by u's width change.  Both can apply at once only for zero-width
    blocks meeting at the same gap.
    """
    (ou, gu), (ov, gv) = u, v
    results = []
    if ov + gv.source <= ou:
        results.append(((ov, gv), (ou + gv.delta, gu)))
    if ov >= ou + gu.target:
        results.append(((ov - gu.delta, gv), (ou, gu)))
    return results


def class_representatives(t: Term, cap: int = 50_000) -> list[Term]:
    """Every slice ordering of the diagram, by exhausting adjacent swaps."""
    start = Term(t.source, t.slices)
    seen = {term_order(start): start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        lays = layers(x)
        for pos in range(len(lays) - 1):
            for u2, v2 in swap_adjacent(lays[pos], lays[pos + 1]):
                new_lays = lays[:pos] + [u2, v2] + lays[pos + 2 :]
                y = term_from_layers(x.source, new_lays)
                k = term_order(y)
                if k not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("representative cap exceeded")
                    seen[k] = y
                    queue.append(y)
    return [seen[k] for k in sorted(seen)]


@lru_cache(maxsize=None)
def _whiskered(instance: Term, a: int, b: int) -> Term:
    return tensor(tensor(identity(a), instance), identity(b))


@lru_cache(maxsize=None)
def _instance_pool(max_width: int, max_index_n: int):
    """All literal relation instances whose sides fit inside max_width.

    Two tuples of (rule, lhs, rhs): sliding instances and triangles.
    """
    pool = []
    rules = (
        RuleId.NAT_ETA_ETA,
        RuleId.NAT_ETA_EPS,
        RuleId.NAT_EPS_ETA,
        RuleId.NAT_EPS_EPS,
    )
    w = max_width
    for rule in rules:
        for n in range(1, w // 2 + 1):
            for k in range(1, w // 2 + 1):
                for i in range(0, w + 1):
                    for j in range(0, w + 1):
                        for l in range(0, w + 1):
                            if i + j + 2 * k + l + 2 * n > w:
                                continue
                            pool.append((rule, *rule_instance(rule, i, j, k, l, n)))
    tri = []
    for n in range(1, min(max_index_n, w // 2) + 1):
        for i in range(0, w - 2 * n + 1):
            tri.append((RuleId.TRIANGLE_A, *rule_instance(RuleId.TRIANGLE_A, i=i, n=n)))
            tri.append((RuleId.TRIANGLE_B, *rule_instance(RuleId.TRIANGLE_B, i=i, n=n)))
    return tuple(pool), tuple(tri)


def neighbors_oracle(t: Term, mode: Mode, caps: SearchCaps) -> list[Term]:
    """One-step rewrites by literal substitution inside every representative."""
    results = {term_order(c): c for (_, _, c) in steps_oracle(t, mode, caps)}
    return [results[k] for k in sorted(results)]


# every member of a class closes the same class again
_neighbours = lru_cache(maxsize=None)(neighbors_oracle)


def normal_form_by_closure(t: Term, mode: Mode, caps: SearchCaps) -> Term:
    """A normal form by closing whole sliding classes of oracle neighbours.

    Closes the class of ``t`` under mode-D neighbours.  In mode C, the
    least member with a contraction (a mode-C neighbour with fewer
    generators) is replaced by its least contraction, and the class of
    that is closed in turn.  Returns the least member of the last class.
    ``caps`` must be wide enough for every member of every class met.
    """
    while True:
        members = [canonical(t)]
        for x in members:
            members += [u for u in _neighbours(x, Mode.D, caps) if u not in members]
        members.sort(key=term_order)
        if mode is Mode.D:
            return members[0]
        for x in members:
            fewer = [u for u in _neighbours(x, Mode.C, caps) if gen_count(u) < gen_count(x)]
            if fewer:
                t = min(fewer, key=term_order)
                break
        else:
            return members[0]


def steps_oracle(t: Term, mode: Mode, caps: SearchCaps) -> set:
    """The (rule, direction, canonical result) triples of ``neighbors_oracle``.

    Replacing a whiskered ``lhs`` by its ``rhs`` is the forward direction,
    and inserting a triangle's ``lhs`` (an expansion) is backward.
    """
    nat_pool, tri_pool = _instance_pool(caps.max_width, caps.max_index_n)
    results: set = set()

    def admit(rule: RuleId, direction: Direction, term: Term) -> None:
        c = canonical(term)
        if gen_count(c) <= caps.max_gen_count and max(c.widths()) <= caps.max_width:
            results.add((rule, direction, c))

    pair_pool = nat_pool + tri_pool if mode is Mode.C else nat_pool

    for rep in class_representatives(canonical(t)):
        slices = rep.slices
        for rule, lhs, rhs in pair_pool:
            for a in range(0, caps.max_width + 1):
                if a + max(lhs.widths()) > caps.max_width + 4:
                    break
                for b in range(0, caps.max_width + 1):
                    wl = _whiskered(lhs, a, b)
                    wr = _whiskered(rhs, a, b)
                    width = len(wl.slices)
                    for pos in range(0, len(slices) - width + 1):
                        if slices[pos : pos + width] == wl.slices:
                            admit(
                                rule,
                                Direction.FORWARD,
                                Term(
                                    rep.source,
                                    slices[:pos] + wr.slices + slices[pos + width :],
                                ),
                            )
                    # backward: replace an occurrence of the 2-slice rhs by lhs
                    if len(wr.slices) == 2:
                        for pos in range(0, len(slices) - 2 + 1):
                            if slices[pos : pos + 2] == wr.slices:
                                admit(
                                    rule,
                                    Direction.BACKWARD,
                                    Term(
                                        rep.source,
                                        slices[:pos] + wl.slices + slices[pos + 2 :],
                                    ),
                                )
        if mode is Mode.C and gen_count(rep) + 2 <= caps.max_gen_count:
            widths = rep.widths()
            for pos in range(len(slices) + 1):
                w = widths[pos]
                for rule, lhs, _ in tri_pool:
                    if lhs.slices[0].gen.n > caps.max_index_n:
                        continue
                    inner = lhs.source
                    for a in range(0, w - inner + 1):
                        b = w - inner - a
                        wl = _whiskered(lhs, a, b)
                        if max(wl.widths()) > caps.max_width:
                            continue
                        admit(
                            rule,
                            Direction.BACKWARD,
                            Term(rep.source, slices[:pos] + wl.slices + slices[pos:]),
                        )
    return results


def random_term(
    rng: random.Random,
    max_source: int = 4,
    max_len: int = 4,
    max_width: int = 8,
    max_index_n: int = 2,
) -> Term:
    source = rng.randint(0, max_source)
    lays = []
    width = source
    for _ in range(rng.randint(0, max_len)):
        options = slice_options(width, max_width, max_index_n)
        if not options:
            break
        off, g = rng.choice(options)
        lays.append((off, g))
        width += g.delta
    return term_from_layers(source, lays)


def slice_options(width: int, max_width: int, max_index_n: int) -> list:
    """Every (offset, generator) layer on ``width`` wires within the bounds."""
    options = []
    for n in range(1, max_index_n + 1):
        if width + 2 * n <= max_width:
            for m in range(0, width + 1):
                for off in range(0, width - m + 1):
                    options.append((off, eta(m, n)))
        for m in range(0, width - 2 * n + 1):
            for off in range(0, width - m - 2 * n + 1):
                options.append((off, eps(m, n)))
    return options


def shuffled(rng: random.Random, t: Term, moves: int = 12) -> Term:
    """Apply a random sequence of legal adjacent swaps."""
    cur = t
    for _ in range(moves):
        lays = layers(cur)
        choices = []
        for pos in range(len(lays) - 1):
            for res in swap_adjacent(lays[pos], lays[pos + 1]):
                choices.append((pos, res))
        if not choices:
            break
        pos, (u2, v2) = rng.choice(choices)
        cur = term_from_layers(cur.source, lays[:pos] + [u2, v2] + lays[pos + 2 :])
    return cur


def hom_candidates(m: int, n: int, caps: SearchCaps) -> list[Term]:
    """The least member of the class of every slice word m -> n within caps.

    Lists each word of at most ``caps.max_gen_count`` layers from width
    ``m`` with ``slice_options`` (so no interface is wider than
    ``caps.max_width``), reduces each that ends at width ``n`` to its
    least ``class_representatives`` member by ``term_order``, and returns
    those, each once, sorted by ``term_order``.
    """
    found = {}

    def extend(lays: list, width: int) -> None:
        if width == n:
            least = class_representatives(term_from_layers(m, lays))[0]
            found[term_order(least)] = least
        if len(lays) < caps.max_gen_count:
            for off, g in slice_options(width, caps.max_width, caps.max_index_n):
                extend(lays + [(off, g)], width + g.delta)

    if m <= caps.max_width:
        extend([], m)
    return [found[k] for k in sorted(found)]


def hom_classes_by_search(
    m: int, n: int, mode: Mode, caps: SearchCaps, merge_caps: SearchCaps
) -> HomEnumeration:
    """Hom classes by pairwise bounded search, without normal forms.

    The candidates are ``hom_candidates``.  They are bucketed by their
    exact images under two pairings, buckets in the order of their first
    candidates; inside a bucket each joins the first
    class whose representative ``equal`` reaches under ``merge_caps``,
    else opens a class and is recorded as unresolved against every
    earlier class of the bucket.
    """
    specs = (FunctorSpec.identity(2), FunctorSpec.random(2, seed=11))
    raw = sorted(hom_candidates(m, n, caps), key=lambda t: (gen_count(t), term_order(t)))
    buckets: dict = {}
    for t in raw:
        buckets.setdefault(tuple(eval_term(s, t).entries for s in specs), []).append(t)
    classes = []
    unresolved = []
    for sig in buckets:
        bucket_classes = []
        for t in buckets[sig]:
            home = next(
                (c for c in bucket_classes if equal(t, c[0], mode, merge_caps) is not None),
                None,
            )
            if home is not None:
                home.append(t)
            else:
                unresolved += [(c[0], t) for c in bucket_classes]
                bucket_classes.append([t])
        classes += bucket_classes
    classes.sort(key=lambda c: (gen_count(c[0]), term_order(c[0])))
    return HomEnumeration(tuple(map(tuple, classes)), tuple(unresolved))


def snake() -> Term:
    return compose(
        tensor(Term(0, (Slice(0, eta(0, 1), 0),)), identity(1)),
        tensor(identity(1), Term(2, (Slice(0, eps(0, 1), 0),))),
    )


_TOKEN = re.compile(r"\s*(?:(id|eta|eps)|(\d+)|([();,*])|(\S))", re.ASCII)


def _tokenize(text: str) -> list:
    """(kind, value, position) tokens, one pass; trailing whitespace is skipped."""
    out = []
    for m in _TOKEN.finditer(text):
        name, nat, punct, bad = m.groups()
        if name:
            out.append(("name", name, m.start(1)))
        elif nat:
            out.append(("nat", int(nat), m.start(2)))
        elif punct:
            out.append((punct, punct, m.start(3)))
        else:
            raise ParseError(f"unexpected character {bad!r}", m.start(4))
    out.append(("eof", None, len(text)))
    return out


def _shown(kind: str, value) -> str:
    """A token in a parse error: its value, or the end of input."""
    return "end of input" if kind == "eof" else repr(value)


def parse_expr_reference(text: str) -> Term:
    """``cli.parse_expr`` by recursive descent over character-level tokens.

    Each sub-expression is a (source, target, layers) triple, its layers
    ``(offset, generator)`` pairs; one ``Term`` is built at the end.
    """
    tokens = _tokenize(text)
    idx = 0

    def take(kind):
        nonlocal idx
        tok = tokens[idx]
        if tok[0] != kind:
            wanted = "a natural number" if kind == "nat" else _shown(kind, kind)
            raise ParseError(f"expected {wanted}, found {_shown(*tok[:2])}", tok[2])
        idx += 1
        return tok[1]

    def parse_atom():
        nonlocal idx
        kind, value, at = tokens[idx]
        if kind == "(":
            idx += 1
            part = parse_expression()
            take(")")
            return part
        if kind == "name":
            idx += 1
            take("(")
            if value == "id":
                n = take("nat")
                take(")")
                return n, n, []
            m = take("nat")
            take(",")
            n = take("nat")
            take(")")
            g = eta(m, n) if value == "eta" else eps(m, n)
            return g.source, g.target, [(0, g)]
        raise ParseError(f"expected an atom, found {_shown(kind, value)}", at)

    def parse_tensor():
        nonlocal idx
        source, target, lays = parse_atom()
        while tokens[idx][0] == "*":
            idx += 1
            s, t, more = parse_atom()
            lays += [(off + target, g) for off, g in more]
            source, target = source + s, target + t
        return source, target, lays

    def parse_expression():
        nonlocal idx
        source, target, lays = parse_tensor()
        while tokens[idx][0] == ";":
            idx += 1
            s, t, more = parse_tensor()
            if target != s:
                raise NotComposable(f"cannot compose: target {target} != source {s}")
            lays += more
            target = t
        return source, target, lays

    source, _, lays = parse_expression()
    take("eof")
    return term_from_layers(source, lays)
