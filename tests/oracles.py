"""Independent reference routes used by the test suite.

Everything here recomputes engine results by a different method:
evaluation by dense padded slice matrices, neighbour enumeration by
exhausting interchange representatives and literally substituting
whiskered relation instances.  Keep these slow and obvious.
"""

from __future__ import annotations

import random
from collections import deque

from monocat import (
    FunctorSpec,
    Mat,
    Mode,
    SearchCaps,
    Term,
    canonical,
    coev_mat,
    compose,
    eps,
    eta,
    ev_mat,
    gen_count,
    identity,
    kron,
    rule_instance,
    tensor,
)
from monocat.rewrite import RuleId, term_key
from monocat.terms import GenKind, Generator, Slice, term_from_layers


def dense_eval(spec: FunctorSpec, t: Term) -> Mat:
    """Evaluate by multiplying fully padded slice matrices."""
    d = spec.d
    m = Mat.identity(d**t.source, spec.field)
    for s in t.slices:
        g = s.gen
        core = coev_mat(spec, g.n) if g.kind is GenKind.ETA else ev_mat(spec, g.n)
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
    seen = {term_key(start): start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        lays = layers(x)
        for pos in range(len(lays) - 1):
            for u2, v2 in swap_adjacent(lays[pos], lays[pos + 1]):
                new_lays = lays[:pos] + [u2, v2] + lays[pos + 2 :]
                y = term_from_layers(x.source, new_lays)
                k = term_key(y)
                if k not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("representative cap exceeded")
                    seen[k] = y
                    queue.append(y)
    return [seen[k] for k in sorted(seen)]


def _whiskered(instance: Term, a: int, b: int) -> Term:
    return tensor(tensor(identity(a), instance), identity(b))


def _instance_pool(max_width: int, max_index_n: int):
    """All literal relation instances whose sides fit inside max_width."""
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
                            pool.append(rule_instance(rule, i, j, k, l, n))
    tri = []
    for n in range(1, min(max_index_n, w // 2) + 1):
        for i in range(0, w - 2 * n + 1):
            tri.append(rule_instance(RuleId.TRIANGLE_A, i=i, n=n))
            tri.append(rule_instance(RuleId.TRIANGLE_B, i=i, n=n))
    return pool, tri


def neighbors_oracle(t: Term, mode: Mode, caps: SearchCaps) -> list[Term]:
    """One-step rewrites by literal substitution inside every representative."""
    nat_pool, tri_pool = _instance_pool(caps.max_width, caps.max_index_n)
    results: dict = {}

    def admit(term: Term) -> None:
        c = canonical(term)
        if gen_count(c) <= caps.max_gen_count and max(c.widths()) <= caps.max_width:
            results[term_key(c)] = c

    pair_pool = list(nat_pool)
    if mode is Mode.C:
        pair_pool += tri_pool

    for rep in class_representatives(canonical(t)):
        slices = rep.slices
        for lhs, rhs in pair_pool:
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
                                Term(
                                    rep.source,
                                    slices[:pos] + wr.slices + slices[pos + width :],
                                )
                            )
                    # backward: replace an occurrence of the 2-slice rhs by lhs
                    if len(wr.slices) == 2:
                        for pos in range(0, len(slices) - 2 + 1):
                            if slices[pos : pos + 2] == wr.slices:
                                admit(
                                    Term(
                                        rep.source,
                                        slices[:pos] + wl.slices + slices[pos + 2 :],
                                    )
                                )
        if mode is Mode.C and gen_count(rep) + 2 <= caps.max_gen_count:
            widths = rep.widths()
            for pos in range(len(slices) + 1):
                w = widths[pos]
                for lhs, _ in tri_pool:
                    if lhs.slices[0].gen.n > caps.max_index_n:
                        continue
                    inner = lhs.source
                    for a in range(0, w - inner + 1):
                        b = w - inner - a
                        wl = _whiskered(lhs, a, b)
                        if max(wl.widths()) > caps.max_width:
                            continue
                        admit(
                            Term(
                                rep.source,
                                slices[:pos] + wl.slices + slices[pos:],
                            )
                        )
    return [results[k] for k in sorted(results)]


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
        options = []
        for n in range(1, max_index_n + 1):
            if width + 2 * n <= max_width:
                for m in range(0, width + 1):
                    for off in range(0, width - m + 1):
                        options.append((off, eta(m, n)))
            for m in range(0, width - 2 * n + 1):
                for off in range(0, width - m - 2 * n + 1):
                    options.append((off, eps(m, n)))
        if not options:
            break
        off, g = rng.choice(options)
        lays.append((off, g))
        width += g.delta
    return term_from_layers(source, lays)


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


def snake() -> Term:
    return compose(
        tensor(Term(0, (Slice(0, eta(0, 1), 0),)), identity(1)),
        tensor(identity(1), Term(2, (Slice(0, eps(0, 1), 0),))),
    )
