"""Bidirectional rewrite system over slice terms, with bounded search.

Rule families
-------------
Four *sliding* relations express that the insertion family ``eta(-, n)``
and the deletion family ``eps(-, n)`` are natural in their passthrough
block: a slice whose active block sits entirely inside the passthrough
block of an adjacent family generator commutes past it, and the family
generator's block index absorbs the slice's width change.  These hold in
both modes and preserve the generator count.

Two *triangle* rules (mode ``C`` only) cancel an insertion followed by a
matching deletion against an identity; they change the generator count by
exactly two.  Their backward direction (expansion) is infinitely
branching, so enumeration is bounded by ``SearchCaps``.

Matching is done modulo interchange: rules match every pair of slices
that can be made adjacent by sliding disjoint slices out of the way, and
expansions are offered at every vertical cut of the diagram.  Both are
read off the fronts of the class (its pairs of first slice and least
suffix, see ``terms.canonical``), without listing its orderings.  Searches
run on packed states ``(source, layers)`` of canonical forms, ``layers``
a tuple of the packed layer ints of ``terms`` (see its "packed layers"
comment), and build ``Term`` objects only for what they return:
witnesses, step rows, reports, neighbour lists and ``apply`` results.  A
``RewriteStep`` row is a ``Term`` whose slices are in the order the step
applies to; ``apply`` packs it again.  Each witness step is one that
``match_rules`` lists, expansions included.

Everything here is deterministic: neighbour lists, exploration order and
reports depend only on the inputs.  The search is sequential; a parallel
frontier expansion would have to produce the same visit sets.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from . import vect
from .terms import (
    ETA_BIT,
    KIND_SHIFT,
    M_MASK,
    M_SHIFT,
    N_MASK,
    OFF_SHIFT,
    GenKind,
    LayerOutOfRange,
    Mode,
    MonocatError,
    Term,
    _KINDS,
    _canonical_key,
    _class_term,
    _front_graph,
    _out_of_range,
    _swaps,
    canonical,
    compose,
    eps,
    eta,
    gen_term,
    identity,
    pack_layer,
    packed_layers,
    term_from_packed,
    whisker,
    width_change,
)


class InvalidStep(MonocatError):
    """A rewrite step replayed against a term it does not match."""


class NotEqualShape(MonocatError):
    """Equality queried for terms with different source or target widths."""


class RuleId(enum.Enum):
    NAT_ETA_ETA = "NatEtaEta"
    NAT_ETA_EPS = "NatEtaEps"
    NAT_EPS_ETA = "NatEpsEta"
    NAT_EPS_EPS = "NatEpsEps"
    TRIANGLE_A = "TriangleA"
    TRIANGLE_B = "TriangleB"


NATURALITY_RULES = frozenset(
    {RuleId.NAT_ETA_ETA, RuleId.NAT_ETA_EPS, RuleId.NAT_EPS_ETA, RuleId.NAT_EPS_EPS}
)
TRIANGLE_RULES = frozenset({RuleId.TRIANGLE_A, RuleId.TRIANGLE_B})


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True, slots=True)
class SearchCaps:
    """Bounds for rule enumeration and state-space search."""

    max_gen_count: int = 6
    max_width: int = 8
    max_index_n: int = 2
    max_states: int = 100_000

    def __post_init__(self) -> None:
        if self.max_gen_count < 0:
            raise ValueError("max_gen_count must be >= 0")
        for name in ("max_width", "max_index_n", "max_states"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


DEFAULT_CAPS = SearchCaps()


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One rule application, replayable against its source term.

    ``row`` is the source term with its slices in the order the step
    applies to, and ``pos`` a position in it.  ``binding`` records the
    parameter values of the matched relation instance.  Pair steps rewrite
    the slices at (pos, pos + 1).  Expansions insert before position
    ``pos``, at ``offset``, the pair that the rule and the binding's ``i``
    and ``n`` fix: ``eta(i, n)`` and ``eps(i + n, n)`` for TriangleA,
    ``eta(i + n, n)`` and ``eps(i, n)`` for TriangleB.
    """

    rule: RuleId
    direction: Direction
    row: Term
    pos: int = 0
    binding: tuple[tuple[str, int], ...] = ()
    offset: int | None = None

    def describe(self) -> str:
        side = "+" if self.direction is Direction.FORWARD else "-"
        bound = ",".join(f"{k}={v}" for k, v in self.binding)
        return f"{self.rule.value}{side}({bound})"


@dataclass(frozen=True)
class EqualityWitness:
    """A rewrite path between two canonical forms.

    ``terms`` has one more entry than ``steps``; ``steps[k]`` applied to
    ``terms[k]`` yields ``terms[k + 1]``.  Each step is the first one
    ``match_rules`` lists on its term with that result; nothing replays it
    when it is made, and the tests and the benchmark replay it through
    :func:`apply`.
    """

    terms: tuple[Term, ...]
    steps: tuple[RewriteStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ExploreReport:
    start: Term
    mode: Mode
    caps: SearchCaps
    states_visited: int
    identity_found: bool
    min_gen_count_seen: int
    truncated: bool
    witness_path: tuple[Term, ...] | None = None


def _state(t: Term) -> tuple:
    """The search state of ``t``: its source and the packed layers of its
    canonical form."""
    return (t.source, _canonical_key(packed_layers(t)))


# -- pair matching ------------------------------------------------------------
#
# Substituting the sliding relations into whiskered slice pairs gives, for
# an adjacent pair (u at offset a, v at offset c) meeting at a common
# interface:
#
#   forward  (family = v, block index M = v.m):  the first slice's target
#   block [a, a + u.target) must sit inside v's passthrough block
#   [c, c + M).  Rewrites to [(c, family(M - u.delta, n)), (a, u)].
#
#   backward (family = u, block index M = u.m):  the second slice's source
#   block [c, c + v.source) must sit inside u's passthrough block
#   [a, a + M).  Rewrites to [(c, v), (a, family(M + v.delta, n))].
#
# The family generator's block index absorbs the slid slice's width
# change; everything else is fixed by the interface widths.

_ETA, _EPS = GenKind.ETA, GenKind.EPS
_RULE_OF = {
    (_ETA, _ETA): RuleId.NAT_ETA_ETA,
    (_ETA, _EPS): RuleId.NAT_ETA_EPS,
    (_EPS, _ETA): RuleId.NAT_EPS_ETA,
    (_EPS, _EPS): RuleId.NAT_EPS_EPS,
}


def _match_pair(u: int, v: int) -> tuple:
    """All rule matches, triangles too, on the adjacent pair of packed layers (u, v).

    Each is ``(rule, direction, replacement, binding)``.  Searches read it
    memoised per layer pair (``graph.shared(_match_pair)``, a dict of first
    layers to dicts of second layers), so it unpacks the fields; a family
    generator whose ``m`` a sliding rule moves past its field raises in
    ``pack_layer``.
    """
    a, ku, mu, nu = u >> OFF_SHIFT, _KINDS[u >> KIND_SHIFT & 1], u >> M_SHIFT & M_MASK, u & N_MASK
    c, kv, mv, nv = v >> OFF_SHIFT, _KINDS[v >> KIND_SHIFT & 1], v >> M_SHIFT & M_MASK, v & N_MASK
    du, dv = width_change(u), width_change(v)
    tgt_u = mu + 2 * nu if ku is _ETA else mu
    src_v = mv if kv is _ETA else mv + 2 * nv
    found = ()

    if c <= a and a + tgt_u <= c + mv:
        binding = (("i", a - c), ("j", mu), ("k", nu), ("l", c + mv - a - tgt_u), ("n", nv))
        repl = (pack_layer(c, kv, mv - du, nv), u)
        found += ((_RULE_OF[kv, ku], Direction.FORWARD, repl, binding),)

    if a <= c and c + src_v <= a + mu:
        binding = (("i", c - a), ("j", mv), ("k", nv), ("l", a + mu - c - src_v), ("n", nu))
        repl = (v, pack_layer(a, ku, mu + dv, nu))
        found += ((_RULE_OF[ku, kv], Direction.BACKWARD, repl, binding),)

    if ku is _ETA and kv is _EPS and a == c and nu == nv:
        if mv == mu + nu:
            found += ((RuleId.TRIANGLE_A, Direction.FORWARD, (), (("i", mu), ("n", nu))),)
        elif mv == mu - nu:
            found += ((RuleId.TRIANGLE_B, Direction.FORWARD, (), (("i", mv), ("n", nu))),)

    return found


# -- the rewrite invariant ----------------------------------------------------


def invariant(t: Term, mode: Mode) -> tuple:
    """A signature of ``t`` that no rewrite step of ``mode`` changes.

    Mode D: the sorted multiset of ``(kind, m % 2, n)`` over the slices.  A
    sliding rule moves the family generator's block index ``m`` by the
    slid slice's width change, which is even, and keeps the slid slice.

    Mode C: for each ``n``, the pair ``(#eta_n - #eps_n, #{eta(m, n): m
    even} - #{eps(m, n): m = n mod 2})``, zero pairs left out, as sorted
    ``(n, pair)`` entries.  A triangle removes ``eta(i, n)`` with
    ``eps(i + n, n)`` (TriangleA) or ``eta(i + n, n)`` with ``eps(i, n)``
    (TriangleB); in both, ``m`` is even on the insertion exactly when
    ``m - n`` is even on the deletion.

    Terms with different signatures have no rewrite path between them,
    under any caps.  It is read off the packed layers, so a slice past
    their fields raises :class:`LayerOutOfRange`.
    """
    return _invariant(packed_layers(t), mode)


def _invariant(lays: tuple, mode: Mode) -> tuple:
    """:func:`invariant` of the term with packed layers ``lays``."""
    if mode is Mode.D:
        return tuple(sorted(
            ("eta" if k & ETA_BIT else "eps", k >> M_SHIFT & 1, k & N_MASK) for k in lays
        ))
    per_n: dict = {}
    for k in lays:
        n = k & N_MASK
        net, parity = per_n.get(n, (0, 0))
        # the fields above m are a multiple of 2 ** 16, so the parity of
        # k >> M_SHIFT is that of m
        if k & ETA_BIT:
            per_n[n] = (net + 1, parity + (not k >> M_SHIFT & 1))
        else:
            per_n[n] = (net - 1, parity - (not (k >> M_SHIFT) - n & 1))
    return tuple(sorted((n, pair) for n, pair in per_n.items() if pair != (0, 0)))


# -- matching on the fronts ----------------------------------------------------
#
# Every member of the class of a least key s is (a,) + m, for a front
# (a, t) of s and a member m of the class of t.  So a pair at position 0
# is a front a followed by a front b of t, and every deeper pair step, or
# cut, is one of t's with a prepended: every result is the least key of
# some slices prepended to a least key.  Pair results and cuts are
# memoised per least key and move set, suffixes first, in the memo of
# ``terms``, so that they are dropped together with the fronts; so are the
# matches of each layer pair, which hold for every move set.  Searches
# read the pair results, two tuples of result keys.  Where a step is
# returned (``match_rules`` and witnesses), ``_steps`` follows its
# result back down those entries: at a front (a, t), to the matches at
# position 0 that give it, and to each result r of t whose lead with a
# gives it, whose steps are t's with a prepended.  The row of a step is
# the fronts passed on the way down; it is made a ``Term`` only when the
# step is built.


def _memoised(lays: tuple, build, moves=_swaps):
    """The entry of the least key ``lays`` for ``build``, built if missing.

    Entries live in the memo of ``terms``, one dict per ``build`` in the
    tables of the classes under ``moves``; see ``_build``.
    """
    graph = _front_graph(moves)
    memo = graph.table(build)
    entry = memo.get(lays)
    if entry is None:
        entry = _build(graph, memo, lays, build)
    return entry


def _build(graph, memo: dict, lays: tuple, build):
    """Make the entry of ``lays`` in ``memo``, the table of ``build`` in ``graph``.

    ``build(graph, s, fronts, memo)`` makes the entry of ``s`` from those
    of its fronts' suffixes, which are made first, on an explicit stack
    rather than by recursion: suffixes nest as deep as the key is long.
    So a table that holds the entry of a key holds those of its fronts'
    suffixes too.  The work bound of ``terms`` applies to each entry.
    """
    # (s, None) asks for the entry of s; (s, fronts) builds it, once the
    # entries it needs, pushed after it, are built
    todo = [(lays, None)]
    while todo:
        s, fronts = todo.pop()
        graph.restart()
        if fronts is not None:
            memo[s] = build(graph, s, fronts, memo)
        elif s not in memo:
            fronts = graph.fronts(s)
            todo.append((s, fronts))
            todo += [(t, None) for _, t in fronts if t not in memo]
    return memo[lays]


def _pair_results(lays: tuple) -> tuple:
    """The pair results on the class of the least key ``lays``.

    A pair (sliding, triangle) of tuples of least keys, without repeats,
    each in the order the walk of the fronts first meets it.
    """
    return _memoised(lays, _results_entry)


def _results_entry(graph, s, fronts, memo) -> tuple:
    # under the slides a sliding result is s itself, which nothing reads
    sliding = graph.moves is _slides
    # the lead of a front with a least key, read from the memo when closed
    get, lead = graph._least.get, graph._lead
    pairs = graph.shared(_match_pair)
    slide, tri = {}, {}
    for a, t in fronts:
        matches = pairs.get(a) or pairs.setdefault(a, {})
        for b, u in graph.fronts(t):
            found = matches.get(b)
            if found is None:
                found = matches[b] = _match_pair(a, b)
            for _, _, repl, _ in found:
                # a triangle replaces the pair by nothing
                if not repl:
                    tri[u] = None
                elif not sliding:
                    slide[graph.prepend(repl, u)] = None
        slide_t, tri_t = memo[t]
        for r in slide_t:
            slide[get((a, r)) or lead(a, r)] = None
        for r in tri_t:
            tri[get((a, r)) or lead(a, r)] = None
    return tuple(slide), tuple(tri)


def _steps(key: tuple, result: tuple | None, halves: tuple = ()):
    """The pair steps on the class of the least key ``key`` that give the
    least key ``result``, as ``(result, rule, direction, binding, row,
    pos)``, ``row`` packed layers; the first is the witness step.  With
    ``result`` None, the steps to every result of the ``halves`` of the
    class's pair-result entry (0 sliding, 1 triangle), in one walk.

    At each front (a, t), in order: the matches at position 0, then the
    steps of t to each result r of t, in its entry's order, whose lead with
    a is ``result``.  A (t, r) met again on another way down to the same
    result is not followed again: its steps would repeat rules already
    listed.  Every step below a front's result r gives lead(a, r), so the
    walk to every result lists the steps to each one in the order of a walk
    to it alone.
    """
    graph = _front_graph()
    memo = graph.table(_results_entry)
    if key not in memo:
        _build(graph, memo, key, _results_entry)
    if result is not None:
        # a triangle result is two layers shorter than the key
        halves = (len(result) < len(key),)
    seen = set()
    # (the result of every step below a level, None at the top of a walk
    # to every result; the level)
    levels = [(result, _level(graph, memo, (), key, result, halves))]
    while levels:
        target, level = levels[-1]
        found = next(level, None)
        if found is None:
            levels.pop()
            continue
        if target is not None:
            found = (target,) + found[1:]
        if len(found) == 6:
            yield found
        elif found[:3] not in seen:
            seen.add(found[:3])
            got, t, r, head, half = found
            levels.append((got, _level(graph, memo, head, t, r, (half,))))


def _level(graph, memo, head: tuple, s: tuple, result: tuple | None, halves: tuple):
    """The position-0 steps of ``_steps`` on ``s``, ``head`` prepended, that
    give ``result`` (any result of ``halves`` when None), and the
    ``(lead, t, r, head, half)`` of each suffix result to follow."""
    get, lead = graph._least.get, graph._lead
    pairs = graph.shared(_match_pair)
    for a, t in graph.fronts(s):
        matches = pairs.get(a) or pairs.setdefault(a, {})
        for b, u in graph.fronts(t):
            found = matches.get(b)
            if found is None:
                found = matches[b] = _match_pair(a, b)
            for rule, direction, repl, binding in found:
                # a triangle, which leaves no replacement, gives a result of half 1
                if (not repl) in halves:
                    got = graph.prepend(repl, u)
                    if result is None or got == result:
                        yield got, rule, direction, binding, head + (a, b) + u, len(head)
        below = head + (a,)
        for half in halves:
            for r in memo[t][half]:
                got = get((a, r)) or lead(a, r)
                if result is None or got == result:
                    yield got, t, r, below, half


def _pair_step(found: tuple, source: int) -> RewriteStep:
    _, rule, direction, binding, row, pos = found
    return RewriteStep(rule, direction, term_from_packed(source, row), pos, binding)


def _cut_entry(graph, s, fronts, memo) -> dict:
    """The cuts of the class of ``s``: maps (head, tail), the least keys of
    the slices below and above a cut, to the width of the cut less the
    source width."""
    out = {((), s): 0}
    for a, t in fronts:
        da = width_change(a)
        for (head, tail), delta in memo[t].items():
            out.setdefault((graph.lead(a, head), tail), delta + da)
    return out


def _expansions(state, caps: SearchCaps):
    """Every triangle expansion on the class of ``state`` within ``caps``.

    Yields ``(rule, head, tail, i, a, n)`` with the least key of the
    result; see ``_expansion_step``.
    """
    source, lays = state
    if len(lays) + 2 > caps.max_gen_count:
        return
    for (head, tail), delta in _memoised(lays, _cut_entry).items():
        width = source + delta
        prepend = _front_graph().prepend
        for nn in range(1, caps.max_index_n + 1):
            if width + 2 * nn > caps.max_width:
                continue
            # the block indices below reach ``width``
            if width > M_MASK or nn > N_MASK:
                raise _out_of_range(_ETA, width, nn)
            for a in range(0, width - nn + 1):
                cup, cap = pack_layer(a, _ETA, 0, nn), pack_layer(a, _EPS, 0, nn)
                for i in range(0, width - nn - a + 1):
                    for rule, ins_blk, del_blk in (
                        (RuleId.TRIANGLE_A, i, i + nn),
                        (RuleId.TRIANGLE_B, i + nn, i),
                    ):
                        ins = (cup + (ins_blk << M_SHIFT), cap + (del_blk << M_SHIFT))
                        yield (rule, head, tail, i, a, nn), prepend(head + ins, tail)


def _expansion_step(fields: tuple, source: int) -> RewriteStep:
    rule, head, tail, i, a, nn = fields
    row = term_from_packed(source, head + tail)
    return RewriteStep(rule, Direction.BACKWARD, row, len(head), (("i", i), ("n", nn)), a)


def match_rules(t: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS) -> list[RewriteStep]:
    """All rule applications available on ``t`` modulo interchange.

    Pair rules are matched on every interchange-adjacent slice pair;
    expansions are enumerated at every cut, bounded by ``caps``.  Lists
    one step per rule, direction and result: for a pair step, the first
    that ``_steps`` gives with that rule and direction, pair results in
    the order the search reads them, so the first step listed with a
    result is the witness step.  The steps to every result come from one
    walk of the class.
    """
    source, key = _state(t)
    slide, tri = _pair_results(key)
    results = slide + tri if mode is Mode.C else slide
    first: dict = {result: {} for result in results}
    for found in _steps(key, None, (0, 1) if mode is Mode.C else (0,)):
        first[found[0]].setdefault(found[1:3], found)
    steps = [_pair_step(found, source) for result in results for found in first[result].values()]
    if mode is Mode.C:
        expansions: dict = {}
        for fields, y in _expansions((source, key), caps):
            expansions.setdefault((fields[0], y), fields)
        steps += (_expansion_step(fields, source) for fields in expansions.values())
    return steps


def apply(t: Term, step: RewriteStep) -> Term:
    """Replay ``step`` against ``t``; canonicalized result.

    Raises :class:`InvalidStep` when ``step.row`` is not an ordering of
    ``t``'s slices on ``t``'s source or the step does not match it.
    """
    try:
        packed = packed_layers(step.row)
    except LayerOutOfRange as exc:
        raise InvalidStep(str(exc)) from exc
    if (step.row.source, _canonical_key(packed)) != _state(t):
        raise InvalidStep("row is not an ordering of the term's slices")
    p = step.pos

    if step.rule not in TRIANGLE_RULES or step.direction is Direction.FORWARD:
        if not (0 <= p < len(packed) - 1):
            raise InvalidStep(f"position {p} out of range")
        for rule, direction, repl, _ in _match_pair(packed[p], packed[p + 1]):
            if rule is step.rule and direction is step.direction:
                return _class_term(t.source, packed[:p] + repl + packed[p + 2 :])
        raise InvalidStep(f"{step.describe()} does not match at position {p}")

    binding = dict(step.binding)
    a, i, nn = step.offset, binding.get("i"), binding.get("n")
    if a is None or i is None or nn is None:
        raise InvalidStep("malformed step")
    if not (0 <= p <= len(packed)):
        raise InvalidStep(f"position {p} out of range")
    ins_blk, del_blk = (i, i + nn) if step.rule is RuleId.TRIANGLE_A else (i + nn, i)
    try:
        # the generators check the indices before they are packed
        pair = tuple(pack_layer(a, g.kind, g.m, g.n) for g in (eta(ins_blk, nn), eps(del_blk, nn)))
        new = term_from_packed(t.source, packed[:p] + pair + packed[p:])
    except (ValueError, MonocatError) as exc:
        raise InvalidStep(str(exc)) from exc
    return canonical(new)


def _peak_width(state) -> int:
    width = peak = state[0]
    for k in state[1]:
        # ``width_change``, inlined
        width += (k & N_MASK) << 1 if k & ETA_BIT else -((k & N_MASK) << 1)
        if width > peak:
            peak = width
    return peak


def _respects(state, caps: SearchCaps) -> bool:
    return len(state[1]) <= caps.max_gen_count and _peak_width(state) <= caps.max_width


def neighbors(t: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS) -> list[Term]:
    """Canonical, deduplicated one-step rewrites of ``t``, in key order.

    A rewrite is listed when the least member of its class fits the caps
    (its generator count and peak width), as ``_respects`` reads them.
    """
    source, _ = state = _state(t)
    found = {(source, r) for _, results in _layer([state], mode, caps) for r in results}
    return [term_from_packed(*y) for y in sorted(found) if _respects(y, caps)]


def _find_step(src, dst) -> RewriteStep:
    """A step turning src into dst; exists whenever dst was found adjacent.

    The first step that ``match_rules`` lists with that result, under caps
    that admit ``dst``: a step that keeps the length or drops two layers is
    the first pair step that ``_steps`` gives, and one that adds two is the
    first expansion of ``_expansions`` under caps read off ``dst`` (its
    length, peak width and largest ``n``), whatever caps the search ran
    under.
    """
    source, lays = src
    if len(dst[1]) <= len(lays):
        for found in _steps(lays, dst[1]):
            return _pair_step(found, source)
    else:
        caps = SearchCaps(len(dst[1]), _peak_width(dst), max(k & N_MASK for k in dst[1]))
        for fields, y in _expansions(src, caps):
            if y == dst[1]:
                return _expansion_step(fields, source)
    raise AssertionError("edge of the rewrite graph could not be re-derived")


def _layer(frontier: list, mode: Mode, caps: SearchCaps):
    """``(x, results)`` for the one-step results of each state ``x`` of
    ``frontier``: the least keys of results on ``x``'s source, caps
    unchecked, repeats kept; expansions are made as they are read.

    Two passes, each in frontier order: first the pair results of every
    state (its sliding, then in mode C its triangle results, in its entry's
    order), then in mode C the expansions of every state, in the order of
    ``_expansions``.
    """
    for x in frontier:
        slide, tri = _pair_results(x[1])
        yield x, slide
        if mode is Mode.C:
            yield x, tri
    if mode is Mode.C:
        for x in frontier:
            yield x, (r for _, r in _expansions(x, caps))


def _grow(frontier: list, parents: dict, mode: Mode, caps: SearchCaps, room: int, goal=()):
    """One layer of a breadth-first search from ``frontier``.

    Returns the states within ``caps`` first reached from it, in the order
    ``_layer`` lists them, each recorded in ``parents`` with the state it
    was reached from.  The layer stops at the first new state that
    ``goal`` holds (the other tree of a bidirectional search), which is
    then the last one returned.  A layer that meets no goal state runs to
    its end, and its set of states does not depend on that order.  None
    once more than ``room`` states would be new, with those recorded until
    then left in ``parents``.
    """
    new = []
    for x, results in _layer(frontier, mode, caps):
        source = x[0]
        for r in results:
            y = (source, r)
            if y not in parents and _respects(y, caps):
                if len(new) >= room:
                    return None
                parents[y] = x
                new.append(y)
                if y in goal:
                    return new
    return new


def _path(parents: dict, key) -> list:
    """The states from the start of a search to ``key``, by ``parents``."""
    path = []
    while key is not None:
        path.append(key)
        key = parents[key]
    return path[::-1]


def equal(
    a: Term, b: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS
) -> EqualityWitness | None:
    """Decide bounded equality by bidirectional search over canonical forms.

    Returns an :class:`EqualityWitness` when a rewrite path is found
    within caps, and None (unknown; sound but incomplete) otherwise.
    Raises :class:`NotEqualShape` when the widths disagree.  Each witness
    step is the first one ``match_rules`` lists with its result; the tests
    and the benchmark replay every step through :func:`apply`.

    Before any canonical form or search, returns None when the two terms'
    signatures under :func:`invariant` differ, since then no rewrite path
    joins them: the answer the search would give, at a cost linear in the
    slices.  Each term is packed once, for its signature and its state.

    The search grows the tree with the smaller frontier by one layer
    (``_grow``: every pair result before any expansion) and stops at the
    first new state that the other tree holds, the meet; the witness runs
    through it.  ``max_states`` bounds the states of both trees together.
    """
    return _equal(a, b, mode, caps)[0]


def _equal(a: Term, b: Term, mode: Mode, caps: SearchCaps) -> tuple:
    """:func:`equal`'s witness, with None, or with why there is none:
    ``"invariant"`` when the signatures differ, ``"max_states"`` when the
    state budget ends the search, ``"caps"`` when a tree has no new state
    within the caps left to grow."""
    if a.source != b.source or a.target != b.target:
        raise NotEqualShape(
            f"shape mismatch: {a.source}->{a.target} vs {b.source}->{b.target}"
        )
    lays_a, lays_b = packed_layers(a), packed_layers(b)
    if _invariant(lays_a, mode) != _invariant(lays_b, mode):
        return None, "invariant"
    ka, kb = (a.source, _canonical_key(lays_a)), (b.source, _canonical_key(lays_b))
    if ka == kb:
        return EqualityWitness(terms=(term_from_packed(*ka),), steps=()), None

    parents_a: dict = {ka: None}
    parents_b: dict = {kb: None}
    frontier_a, frontier_b = [ka], [kb]
    while frontier_a and frontier_b:
        room = caps.max_states - len(parents_a) - len(parents_b)
        if len(frontier_a) <= len(frontier_b):
            frontier_a = grown = _grow(frontier_a, parents_a, mode, caps, room, parents_b)
        else:
            frontier_b = grown = _grow(frontier_b, parents_b, mode, caps, room, parents_a)
        if grown is None:
            return None, "max_states"
        # a layer that reaches the other tree ends there
        if grown and grown[-1] in parents_a and grown[-1] in parents_b:
            return _reconstruct(grown[-1], parents_a, parents_b), None
    return None, "caps"


def _reconstruct(meet, parents_a, parents_b) -> EqualityWitness:
    """Join the two search trees into one forward path.

    Each step is re-derived by ``_find_step`` as the first one
    ``match_rules`` lists with its result.  Edges on the b side were
    discovered pointing away from b; the rewrite relation is symmetric, so
    the forward step always exists.
    """
    chain = _path(parents_a, meet) + _path(parents_b, meet)[::-1][1:]
    steps = tuple(_find_step(chain[k], chain[k + 1]) for k in range(len(chain) - 1))
    return EqualityWitness(terms=tuple(term_from_packed(*k) for k in chain), steps=steps)


def explore(t: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS) -> ExploreReport:
    """Breadth-first closure of ``t``'s rewrite class under caps."""
    start = _state(t)
    if not _respects(start, caps):
        raise ValueError("start term exceeds the search caps")
    parents = {start: None}
    frontier = [start]
    while frontier:
        frontier = _grow(frontier, parents, mode, caps, caps.max_states - len(parents))
    # every state shares the start's widths, so this is in parents only if
    # the source equals the target
    identity_key = (start[0], ())
    witness = None
    if identity_key in parents:
        witness = tuple(term_from_packed(*k) for k in _path(parents, identity_key))
    return ExploreReport(
        start=term_from_packed(*start),
        mode=mode,
        caps=caps,
        states_visited=len(parents),
        identity_found=witness is not None,
        min_gen_count_seen=min(len(k[1]) for k in parents),
        truncated=frontier is None,
        witness_path=witness,
    )


# -- normal forms modulo sliding ---------------------------------------------
#
# The sliding rules, which are the whole of mode D, keep the length, so a
# sliding class is closed by fronts like an interchange class, with
# ``_slides`` for the moves, and is not listed.  Mode C adds the triangles,
# read as contractions, each removing two generators; this is rewriting
# modulo an equivalence (Huet, JACM 27(4), 1980): take the least member of
# the sliding class and contract at a triangle of it, until none is left.
# The contraction is the first triangle result of the class's pair-result
# entry under ``_slides``, the entry searches read under ``_swaps``: a
# triangle on a front pair (a, b) leaves the suffix of b, and a triangle
# result r of a front's suffix class gives lead(a, r).  A sliding result
# under ``_slides`` is the class's own key, so that half is left empty.


def _slides(u: int, v: int) -> tuple:
    """The interchange swaps and sliding rewrites of the adjacent packed layers (u, v)."""
    return _swaps(u, v) + tuple(repl for _, _, repl, _ in _match_pair(u, v) if repl)


def _normal_form(state, mode: Mode):
    """Packed-key normal form; see :func:`normal_form`."""
    source, key = state
    key = _front_graph(_slides).least(key)
    while mode is Mode.C:
        contracted = _memoised(key, _results_entry, _slides)[1]
        if not contracted:
            break
        key = contracted[0]
    return source, key


def normal_form(t: Term, mode: Mode) -> Term:
    """The canonical member of ``t``'s class after all triangle contractions.

    Mode D gives the least term of the sliding class, so two terms are
    equal iff their normal forms are.  Mode C contracts the least member at
    the first triangle result of its sliding class (``_pair_results``' walk
    under the sliding moves), and repeats.  In mode C every member of a
    sliding class gets the same form, and terms with the same form are equal;
    different forms mean different classes only as long as contraction is
    confluent modulo sliding.  Raises :class:`MonocatError` when closing a
    class takes more than the work bound of ``terms``.
    """
    return _class_term(*_normal_form((t.source, packed_layers(t)), mode))


# -- hom-set enumeration ------------------------------------------------------


@dataclass(frozen=True)
class HomEnumeration:
    """Equivalence classes of an enumerated hom-set.

    ``classes`` lists all enumerated members per class (representative
    first, by generator count then term order), one class per normal
    form.  ``unresolved`` holds the representative pairs ``(a, b)``, ``a``
    first, whose classes no matrix image separates: their separation
    rests on the normal forms alone.
    """

    classes: tuple[tuple[Term, ...], ...]
    unresolved: tuple[tuple[Term, Term], ...]

    @property
    def representatives(self) -> tuple[Term, ...]:
        return tuple(cls[0] for cls in self.classes)


def _slice_choices(width: int, caps: SearchCaps):
    """Packed layers that fit on ``width`` wires, with the width after them."""
    for nn in range(1, caps.max_index_n + 1):
        if width + 2 * nn <= caps.max_width:
            for mm in range(0, width + 1):
                for off in range(0, width - mm + 1):
                    yield pack_layer(off, _ETA, mm, nn), width + 2 * nn
        for mm in range(0, width - 2 * nn + 1):
            for off in range(0, width - mm - 2 * nn + 1):
                yield pack_layer(off, _EPS, mm, nn), width - 2 * nn


def sample_term(rng: random.Random, source: int, max_len: int, caps: SearchCaps) -> Term:
    """A random walk of at most ``max_len`` slices from ``source`` wires.

    The length is drawn first, then each slice uniformly from the layers
    that fit on the current width within ``caps`` (its width and index
    caps), in the order :func:`_slice_choices` lists them; the walk stops
    early on a width with no such layer.  The draws depend only on ``rng``
    and the arguments.
    """
    lays, width = [], source
    for _ in range(rng.randint(0, max_len)):
        options = list(_slice_choices(width, caps))
        if not options:
            break
        lay, width = rng.choice(options)
        lays.append(lay)
    return term_from_packed(source, tuple(lays))


def _hom_keys(m: int, n: int, caps: SearchCaps) -> set:
    """The least keys of the terms m -> n within caps.

    Built from the target backwards, one class per key: level ``k`` holds
    the least keys of the terms of ``k`` slices that end at width ``n``,
    by the width they start from.  Every word within caps is a layer
    followed by a word within caps, and the class of ``lay`` followed by
    ``w`` depends only on the class of ``w``, so level ``k + 1`` is the
    ``lead`` of each layer ending at the source of a key of level ``k``.
    A width from which ``m`` is out of reach in the slices left is pruned,
    and layers are listed only on widths within reach of ``m``.  The memo
    is fetched per ``lead``, so its cap holds during a long run.
    """
    if m > caps.max_width or n > caps.max_width:
        return set()
    step = 2 * caps.max_index_n
    reach = step * caps.max_gen_count
    ending_at: dict = {}  # width -> the (source width, layer) pairs that end there
    for w in range(max(m - reach, 0), min(m + reach, caps.max_width) + 1):
        for lay, after in _slice_choices(w, caps):
            ending_at.setdefault(after, []).append((w, lay))
    level = {n: {()}}
    out = {()} if m == n else set()
    for left in range(caps.max_gen_count - 1, -1, -1):
        grown: dict = {}
        for after, keys in level.items():
            for w, lay in ending_at.get(after, ()):
                if abs(w - m) <= step * left:
                    into = grown.setdefault(w, set())
                    for key in keys:
                        into.add(_front_graph().lead(lay, key))
        level = grown
        out |= level.get(m, set())
    return out


def generate_terms(m: int, n: int, caps: SearchCaps) -> list[Term]:
    """All canonical terms m -> n within caps (distinct canonical forms).

    One term per interchange class that has a member within caps, sorted
    by packed layers; see :func:`_hom_keys`.
    """
    return [term_from_packed(m, k) for k in sorted(_hom_keys(m, n, caps))]


# built once, so their cup/cap cores are cached across hom shapes
_BUCKET_SPECS = (vect.FunctorSpec.identity(2), vect.FunctorSpec.random(2, seed=11))


def hom_classes(
    m: int, n: int, mode: Mode, caps: SearchCaps = DEFAULT_CAPS
) -> tuple[tuple[Term, ...], ...]:
    """The enumerated hom classes m -> n, one per normal form.

    Every term ``generate_terms(m, n, caps)`` lists joins the class of its
    normal form (see :func:`normal_form`).  Members come by generator
    count, then packed layers, and classes in the order of their first
    members.
    """
    by_form: dict = {}
    for key in sorted(_hom_keys(m, n, caps), key=lambda k: (len(k), k)):
        member = term_from_packed(m, key)
        by_form.setdefault(_normal_form((m, key), mode), []).append(member)
    return tuple(tuple(cls) for cls in by_form.values())


def enum_hom_detailed(
    m: int,
    n: int,
    mode: Mode,
    caps: SearchCaps = DEFAULT_CAPS,
    merge_caps: SearchCaps | None = None,
) -> HomEnumeration:
    """Enumerate hom classes by normal form; see :class:`HomEnumeration`.

    The classes are :func:`hom_classes`, and ``merge_caps`` is not read.
    ``unresolved`` pairs up the representatives that exact matrix images
    under two functor configurations do not separate: the representatives
    are planned once and contracted in one batch per configuration
    (:func:`vect.image_keys`), and buckets come in the order of their
    first representatives.
    """
    classes = hom_classes(m, n, mode, caps)
    reps = [cls[0] for cls in classes]
    buckets: dict = {}
    for rep, image in zip(reps, vect.image_keys(_BUCKET_SPECS, reps)):
        buckets.setdefault(image, []).append(rep)
    unresolved = []
    for bucket in buckets.values():
        unresolved.extend((bucket[i], bucket[j]) for j in range(len(bucket)) for i in range(j))
    return HomEnumeration(classes=classes, unresolved=tuple(unresolved))


# -- literal relation instances ----------------------------------------------


def rule_instance(rule: RuleId, i: int = 0, j: int = 0, k: int = 1, l: int = 0, n: int = 1):
    """The printed relation instance (lhs, rhs) as literal slice terms.

    Built by direct substitution into the defining equations, independent
    of the matcher; used as the ground truth for soundness sweeps.
    """
    if rule is RuleId.NAT_ETA_ETA:
        lhs = compose(whisker(i, eta(j, k), l), gen_term(eta(i + j + 2 * k + l, n)))
        rhs = compose(gen_term(eta(i + j + l, n)), whisker(i, eta(j, k), l + 2 * n))
    elif rule is RuleId.NAT_ETA_EPS:
        lhs = compose(whisker(i, eps(j, k), l), gen_term(eta(i + j + l, n)))
        rhs = compose(gen_term(eta(i + j + 2 * k + l, n)), whisker(i, eps(j, k), l + 2 * n))
    elif rule is RuleId.NAT_EPS_ETA:
        lhs = compose(whisker(i, eta(j, k), l + 2 * n), gen_term(eps(i + j + 2 * k + l, n)))
        rhs = compose(gen_term(eps(i + j + l, n)), whisker(i, eta(j, k), l))
    elif rule is RuleId.NAT_EPS_EPS:
        lhs = compose(whisker(i, eps(j, k), l + 2 * n), gen_term(eps(i + j + l, n)))
        rhs = compose(gen_term(eps(i + j + 2 * k + l, n)), whisker(i, eps(j, k), l))
    elif rule is RuleId.TRIANGLE_A:
        lhs = compose(whisker(0, eta(i, n), n), gen_term(eps(i + n, n)))
        rhs = identity(i + n)
    elif rule is RuleId.TRIANGLE_B:
        lhs = compose(gen_term(eta(i + n, n)), whisker(0, eps(i, n), n))
        rhs = identity(i + n)
    else:  # pragma: no cover
        raise ValueError(rule)
    return lhs, rhs


def rule_instances(i_range=(0, 1, 2), j_range=(0, 1, 2), k_range=(1, 2), l_range=(0, 1, 2), n_range=(1, 2)):
    """Sweep of literal (rule, params, lhs, rhs) tuples over parameter grids."""
    out = []
    for rule in (
        RuleId.NAT_ETA_ETA,
        RuleId.NAT_ETA_EPS,
        RuleId.NAT_EPS_ETA,
        RuleId.NAT_EPS_EPS,
    ):
        for i in i_range:
            for j in j_range:
                for k in k_range:
                    for l in l_range:
                        for n in n_range:
                            lhs, rhs = rule_instance(rule, i, j, k, l, n)
                            out.append((rule, (i, j, k, l, n), lhs, rhs))
    for rule in (RuleId.TRIANGLE_A, RuleId.TRIANGLE_B):
        for i in i_range:
            for n in n_range:
                lhs, rhs = rule_instance(rule, i=i, n=n)
                out.append((rule, (i, n), lhs, rhs))
    return out
