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
expansions are offered at every vertical cut of the diagram.  Searches
run on packed keys ``(source, ((offset, kind, m, n), ...))`` of
canonical forms (see ``terms.term_key``) and build ``Term`` objects only
for what they return: witnesses, reports, neighbour lists and
``apply`` results.

Everything here is deterministic: neighbour lists, exploration order and
reports depend only on the inputs.  The search is sequential; a parallel
frontier expansion would have to produce the same visit sets.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .terms import (
    Mode,
    MonocatError,
    Term,
    _canonical_key,
    canonical,
    compose,
    eps,
    eta,
    gen_count,
    gen_term,
    identity,
    layer_key,
    term_from_key,
    term_key,
    whisker,
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

    ``variant`` indexes an ordering of the source term's slices (the
    engine's deterministic arrangement list) and ``pos`` a position in
    it.  For pair steps, ``pair`` holds the labels (original slice
    indices) of the two slices matched at (pos, pos + 1).  For
    expansions, ``cut`` is the sorted label set below the insertion
    point and ``offset``/``block``/``index_n`` place the inserted
    insertion/deletion pair.  ``binding`` records the parameter values
    of the matched relation instance.
    """

    rule: RuleId
    direction: Direction
    variant: int = 0
    pos: int = 0
    pair: tuple[int, int] | None = None
    cut: tuple[int, ...] | None = None
    offset: int | None = None
    block: int | None = None
    index_n: int | None = None
    binding: tuple[tuple[str, int], ...] = ()

    def describe(self) -> str:
        side = "+" if self.direction is Direction.FORWARD else "-"
        bound = ",".join(f"{k}={v}" for k, v in self.binding)
        return f"{self.rule.value}{side}({bound})"


@dataclass(frozen=True)
class EqualityWitness:
    """A verified rewrite path between two canonical forms.

    ``terms`` has one more entry than ``steps``; ``steps[k]`` applied to
    ``terms[k]`` yields ``terms[k + 1]``.
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
    states: tuple[Term, ...] | None = None


def _state(t: Term) -> tuple:
    """The search state of ``t``: the packed key of its canonical form."""
    return (t.source, _canonical_key(layer_key(t)))


# -- interchange arrangements ---------------------------------------------------
#
# A term's interchange class is the finite set of slice orderings of its
# diagram.  Matching "modulo interchange" means: list-adjacent in some
# ordering.  The zero-width corner cases make greedy routing unsound (a
# block-free slice touching another block's edge can pass it on either
# side with different resulting offsets), so the engine enumerates the
# orderings outright; they are small at the widths this engine targets.


@lru_cache(maxsize=1 << 16)
def _labelled_arrangements(key: tuple) -> tuple:
    """All orderings of the layers ``key``, as (labels, layers) pairs.

    Labels are the original positions of the layers.  Deterministically
    sorted by the (label, offset, kind_value, m, n) entry sequences.
    """
    start = tuple((idx, off, kv, m, n) for idx, (off, kv, m, n) in enumerate(key))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for pos in range(len(cur) - 1):
            iu, ou, ku, mu, nu = cur[pos]
            iv, ov, kv, mv, nv = cur[pos + 1]
            du = 2 * nu if ku == "eta" else -2 * nu
            dv = 2 * nv if kv == "eta" else -2 * nv
            src_v = mv if kv == "eta" else mv + 2 * nv
            tgt_u = mu + 2 * nu if ku == "eta" else mu
            swaps = []
            if ov + src_v <= ou:
                swaps.append(((iv, ov, kv, mv, nv), (iu, ou + dv, ku, mu, nu)))
            if ov >= ou + tgt_u:
                swaps.append(((iv, ov - du, kv, mv, nv), (iu, ou, ku, mu, nu)))
            for pair in swaps:
                new = cur[:pos] + pair + cur[pos + 2 :]
                if new not in seen:
                    if len(seen) >= 200_000:
                        raise MonocatError("interchange class too large to search")
                    seen.add(new)
                    queue.append(new)
    return tuple(
        (tuple(e[0] for e in arr), tuple(e[1:] for e in arr)) for arr in sorted(seen)
    )


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

_RULE_OF = {
    ("eta", "eta"): RuleId.NAT_ETA_ETA,
    ("eta", "eps"): RuleId.NAT_ETA_EPS,
    ("eps", "eta"): RuleId.NAT_EPS_ETA,
    ("eps", "eps"): RuleId.NAT_EPS_EPS,
}


def _match_pair(u, v, mode: Mode):
    """All rule matches on the ordered adjacent pair of layer keys (u, v)."""
    a, ku, mu, nu = u
    c, kv, mv, nv = v
    du = 2 * nu if ku == "eta" else -2 * nu
    dv = 2 * nv if kv == "eta" else -2 * nv
    tgt_u = mu + 2 * nu if ku == "eta" else mu
    src_v = mv if kv == "eta" else mv + 2 * nv
    found = []

    if c <= a and a + tgt_u <= c + mv:
        binding = (("i", a - c), ("j", mu), ("k", nu), ("l", c + mv - a - tgt_u), ("n", nv))
        repl = ((c, kv, mv - du, nv), u)
        found.append((_RULE_OF[kv, ku], Direction.FORWARD, repl, binding))

    if a <= c and c + src_v <= a + mu:
        binding = (("i", c - a), ("j", mv), ("k", nv), ("l", a + mu - c - src_v), ("n", nu))
        repl = (v, (a, ku, mu + dv, nu))
        found.append((_RULE_OF[ku, kv], Direction.BACKWARD, repl, binding))

    if mode is Mode.C and ku == "eta" and kv == "eps" and a == c and nu == nv:
        if mv == mu + nu:
            found.append((RuleId.TRIANGLE_A, Direction.FORWARD, (), (("i", mu), ("n", nu))))
        elif mv == mu - nu:
            found.append((RuleId.TRIANGLE_B, Direction.FORWARD, (), (("i", mv), ("n", nu))))

    return found


def _pair_step_results(state, mode: Mode):
    source, lays = state
    results = []
    seen = set()
    for ai, (labels, row) in enumerate(_labelled_arrangements(lays)):
        for p in range(len(row) - 1):
            for rule, direction, repl, binding in _match_pair(row[p], row[p + 1], mode):
                # the same instance shows up in many orderings of the
                # other slices; one witness per matched instance suffices
                pair = labels[p : p + 2]
                dedupe = (rule, direction, pair, row[p][0], row[p + 1][0])
                if dedupe in seen:
                    continue
                seen.add(dedupe)
                step = RewriteStep(
                    rule, direction, variant=ai, pos=p, pair=pair, binding=binding
                )
                new = row[:p] + repl + row[p + 2 :]
                results.append((step, (source, _canonical_key(new))))
    return results


def _cut_states(state):
    """Distinct vertical cuts: (arrangement index, position, width).

    A cut is a prefix of some ordering.  Two prefixes are the same cut
    when they hold the same slice labels and leave the remaining slices
    at the same offsets (zero-width blocks can pass a neighbouring block
    on either side, so the label set alone does not determine the cut).
    """
    source, lays = state
    out = []
    seen = set()
    for ai, (labels, row) in enumerate(_labelled_arrangements(lays)):
        width = source
        for p in range(len(row) + 1):
            key = (
                tuple(sorted(labels[:p])),
                tuple(zip(labels[p:], [lay[0] for lay in row[p:]])),
            )
            if key not in seen:
                seen.add(key)
                out.append((ai, p, width))
            if p < len(row):
                _, kv, _, nn = row[p]
                width += 2 * nn if kv == "eta" else -2 * nn
    return out


def _expansion_step_results(state, caps: SearchCaps):
    source, lays = state
    if len(lays) + 2 > caps.max_gen_count:
        return []
    results = []
    arrs = _labelled_arrangements(lays)
    for ai, p, width in _cut_states(state):
        labels, row = arrs[ai]
        head, tail = row[:p], row[p:]
        cut_ids = tuple(sorted(labels[:p]))
        for nn in range(1, caps.max_index_n + 1):
            if width + 2 * nn > caps.max_width:
                continue
            for a in range(0, width - nn + 1):
                for i in range(0, width - nn - a + 1):
                    for rule, ins_blk, del_blk in (
                        (RuleId.TRIANGLE_A, i, i + nn),
                        (RuleId.TRIANGLE_B, i + nn, i),
                    ):
                        step = RewriteStep(
                            rule,
                            Direction.BACKWARD,
                            variant=ai,
                            pos=p,
                            cut=cut_ids,
                            offset=a,
                            block=ins_blk,
                            index_n=nn,
                            binding=(("i", i), ("n", nn)),
                        )
                        new = head + ((a, "eta", ins_blk, nn), (a, "eps", del_blk, nn)) + tail
                        results.append((step, (source, _canonical_key(new))))
    return results


def _step_results(state, mode: Mode, caps: SearchCaps):
    results = _pair_step_results(state, mode)
    if mode is Mode.C:
        results.extend(_expansion_step_results(state, caps))
    return results


def match_rules(t: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS) -> list[RewriteStep]:
    """All rule applications available on ``t`` modulo interchange.

    Pair rules are matched on every interchange-adjacent slice pair;
    expansions are enumerated at every cut, bounded by ``caps``.
    """
    return [step for step, _ in _step_results(term_key(t), mode, caps)]


def apply(t: Term, step: RewriteStep) -> Term:
    """Replay ``step`` against ``t``; canonicalized result.

    Raises :class:`InvalidStep` when the step does not match ``t``.
    """
    arrs = _labelled_arrangements(layer_key(t))
    if not (0 <= step.variant < len(arrs)):
        raise InvalidStep(f"arrangement {step.variant} out of range")
    labels, row = arrs[step.variant]

    if step.pair is not None:
        p = step.pos
        if not (0 <= p < len(row) - 1):
            raise InvalidStep(f"position {p} out of range")
        if labels[p : p + 2] != step.pair:
            raise InvalidStep(f"slices {step.pair} not adjacent at position {p}")
        for rule, direction, repl, _ in _match_pair(row[p], row[p + 1], Mode.C):
            if rule is step.rule and direction is step.direction:
                new = row[:p] + repl + row[p + 2 :]
                return term_from_key(t.source, _canonical_key(new))
        raise InvalidStep(f"{step.describe()} does not match at {step.pair}")

    if step.cut is None or step.offset is None or step.block is None or step.index_n is None:
        raise InvalidStep("malformed step")
    if step.direction is not Direction.BACKWARD:
        raise InvalidStep("expansions are backward steps")
    p = step.pos
    if not (0 <= p <= len(row)):
        raise InvalidStep(f"position {p} out of range")
    if tuple(sorted(labels[:p])) != step.cut:
        raise InvalidStep(f"cut {step.cut} does not match position {p}")
    a, blk, nn = step.offset, step.block, step.index_n
    if step.rule is RuleId.TRIANGLE_A:
        del_blk = blk + nn
    elif step.rule is RuleId.TRIANGLE_B:
        del_blk = blk - nn
    else:
        raise InvalidStep(f"{step.rule.value} is not an expansion rule")
    try:
        new = term_from_key(
            t.source, row[:p] + ((a, "eta", blk, nn), (a, "eps", del_blk, nn)) + row[p:]
        )
    except (ValueError, MonocatError) as exc:
        raise InvalidStep(str(exc)) from exc
    return canonical(new)


def _peak_width(state) -> int:
    width = peak = state[0]
    for _, kv, _, n in state[1]:
        if kv == "eta":
            width += 2 * n
            peak = max(peak, width)
        else:
            width -= 2 * n
    return peak


def _respects(state, caps: SearchCaps) -> bool:
    return len(state[1]) <= caps.max_gen_count and _peak_width(state) <= caps.max_width


def neighbors(t: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS) -> list[Term]:
    """Canonical, deduplicated one-step rewrites of ``t`` within caps."""
    found = {y for _, y in _step_results(term_key(t), mode, caps) if _respects(y, caps)}
    return [term_from_key(*y) for y in sorted(found)]


def find_inverse(t: Term, step: RewriteStep) -> RewriteStep:
    """The inverse instance of ``step``, as a step on ``apply(t, step)``.

    Every rule is a symmetric relation, so the applied instance can be
    undone; the returned step has the same rule with flipped direction
    and maps the result back to ``canonical(t)``.
    """
    result = term_key(apply(t, step))
    want = _state(t)
    flip = (
        Direction.BACKWARD if step.direction is Direction.FORWARD else Direction.FORWARD
    )
    for cand, res in _step_results(result, Mode.C, _relaxed_caps(result, want, DEFAULT_CAPS)):
        if res == want and cand.rule is step.rule and cand.direction is flip:
            return cand
    raise InvalidStep(f"no inverse instance found for {step.describe()}")


def _relaxed_caps(a, b, caps: SearchCaps) -> SearchCaps:
    """Caps wide enough to re-derive any edge between two in-cap states."""
    ns = [caps.max_index_n]
    widths = [caps.max_width]
    gens = [caps.max_gen_count]
    for state in (a, b):
        ns.extend(n for _, _, _, n in state[1])
        widths.append(_peak_width(state))
        gens.append(len(state[1]))
    return SearchCaps(max(gens), max(widths) + 2 * max(ns), max(ns), caps.max_states)


def _find_step(src, dst, mode: Mode, caps: SearchCaps) -> RewriteStep:
    """A step turning src into dst; exists whenever dst was found adjacent."""
    for step, result in _step_results(src, mode, _relaxed_caps(src, dst, caps)):
        if result == dst:
            return step
    raise AssertionError("edge of the rewrite graph could not be re-derived")


def _successors(state, mode: Mode, caps: SearchCaps) -> list:
    """Distinct one-step results of ``state`` in key order, caps unchecked."""
    return sorted({y for _, y in _step_results(state, mode, caps)})


def equal(
    a: Term, b: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS
) -> EqualityWitness | None:
    """Decide bounded equality by bidirectional search over canonical forms.

    Returns a verified :class:`EqualityWitness` when a rewrite path is
    found within caps, and None (unknown; sound but incomplete) when the
    budget is exhausted.  Raises :class:`NotEqualShape` when the widths
    disagree.
    """
    if a.source != b.source or a.target != b.target:
        raise NotEqualShape(
            f"shape mismatch: {a.source}->{a.target} vs {b.source}->{b.target}"
        )
    ka, kb = _state(a), _state(b)
    if ka == kb:
        return EqualityWitness(terms=(term_from_key(*ka),), steps=())

    parents_a: dict = {ka: None}
    parents_b: dict = {kb: None}
    frontier_a, frontier_b = [ka], [kb]
    visited = 2

    while frontier_a and frontier_b:
        grow_a = len(frontier_a) <= len(frontier_b)
        frontier = frontier_a if grow_a else frontier_b
        parents = parents_a if grow_a else parents_b
        new_frontier = []
        for x in frontier:
            for y in _successors(x, mode, caps):
                if y in parents or not _respects(y, caps):
                    continue
                visited += 1
                if visited > caps.max_states:
                    return None
                parents[y] = x
                new_frontier.append(y)
        if grow_a:
            frontier_a = new_frontier
        else:
            frontier_b = new_frontier
        meets = parents_a.keys() & parents_b.keys()
        if meets:
            return _reconstruct(min(meets), parents_a, parents_b, mode, caps)
    return None


def _reconstruct(meet, parents_a, parents_b, mode, caps) -> EqualityWitness:
    """Join the two search trees into one verified forward path.

    Edges on the b side were discovered pointing away from b, so their
    forward steps are re-derived; the rewrite relation is symmetric, so
    the matching step always exists.
    """
    chain = []
    key = meet
    while key is not None:
        chain.append(key)
        key = parents_a[key]
    chain.reverse()
    key = parents_b[meet]
    while key is not None:
        chain.append(key)
        key = parents_b[key]
    steps = tuple(
        _find_step(chain[k], chain[k + 1], mode, caps) for k in range(len(chain) - 1)
    )
    return EqualityWitness(terms=tuple(term_from_key(*k) for k in chain), steps=steps)


def explore(
    t: Term, mode: Mode, caps: SearchCaps = DEFAULT_CAPS, collect_states: bool = False
) -> ExploreReport:
    """Breadth-first closure of ``t``'s rewrite class under caps.

    With ``collect_states`` the report carries every visited canonical
    form (meant for small caps; the invariant suite checks the matrix
    image is constant across them).
    """
    start = _state(t)
    if not _respects(start, caps):
        raise ValueError("start term exceeds the search caps")
    parents = {start: None}
    queue = deque([start])
    identity_key = (t.source, ()) if t.source == t.target else None
    min_gens = len(start[1])
    truncated = False
    while queue:
        x = queue.popleft()
        for y in _successors(x, mode, caps):
            if y in parents or not _respects(y, caps):
                continue
            if len(parents) >= caps.max_states:
                truncated = True
                queue.clear()
                break
            parents[y] = x
            min_gens = min(min_gens, len(y[1]))
            queue.append(y)

    found = identity_key is not None and identity_key in parents
    witness = None
    if found:
        chain = []
        key = identity_key
        while key is not None:
            chain.append(term_from_key(*key))
            key = parents[key]
        witness = tuple(reversed(chain))
    return ExploreReport(
        start=term_from_key(*start),
        mode=mode,
        caps=caps,
        states_visited=len(parents),
        identity_found=found,
        min_gen_count_seen=min_gens,
        truncated=truncated,
        witness_path=witness,
        states=tuple(term_from_key(*k) for k in sorted(parents)) if collect_states else None,
    )


# -- hom-set enumeration ------------------------------------------------------


@dataclass(frozen=True)
class HomEnumeration:
    """Equivalence classes of an enumerated hom-set.

    ``classes`` lists all enumerated members per class (representative
    first, by generator count then term order).  ``unresolved`` holds
    pairs that bounded equality could not merge although their matrix
    invariants agree; they are reported, never merged silently.
    """

    classes: tuple[tuple[Term, ...], ...]
    unresolved: tuple[tuple[Term, Term], ...]

    @property
    def representatives(self) -> tuple[Term, ...]:
        return tuple(cls[0] for cls in self.classes)


def _slice_choices(width: int, caps: SearchCaps):
    """Layer keys that fit on ``width`` wires, with the width after them."""
    for nn in range(1, caps.max_index_n + 1):
        if width + 2 * nn <= caps.max_width:
            for mm in range(0, width + 1):
                for off in range(0, width - mm + 1):
                    yield (off, "eta", mm, nn), width + 2 * nn
        for mm in range(0, width - 2 * nn + 1):
            for off in range(0, width - mm - 2 * nn + 1):
                yield (off, "eps", mm, nn), width - 2 * nn


def generate_terms(m: int, n: int, caps: SearchCaps) -> list[Term]:
    """All canonical terms m -> n within caps (distinct canonical forms)."""
    out = set()
    step = 2 * caps.max_index_n

    def rec(lays: list, width: int) -> None:
        if width == n:
            out.add(_canonical_key(tuple(lays)))
        remaining = caps.max_gen_count - len(lays)
        if remaining <= 0 or abs(width - n) > step * remaining:
            return
        for lay, after in _slice_choices(width, caps):
            if abs(after - n) > step * (remaining - 1):
                continue
            lays.append(lay)
            rec(lays, after)
            lays.pop()

    if m <= caps.max_width:
        rec([], m)
    return [term_from_key(m, k) for k in sorted(out)]


def enum_hom(
    m: int,
    n: int,
    mode: Mode,
    caps: SearchCaps = DEFAULT_CAPS,
    merge_caps: SearchCaps | None = None,
    invariant=None,
) -> list[Term]:
    """Representatives of distinct rewrite classes among terms m -> n."""
    return list(enum_hom_detailed(m, n, mode, caps, merge_caps, invariant).representatives)


def enum_hom_detailed(
    m: int,
    n: int,
    mode: Mode,
    caps: SearchCaps = DEFAULT_CAPS,
    merge_caps: SearchCaps | None = None,
    invariant=None,
) -> HomEnumeration:
    """Enumerate and merge hom classes; see :class:`HomEnumeration`.

    ``invariant`` maps a term to a hashable value constant on rewrite
    classes (by default, exact matrix images under two functor
    configurations); members with distinct invariants are never compared
    by search, which keeps merging sound and fast.
    """
    if invariant is None:
        from . import vect

        specs = (
            vect.FunctorSpec.identity(2),
            vect.FunctorSpec.random(2, seed=11),
        )
        invariant = lambda t: tuple(vect.eval_term(s, t).entries for s in specs)

    merge = merge_caps if merge_caps is not None else caps
    raw = generate_terms(m, n, caps)
    raw.sort(key=lambda t: (gen_count(t), term_key(t)))

    buckets: dict = {}
    for t in raw:
        buckets.setdefault(invariant(t), []).append(t)

    classes: list[list[Term]] = []
    unresolved: list[tuple[Term, Term]] = []
    for sig in sorted(buckets, key=lambda s: repr(s)):
        members = buckets[sig]
        bucket_classes: list[list[Term]] = []
        for t in members:
            placed = False
            for cls in bucket_classes:
                if equal(t, cls[0], mode, merge) is not None:
                    cls.append(t)
                    placed = True
                    break
            if not placed:
                for cls in bucket_classes:
                    unresolved.append((cls[0], t))
                bucket_classes.append([t])
        classes.extend(bucket_classes)

    classes.sort(key=lambda cls: (gen_count(cls[0]), term_key(cls[0])))
    return HomEnumeration(
        classes=tuple(tuple(cls) for cls in classes),
        unresolved=tuple(unresolved),
    )


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
