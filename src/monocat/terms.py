"""Slice terms over a two-family signature of width-changing generators.

Objects are wire counts (plain naturals).  Arrows are built from two
parametric generator families:

* ``eta(m, n)``  : m -> m + 2n   (inserts a block of 2n fresh wires to the
  right of m passthrough wires)
* ``eps(m, n)``  : m + 2n -> m   (consumes the 2n rightmost wires of its
  block, keeping m passthrough wires)

with n >= 1.  A morphism is stored as a sequence of *slices*, each a single
generator padded with identity wires on both sides, applied first to last.
Tensor expressions are compiled to slices by the left-first decomposition
``f (x) g = (f (x) id) ; (id (x) g)``.

Two slice sequences denote the same arrow of the free structure exactly
when they differ by swapping adjacent slices with disjoint support
(sliding law).  ``canonical`` picks one representative per class.

All types are immutable values.  Canonicalisation and rule matching share
one bounded, unlocked memo (see ``_front_graph``) whose entries depend only
on their keys, so results never depend on what it holds; only which of
several equal ``Term`` objects ``canonical`` returns, and which equal
``Slice`` objects a returned term holds, do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MonocatError(Exception):
    """Base class for errors raised by this package."""


class InvalidGenerator(MonocatError):
    """Generator parameters outside the signature (n must be >= 1, m >= 0)."""


class NotComposable(MonocatError):
    """Sequential composition attempted across mismatched widths."""


class GenKind(enum.Enum):
    ETA = "eta"
    EPS = "eps"


_ETA = GenKind.ETA


class Mode(enum.Enum):
    """Which presentation a term is read in.

    ``D`` admits only the sliding relations of the generator families (plus
    interchange).  ``C`` additionally collapses the two unit/counit
    triangles, which makes tensoring with any object self-adjoint.  The
    projection from D-terms to C-terms is the identity on representations;
    only the rewrite rule set differs.
    """

    D = "D"
    C = "C"


@dataclass(frozen=True, slots=True)
class Generator:
    kind: GenKind
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidGenerator(f"generator index n must be >= 1, got {self.n}")
        if self.m < 0:
            raise InvalidGenerator(f"generator index m must be >= 0, got {self.m}")

    @property
    def source(self) -> int:
        return self.m if self.kind is _ETA else self.m + 2 * self.n

    @property
    def target(self) -> int:
        return self.m + 2 * self.n if self.kind is _ETA else self.m

    @property
    def delta(self) -> int:
        """Width change: +2n for eta, -2n for eps."""
        return 2 * self.n if self.kind is _ETA else -2 * self.n

    def __str__(self) -> str:
        return f"{self.kind.value}({self.m},{self.n})"


def generator(kind: GenKind, m: int, n: int) -> Generator:
    return Generator(kind, m, n)


def eta(m: int, n: int) -> Generator:
    return Generator(GenKind.ETA, m, n)


def eps(m: int, n: int) -> Generator:
    return Generator(GenKind.EPS, m, n)


@dataclass(frozen=True, slots=True)
class Slice:
    """One generator padded by ``left`` and ``right`` identity wires."""

    left: int
    gen: Generator
    right: int

    def __post_init__(self) -> None:
        if self.left < 0 or self.right < 0:
            raise ValueError(f"negative whisker in slice ({self.left}, {self.gen}, {self.right})")

    @property
    def source_width(self) -> int:
        return self.left + self.gen.source + self.right

    @property
    def target_width(self) -> int:
        return self.left + self.gen.target + self.right


@dataclass(frozen=True)
class Term:
    """A composable slice sequence with an explicit source width.

    The empty sequence is the identity on ``source``.  Construction checks
    that consecutive widths chain, so a ``Term`` is well formed by
    existence; ``term_from_packed``, whose slices chain by construction,
    makes its terms without repeating the check.
    """

    source: int
    slices: tuple[Slice, ...] = ()

    def __post_init__(self) -> None:
        if self.source < 0:
            raise ValueError(f"negative source width {self.source}")
        w = self.source
        for k, s in enumerate(self.slices):
            if s.source_width != w:
                raise NotComposable(
                    f"slice {k} expects width {s.source_width} but receives {w}"
                )
            w = s.target_width

    @property
    def target(self) -> int:
        return self.slices[-1].target_width if self.slices else self.source

    def widths(self) -> tuple[int, ...]:
        """All interface widths, source first, target last."""
        out = [self.source]
        for s in self.slices:
            out.append(out[-1] + s.gen.delta)
        return tuple(out)

    def __str__(self) -> str:
        return render(self)


def identity(n: int) -> Term:
    return Term(n, ())


def whisker(left: int, g: Generator, right: int) -> Term:
    return Term(left + g.source + right, (Slice(left, g, right),))


def gen_term(g: Generator) -> Term:
    """The bare single-generator term (no padding)."""
    return whisker(0, g, 0)


def compose(f: Term, g: Term) -> Term:
    """Diagrammatic composition: ``f`` applied first."""
    if f.target != g.source:
        raise NotComposable(f"cannot compose: target {f.target} != source {g.source}")
    return Term(f.source, f.slices + g.slices)


def tensor(f: Term, g: Term) -> Term:
    """Left-first decomposition: f's slices padded right, then g's padded left."""
    fs = tuple(Slice(s.left, s.gen, s.right + g.source) for s in f.slices)
    gs = tuple(Slice(s.left + f.target, s.gen, s.right) for s in g.slices)
    return Term(f.source + g.source, fs + gs)


def gen_count(t: Term) -> int:
    """Number of generator occurrences in this presentation of the arrow."""
    return len(t.slices)


# -- packed layers and interchange machinery ----------------------------------
#
# Inside ``terms`` and ``rewrite`` a slice list is a tuple of *packed
# layers*, one int per slice:
#
#     ((offset << 1 | kind) << 16 | m) << 8 | n      kind: eps 0, eta 1
#
# the right whisker being recomputed from the running width.  Int order is
# the order of the slices by (left, kind, m, n) with eps before eta, so
# least members, sorts and minima are those of the slices.  The offset is
# the top field and has no bound; ``m`` and ``n`` have fixed fields, and a
# layer past them raises ``LayerOutOfRange`` where it is packed
# (``pack_layer``, which rewriting goes through too), so no key ever wraps.
#
# ``packed_layers`` and ``term_from_packed`` convert a ``Term`` to and from
# packed layers, which ``cli.parse_expr`` also reads an expression into;
# outside these modules, rewrite step rows included, a slice list is a
# ``Term``.
#
# Two adjacent layers commute when their active blocks are disjoint at
# the common interface.  A zero-width block strictly inside another block
# does not commute with it (the insertion point is pinned between two
# wires of that block); at either edge it does.

N_BITS = 8
M_BITS = 16
M_SHIFT = N_BITS
KIND_SHIFT = N_BITS + M_BITS
OFF_SHIFT = KIND_SHIFT + 1
N_MASK = (1 << N_BITS) - 1
M_MASK = (1 << M_BITS) - 1
ETA_BIT = 1 << KIND_SHIFT
_KINDS = (GenKind.EPS, GenKind.ETA)


class LayerOutOfRange(MonocatError):
    """A generator index past the fields of a packed layer."""


def _out_of_range(kind: GenKind, m: int, n: int) -> LayerOutOfRange:
    return LayerOutOfRange(
        f"{kind.value}({m},{n}) is outside the packed layer range: "
        f"m must be below {1 << M_BITS} and n below {1 << N_BITS}"
    )


def pack_layer(off: int, kind: GenKind, m: int, n: int) -> int:
    """The packed layer of ``kind(m, n)`` at offset ``off``."""
    if m > M_MASK or n > N_MASK:
        raise _out_of_range(kind, m, n)
    return ((off << 1 | (kind is _ETA)) << M_BITS | m) << N_BITS | n


def width_change(k: int) -> int:
    """The width change of the packed layer ``k``: +2n for eta, -2n for eps."""
    return 2 * (k & N_MASK) if k & ETA_BIT else -2 * (k & N_MASK)


def packed_layers(t: Term) -> tuple:
    return tuple([pack_layer(s.left, s.gen.kind, s.gen.m, s.gen.n) for s in t.slices])


def _slice(off: int, g: Generator, w: int) -> Slice:
    """The slice of ``g`` at offset ``off`` on ``w`` wires."""
    right = w - off - g.source
    if right < 0:
        raise ValueError(f"layer ({off}, {g}) does not fit in width {w}")
    return Slice(off, g, right)


def term_from_layers(source: int, lays: list[tuple[int, Generator]]) -> Term:
    out = []
    w = source
    for off, g in lays:
        out.append(_slice(off, g, w))
        w += g.delta
    return Term(source, tuple(out))


def unpack_layer(k: int) -> tuple:
    """The offset and the generator of the packed layer ``k``."""
    return k >> OFF_SHIFT, Generator(_KINDS[k >> KIND_SHIFT & 1], k >> M_SHIFT & M_MASK, k & N_MASK)


def term_from_packed(source: int, lays: tuple) -> Term:
    """The term with packed layers ``lays``; raises when they do not chain.

    Its slices are shared: the memo's entries keep one ``Slice``, with its
    ``Generator``, per (packed layer, input width), built by ``_slice`` on
    a miss.  The table is dropped with the memo, and starts again empty
    once it holds more than ``_MEMO_CAP`` slices (``rewrite.sample_term``
    fills it without growing the memo's least keys).  A slice is keyed by
    the width it receives and ``_slice`` checks that it fits there, so the
    slices chain by construction and the ``Term`` is made without
    ``__post_init__``'s check.
    """
    if source < 0:
        raise ValueError(f"negative source width {source}")
    table = _memo.get(term_from_packed)
    if table is None or len(table) > _MEMO_CAP:
        table = _memo[term_from_packed] = {}
    out = []
    w = source
    for k in lays:
        s = table.get((k, w))
        if s is None:
            s = table[k, w] = _slice(*unpack_layer(k), w)
        out.append(s)
        w += (k & N_MASK) << 1 if k & ETA_BIT else -((k & N_MASK) << 1)
    t = object.__new__(Term)
    fields = t.__dict__
    fields["source"] = source
    fields["slices"] = tuple(out)
    return t


def upside_down(t: Term) -> Term:
    """The mirror image of ``t``: slices reversed, insertions and deletions swapped."""
    flip = {GenKind.ETA: GenKind.EPS, GenKind.EPS: GenKind.ETA}
    return Term(
        t.target,
        tuple(
            Slice(s.left, Generator(flip[s.gen.kind], s.gen.m, s.gen.n), s.right)
            for s in reversed(t.slices)
        ),
    )


def _swaps(u: int, v: int) -> tuple:
    """Every legal transposition of the adjacent packed layers ``u`` then ``v``.

    Either ``v``'s source block lies left of ``u``'s offset (``u`` then
    shifts by ``v``'s width change), or it lies right of ``u``'s target
    block (``v`` shifts back by ``u``'s).  Both hold at once only for two
    zero-width blocks at the same gap.  Only offsets change, and the
    offset is the top field, so a shift is one addition.
    """
    ou, ov = u >> OFF_SHIFT, v >> OFF_SHIFT
    mu, mv = u >> M_SHIFT & M_MASK, v >> M_SHIFT & M_MASK
    wu, wv = 2 * (u & N_MASK), 2 * (v & N_MASK)
    out = ()
    if v & ETA_BIT:
        if ov + mv <= ou:
            out = ((v, u + (wv << OFF_SHIFT)),)
    elif ov + mv + wv <= ou:
        out = ((v, u - (wv << OFF_SHIFT)),)
    if u & ETA_BIT:
        if ov >= ou + mu + wu:
            out += ((v - (wu << OFF_SHIFT), u),)
    elif ov >= ou + mu:
        out += ((v + (wu << OFF_SHIFT), u),)
    return out


# move tests one closing may make, each counted with the length of the
# suffix behind it (the keys it hashes), before giving up
_WORK_CAP = 20_000_000


def _too_large(moves) -> MonocatError:
    name = "interchange" if moves is _swaps else "sliding"
    return MonocatError(f"{name} class too large to normalise")


class _FrontGraph:
    """A view of the memo of fronts for the classes under ``moves``.

    ``moves`` maps two adjacent layers to the pairs they may become
    (``_swaps`` for interchange, ``rewrite._slides`` for sliding).  The
    *fronts* of a class are its pairs (first layer, least suffix).
    ``_least`` maps every pair ``(b, t)`` met so far, ``t`` a least key, to
    the least member of the class of ``(b,) + t``, and maps each least key
    to itself, so that equal least keys are one shared tuple; ``_fronts``
    maps each least key of two or more layers to its fronts, sorted.  Both
    are filled together, when a class is closed.  ``_moved`` holds the
    moves of each layer pair met (per first layer).  ``_tables`` holds
    rewrite's entries per least key of these classes, one dict per build
    function; a least key under one move set can be a least key under
    another, with another class, so these are never shared between move
    sets.  The four are the memo's entry under ``moves``; ``entries`` is
    the memo, which also holds the tables that serve every move set:
    rewrite's pair matches, the shared terms of ``_class_term`` and the
    shared slices of ``term_from_packed``.  ``_WORK_CAP`` bounds the move
    tests one call makes, or one request after ``restart``.
    """

    __slots__ = ("_fronts", "_least", "_moved", "_tables", "entries", "moves", "_work")

    def __init__(self, fronts: dict, least: dict, moved: dict, tables: dict, entries: dict, moves) -> None:
        self._fronts = fronts
        self._least = least
        self._moved = moved
        self._tables = tables
        self.entries = entries
        self.moves = moves
        self._work = 0

    def table(self, key) -> dict:
        """The dict ``key`` of this move set's tables, added empty if missing."""
        return self._tables.get(key) or self._tables.setdefault(key, {})

    def shared(self, key) -> dict:
        """The dict ``entries[key]``, one for every move set, added empty if missing."""
        return self.entries.get(key) or self.entries.setdefault(key, {})

    def restart(self) -> None:
        """Count the move tests of the next request from zero."""
        self._work = 0

    def least(self, key: tuple) -> tuple:
        """The least member of the class of ``key``, built suffix by suffix."""
        return self._least.get(key) or self.prepend(key[:-1], key[-1:])

    def lead(self, b: int, t: tuple) -> tuple:
        """The least member of the class of ``(b,) + t``, ``t`` least."""
        return self._least.get((b, t)) or self._lead(b, t)

    def prepend(self, head: tuple, tail: tuple) -> tuple:
        """The least member of the class of ``head + tail``, ``tail`` least."""
        get = self._least.get
        for b in reversed(head):
            tail = get((b, tail)) or self._lead(b, tail)
        return tail

    def fronts(self, s: tuple) -> tuple:
        """The fronts of the class of the least key ``s``, sorted.

        ``s`` may have been closed in a memo since replaced (callers keep
        least keys across calls); its class is then closed again.
        """
        if len(s) < 2:
            return ((s[0], ()),) if s else ()
        try:
            return self._fronts[s]
        except KeyError:
            return self._fronts[self.least(s)]

    def _lead(self, b: int, t: tuple) -> tuple:
        """The least member of the class of ``(b,) + t``, ``t`` least.

        When ``b`` moves past no front of ``t``, the class has the one front
        (b, t) and its least member is ``(b,) + t``; it is recorded in place,
        as ``_closing`` would record it, with the same work charged once.
        Otherwise closing the class needs the least members of classes one
        layer shorter.  Those are closed first, on an explicit stack rather
        than by recursion: a chain of them can be as long as the key.
        """
        fronts = self._fronts.get(t) or self.fronts(t)
        after = self._moved.get(b) or self._moved.setdefault(b, {})
        for c, _ in fronts:
            moves = after.get(c)
            if moves is None:
                moves = after[c] = self.moves(b, c)
            if moves:
                break
        else:
            self._work += len(fronts) * len(t)
            if self._work > _WORK_CAP:
                raise _too_large(self.moves)
            node = (b, t)
            hit = (b,) + t
            hit = self._least.setdefault(hit, hit)
            self._least[node] = hit
            self._fronts.setdefault(hit, (node,))
            return hit
        stack = [self._closing((b, t))]
        while stack:
            need = next(stack[-1], None)
            if need is None:
                stack.pop()
            else:
                stack.append(self._closing(need))
        return self._least[b, t]

    def _closing(self, start: tuple):
        """Close the fronts reachable from the node ``start`` and memoise.

        A node (x, s) stands for every member ``(x,) + s'`` with ``s'`` in
        the class of ``s``.  Moving ``x`` and the first layer ``c`` of such
        an ``s'``, one front (c, u) of ``s``, to ``c', x'`` leads to the
        node (c', least((x',) + u)).  Yields each pair ``(x', u)`` whose
        least member is not yet known, and resumes once it is.
        """
        least = self._least
        known = self._fronts
        moved = self._moved
        nodes = [start]
        seen = None
        for x, s in nodes:
            fronts = known.get(s) or self.fronts(s)
            self._work += len(fronts) * len(s)
            if self._work > _WORK_CAP:
                raise _too_large(self.moves)
            after = moved.get(x) or moved.setdefault(x, {})
            for c, u in fronts:
                moves = after.get(c)
                if moves is None:
                    moves = after[c] = self.moves(x, c)
                for c2, x2 in moves:
                    if u:
                        pair = (x2, u)
                        rest = least.get(pair)
                        if rest is None:
                            yield pair
                            rest = least[pair]
                        node = (c2, rest)
                    else:
                        node = (c2, (x2,))
                    if seen is None:
                        seen = {start}
                    if node not in seen:
                        seen.add(node)
                        nodes.append(node)
        nodes.sort()
        first, rest = nodes[0]
        hit = (first,) + rest
        hit = least.setdefault(hit, hit)
        # every front (c, u) of the class is a pair whose least member is hit
        for node in nodes:
            least[node] = hit
        self._fronts.setdefault(hit, tuple(nodes))


# the memo all canonicalisations and rule matches share, one dict: under
# each move function ``moves`` met, the (fronts, least, moved, tables) of
# its classes; replaced by an empty one once one move set's ``least`` holds
# _MEMO_CAP pairs (a call in progress keeps its own).  Every rewrite result
# is closed in it, so a replacement mid-search makes the search close its
# states again.  Rewrite's entries hold least keys only, shared with
# ``least``, one table per build function in each move set's tables, and
# the swaps and matches of each layer pair met, so that the keys built
# from one result share its packed layers.  Searches read the pair results
# under the swaps, and mode-C normal forms contract at the triangle results
# under the slides; a returned step is found by following its result down
# them.  ``canonical``, ``rewrite.apply`` and
# ``rewrite.normal_form`` share one ``Term`` per class (``_class_term``),
# and every ``Term`` built from packed layers one ``Slice`` per (packed
# layer, input width), read from the memo directly (``term_from_packed``).
# At this cap the word-problem explores of the zig-zag and its mirror run
# without a replacement, TriangleA's with one.
_MEMO_CAP = 49152
_memo: dict = {}


def _front_graph(moves=_swaps) -> _FrontGraph:
    """The view of the memo for the classes under ``moves``."""
    global _memo
    try:
        fronts, least, moved, tables = _memo[moves]
    except KeyError:
        fronts, least, moved, tables = _memo[moves] = ({}, {}, {}, {})
    if len(least) > _MEMO_CAP:
        _memo = {}
        fronts, least, moved, tables = _memo[moves] = ({}, {}, {}, {})
    return _FrontGraph(fronts, least, moved, tables, _memo, moves)


def _canonical_key(key: tuple) -> tuple:
    """The least member of the class of the packed layers ``key``."""
    return _front_graph().least(key)


def _class_term(source: int, key: tuple, given: Term | None = None) -> Term:
    """The one ``Term`` of the class of the packed layers ``key`` on ``source``.

    The memo keeps it under ``(source, least key)`` for each least key of
    two or more layers, built on a miss: the term is ``given`` when its
    layers ``key`` are already least, and is built otherwise.  Such a least
    key is a key of the memo's ``least``, so the table holds one term per
    source for each of them and is dropped with ``least`` at ``_MEMO_CAP``.
    A key of at most one layer is its own least member and is not kept.
    """
    graph = _front_graph()
    least = graph.least(key)
    if len(least) < 2:
        return given if given is not None else term_from_packed(source, least)
    table = graph.shared(_class_term)
    term = table.get((source, least))
    if term is None:
        if given is None or key != least:
            given = term_from_packed(source, least)
        term = table[source, least] = given
    return term


def first_kinds(t: Term) -> frozenset:
    """The kinds of the slices that members of the interchange class of ``t`` start with."""
    graph = _front_graph()
    fronts = graph.fronts(graph.least(packed_layers(t)))
    return frozenset(_KINDS[a >> KIND_SHIFT & 1] for a, _ in fronts)


def canonical(t: Term) -> Term:
    """Normal form modulo the sliding law: the least representative.

    The interchange class of a term is finite (the slice orderings of one
    diagram); ``canonical`` returns its least member in the lexicographic
    order on (offset, kind, m, n) layer sequences, so the result depends
    only on the class and is idempotent.  It runs on packed layers and
    raises :class:`LayerOutOfRange` for a slice past their fields.

    The class is not listed.  Its *fronts* are the pairs (first layer,
    least suffix) over its members, and its least member is the least
    ``(a,) + s`` among them.  The fronts of the class of ``(b,) + t`` are
    the nodes reachable from (b, least(t)): a node (x, s) leads, for each
    front (c, u) of ``s`` and each legal swap of ``x, c`` into ``c', x'``,
    to the node (c', least((x',) + u)).  Least suffixes come from the same
    recursion one layer shorter, and are memoised with their fronts.  This
    is exact, and needs no cancellation property of the sliding law.

    Bubbling to the front, position by position, the least slice that can
    get there is not exact.  A block of zero width (the source of
    ``eta(0, n)``, the target of ``eps(0, n)``) at the edge of another
    block can pass it on either side, so one first layer can be followed
    by several suffix classes, and the route a greedy takes need not lead
    to the least of them (a closed component does this in
    ``tests/test_terms.py``).

    The work grows with the number of suffix classes met, which can grow
    exponentially with the number of independent slices; past
    ``_WORK_CAP`` in one call this raises :class:`MonocatError`.

    Results are shared per class: every member of a class gives the
    identical object until the memo is replaced, and ``t`` itself comes
    back when it is already least and its class is not yet kept (see
    ``_class_term``).
    """
    return _class_term(t.source, packed_layers(t), t)


# -- rendering ---------------------------------------------------------------


def render(t: Term) -> str:
    """Textual form in the expression grammar; re-parses to the same term."""
    if not t.slices:
        return f"id({t.source})"
    parts = []
    multi = len(t.slices) > 1
    for s in t.slices:
        atoms = []
        if s.left:
            atoms.append(f"id({s.left})")
        atoms.append(str(s.gen))
        if s.right:
            atoms.append(f"id({s.right})")
        text = " * ".join(atoms)
        if multi and len(atoms) > 1:
            text = f"({text})"
        parts.append(text)
    return " ; ".join(parts)
