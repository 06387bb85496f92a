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

All types are immutable values and all functions are pure, so everything
here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import lru_cache


class MonocatError(Exception):
    """Base class for errors raised by this package."""


class InvalidGenerator(MonocatError):
    """Generator parameters outside the signature (n must be >= 1, m >= 0)."""


class NotComposable(MonocatError):
    """Sequential composition attempted across mismatched widths."""


class GenKind(enum.Enum):
    ETA = "eta"
    EPS = "eps"


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
        return self.m if self.kind is GenKind.ETA else self.m + 2 * self.n

    @property
    def target(self) -> int:
        return self.m + 2 * self.n if self.kind is GenKind.ETA else self.m

    @property
    def delta(self) -> int:
        """Width change: +2n for eta, -2n for eps."""
        return self.target - self.source

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
    existence.
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
        w = self.source
        for s in self.slices:
            w += s.gen.delta
        return w

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


# -- packed keys and interchange machinery ------------------------------------
#
# Inside the engine a slice list is a tuple of *layer keys*
# (offset, kind_value, m, n), the right whisker being recomputed from the
# running width; ``term_key`` adds the source width.  Kind values are the
# strings "eta"/"eps", and every normal form relies on "eps" < "eta".
# Two adjacent layers commute when their active blocks are disjoint at
# the common interface.  A zero-width block strictly inside another block
# does not commute with it (the insertion point is pinned between two
# wires of that block); at either edge it does.


def layer_key(t: Term) -> tuple:
    return tuple((s.left, s.gen.kind.value, s.gen.m, s.gen.n) for s in t.slices)


def term_key(t: Term) -> tuple:
    return (t.source, layer_key(t))


def term_from_layers(source: int, lays: list[tuple[int, Generator]]) -> Term:
    out = []
    w = source
    for off, g in lays:
        right = w - off - g.source
        if right < 0:
            raise ValueError(f"layer ({off}, {g}) does not fit in width {w}")
        out.append(Slice(off, g, right))
        w += g.delta
    return Term(source, tuple(out))


def term_from_key(source: int, key: tuple) -> Term:
    """The term with layer keys ``key``; raises when they do not chain."""
    return term_from_layers(
        source, [(off, Generator(GenKind(kv), m, n)) for off, kv, m, n in key]
    )


_CLASS_CAP = 500_000


def _class_layer_keys(key: tuple) -> set:
    """All slice orderings of the diagram, as layer-key tuples.

    Exhausts adjacent swaps; the swap arithmetic is inlined to avoid
    object churn in hot paths.
    """
    seen = {key}
    queue = deque([key])
    while queue:
        cur = queue.popleft()
        for pos in range(len(cur) - 1):
            ou, ku, mu, nu = cur[pos]
            ov, kv, mv, nv = cur[pos + 1]
            du = 2 * nu if ku == "eta" else -2 * nu
            dv = 2 * nv if kv == "eta" else -2 * nv
            src_v = mv if kv == "eta" else mv + 2 * nv
            tgt_u = mu + 2 * nu if ku == "eta" else mu
            swaps = []
            if ov + src_v <= ou:
                swaps.append(((ov, kv, mv, nv), (ou + dv, ku, mu, nu)))
            if ov >= ou + tgt_u:
                swaps.append(((ov - du, kv, mv, nv), (ou, ku, mu, nu)))
            for pair in swaps:
                new = cur[:pos] + pair + cur[pos + 2 :]
                if new not in seen:
                    if len(seen) >= _CLASS_CAP:
                        raise MonocatError(
                            "interchange class too large to normalise"
                        )
                    seen.add(new)
                    queue.append(new)
    return seen


@lru_cache(maxsize=1 << 18)
def _canonical_key(key: tuple) -> tuple:
    return min(_class_layer_keys(key))


def canonical(t: Term) -> Term:
    """Normal form modulo the sliding law: the least representative.

    The interchange class of a term is finite (slice orderings of one
    diagram); ``canonical`` returns its minimum in the lexicographic
    order on (offset, kind, m, n) layer sequences.  This emits, at every
    position, the leftmost slice that can be slid to the front, and by
    construction the result depends only on the class, so it is identical
    for all interchange-equivalent inputs and idempotent.
    """
    return term_from_key(t.source, _canonical_key(layer_key(t)))


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
