"""Reference computations that share no code with the engine.

A term is handled here as ``(source, layers)`` with each layer a tuple
``(left, kind, m, n)``, ``kind`` being ``"eta"`` or ``"eps"``.  Everything
below is written from the definitions in the README (generator shapes,
the sliding law, the relation equations and the cup/cap semantics), so a
defect in ``monocat`` cannot make its own check pass.

Matrix images are computed modulo a prime: entries of the engine's
answers are mapped into the same field and compared there.  Equal images
always agree; different images agree only by a ~1/p accident.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

# a prime below 2**24: products stay below 2**48, so int64 sums of up to
# 2**15 products cannot overflow
DEFAULT_PRIME = 16_777_213


def source_of(kind: str, m: int, n: int) -> int:
    return m if kind == "eta" else m + 2 * n


def delta_of(kind: str, n: int) -> int:
    return 2 * n if kind == "eta" else -2 * n


def widths(source: int, layers) -> list[int]:
    out = [source]
    for _, kind, _, n in layers:
        out.append(out[-1] + delta_of(kind, n))
    return out


def target(source: int, layers) -> int:
    return widths(source, layers)[-1]


def invariant(layers) -> int:
    """I = #{eta(m,n): n odd, m even} - #{eps(m,n): n odd, m odd}.

    Every sliding rule moves a family's passthrough index by an even
    amount and keeps n; each triangle removes one counted eta together
    with one counted eps.  So I is constant on rewrite classes in both
    modes.
    """
    up = sum(1 for _, k, m, n in layers if k == "eta" and n % 2 and m % 2 == 0)
    down = sum(1 for _, k, m, n in layers if k == "eps" and n % 2 and m % 2)
    return up - down


def kind_n_multiset(layers) -> tuple:
    """Multiset of (kind, n): constant on mode-D classes."""
    return tuple(sorted((k, n) for _, k, _, n in layers))


def render(source: int, layers) -> str:
    """Expression-grammar text for a layer list."""
    if not layers:
        return f"id({source})"
    parts = []
    w = source
    for left, kind, m, n in layers:
        right = w - left - source_of(kind, m, n)
        if right < 0 or left < 0:
            raise ValueError(f"layer {(left, kind, m, n)} does not fit width {w}")
        atoms = [f"id({left})"] if left else []
        atoms.append(f"{kind}({m},{n})")
        if right:
            atoms.append(f"id({right})")
        text = " * ".join(atoms)
        parts.append(f"({text})" if len(layers) > 1 and len(atoms) > 1 else text)
        w += delta_of(kind, n)
    return " ; ".join(parts)


def whiskered(layers, left: int) -> list:
    return [(off + left, k, m, n) for off, k, m, n in layers]


# -- relation instances, from the defining equations --------------------------


def nat_instance(rule: str, i: int, j: int, k: int, l: int, n: int):
    """(source, lhs, rhs) of a sliding relation instance."""
    if rule == "NatEtaEta":
        return (i + j + l,
                [(i, "eta", j, k), (0, "eta", i + j + 2 * k + l, n)],
                [(0, "eta", i + j + l, n), (i, "eta", j, k)])
    if rule == "NatEtaEps":
        return (i + j + 2 * k + l,
                [(i, "eps", j, k), (0, "eta", i + j + l, n)],
                [(0, "eta", i + j + 2 * k + l, n), (i, "eps", j, k)])
    if rule == "NatEpsEta":
        return (i + j + l + 2 * n,
                [(i, "eta", j, k), (0, "eps", i + j + 2 * k + l, n)],
                [(0, "eps", i + j + l, n), (i, "eta", j, k)])
    if rule == "NatEpsEps":
        return (i + j + 2 * k + l + 2 * n,
                [(i, "eps", j, k), (0, "eps", i + j + l, n)],
                [(0, "eps", i + j + 2 * k + l, n), (i, "eps", j, k)])
    raise ValueError(rule)


def triangle_instance(rule: str, i: int, n: int):
    """(source, lhs, rhs) of a triangle instance; rhs is the identity."""
    if rule == "TriangleA":
        return i + n, [(0, "eta", i, n), (0, "eps", i + n, n)], []
    if rule == "TriangleB":
        return i + n, [(0, "eta", i + n, n), (0, "eps", i, n)], []
    raise ValueError(rule)


NAT_RULES = ("NatEtaEta", "NatEtaEps", "NatEpsEta", "NatEpsEps")
TRIANGLE_RULES = ("TriangleA", "TriangleB")


# -- the sliding law ------------------------------------------------------------


def swaps(u, v) -> list:
    """Legal transpositions of adjacent layers (u applied first, then v).

    v's source block lies wholly left of u's block: v keeps its offset and
    u moves by v's width change.  v's source block lies wholly right of
    u's target block: u keeps its offset and v moves back by u's change.
    """
    ou, ku, mu, nu = u
    ov, kv, mv, nv = v
    out = []
    if ov + source_of(kv, mv, nv) <= ou:
        out.append(((ov, kv, mv, nv), (ou + delta_of(kv, nv), ku, mu, nu)))
    if ov >= ou + mu + (2 * nu if ku == "eta" else 0):
        out.append(((ov - delta_of(ku, nu), kv, mv, nv), (ou, ku, mu, nu)))
    return out


def shuffled(layers, rng: random.Random, moves: int) -> list:
    """A random presentation of the same diagram, by legal adjacent swaps."""
    cur = list(layers)
    for _ in range(moves):
        options = []
        for pos in range(len(cur) - 1):
            for pair in swaps(cur[pos], cur[pos + 1]):
                options.append((pos, pair))
        if not options:
            break
        pos, (a, b) = rng.choice(options)
        cur[pos], cur[pos + 1] = a, b
    return cur


def class_size(layers, cap: int) -> int:
    """Number of presentations of the diagram, counted up to ``cap``."""
    start = tuple(layers)
    seen, todo = {start}, [start]
    while todo and len(seen) < cap:
        cur = todo.pop()
        for pos in range(len(cur) - 1):
            for pair in swaps(cur[pos], cur[pos + 1]):
                new = cur[:pos] + pair + cur[pos + 2:]
                if new not in seen:
                    seen.add(new)
                    todo.append(new)
    return min(len(seen), cap)


# -- matrix images modulo a prime ---------------------------------------------


def _inverse_mod(rows, p: int):
    n = len(rows)
    a = [[x % p for x in r] + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [x * inv % p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[col])]
    return [r[n:] for r in a]


def to_mod(x, p: int) -> int:
    """An exact scalar (int, Fraction, or an object with ``v`` and ``p``)."""
    if isinstance(x, (int, np.integer)):
        return int(x) % p
    if isinstance(x, Fraction):
        return x.numerator % p * pow(x.denominator, -1, p) % p
    if getattr(x, "p", None) == p:
        return x.v
    raise TypeError(f"cannot map {x!r} into F{p}")


class Semantics:
    """One pairing matrix B over F_p; cup_1 = B^-1 as a vector, cap_1 = B."""

    def __init__(self, pairing_rows, p: int = DEFAULT_PRIME):
        self.p = p
        self.d = len(pairing_rows)
        self.b = np.array([[to_mod(x, p) for x in r] for r in pairing_rows], dtype=np.int64)
        self.c = np.array(_inverse_mod([list(r) for r in self.b.tolist()], p), dtype=np.int64)
        self._cores: dict = {}

    def core(self, kind: str, n: int) -> np.ndarray:
        """cup_n as a length d^(2n) vector, or cap_n likewise."""
        key = (kind, n)
        if key not in self._cores:
            d, p = self.d, self.p
            base = (self.c if kind == "eta" else self.b).reshape(d * d)
            if n == 1:
                vec = base % p
            else:
                inner = self.core(kind, n - 1).reshape(d ** (2 * n - 2))
                # nested cup: outer pair on wires (0, 2n-1), inner block between
                outer = base.reshape(d, d)
                vec = np.einsum("ab,m->amb", outer, inner).reshape(d ** (2 * n)) % p
            self._cores[key] = vec
        return self._cores[key]

    def apply(self, source: int, layers, state: np.ndarray) -> np.ndarray:
        """Push a (d^source, k) state through the term, slice by slice."""
        d, p = self.d, self.p
        w = source
        k = state.shape[1]
        for left, kind, m, n in layers:
            a = d ** (left + m)
            blk = d ** (2 * n)
            r = d ** (w - left - source_of(kind, m, n))
            core = self.core(kind, n)
            if kind == "eta":
                s = state.reshape(a, 1, r, k) * core.reshape(1, blk, 1, 1)
                state = (s % p).reshape(a * blk * r, k)
            else:
                s = state.reshape(a, blk, r, k)
                state = (np.einsum("abrk,b->ark", s, core) % p).reshape(a * r, k)
            w += delta_of(kind, n)
        return state

    def image(self, source: int, layers) -> np.ndarray:
        """The full d^target x d^source matrix."""
        return self.apply(source, layers, np.eye(self.d**source, dtype=np.int64))

    def columns(self, source: int, k: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(0, self.p, size=(self.d**source, k), dtype=np.int64)

    def fingerprint(self, source: int, layers, seed: int = 7) -> bytes:
        """The image, or for wide sources the image of three fixed random
        columns: equal for equal images, and unequal images collide only
        by a ~1/p accident."""
        if self.d**source <= 64:
            return self.image(source, layers).tobytes()
        return self.apply(source, layers, self.columns(source, 3, seed)).tobytes()


# pairings used by the word-problem and hom-set checks: the identity and a
# fixed unimodular integer matrix, at d = 2
CHECK_PAIRINGS = (((1, 0), (0, 1)), ((2, 1), (1, 1)))
