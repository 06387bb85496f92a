"""Exact matrix semantics for slice terms.

A configuration is a dimension ``d`` and an invertible d x d matrix ``B``
over an exact field, read as the bilinear pairing of a self-duality:
``pair(v, w) = v^T B w``.  The insertion generator ``eta(m, n)`` maps to
``id ⊗ cup_n`` and the deletion generator ``eps(m, n)`` to ``id ⊗ cap_n``,
where ``cup_1`` is the column vector of the inverse pairing matrix and
``cap_1`` the row vector of the pairing matrix, and the n-fold versions
are defined by nesting::

    cup_n = (id ⊗ cup_{n-1} ⊗ id) . cup_1        cap_n = cap_1 . (id ⊗ cap_{n-1} ⊗ id)

With ``C = B^{-1}`` both zig-zag composites collapse to ``C B = B C = id``
for arbitrary invertible ``B``, and nesting preserves this, so every
sliding and triangle relation maps to a matrix identity.  Evaluation is
therefore constant on rewrite classes, which makes it a separating
invariant and a soundness oracle for the rewrite engine.  Unrolled, the
nesting gives each core in closed form: entry ``(i_1..i_n, j_n..j_1)``
of ``cup_n`` is ``C[i_1, j_1] * ... * C[i_n, j_n]``, and ``cap_n`` the
same with ``B``.

Scalars are arbitrary-precision rationals by default, or integers modulo
a configured prime.  No floating point is used anywhere.  Each core is
built once per configuration and block size, and evaluation takes one of
three exact scalar routes:

- over the rationals, int64 arrays when every core is integral and no
  intermediate of the term can overflow;
- over a prime field, int64 arrays of residues modulo p, reduced after
  each slice, when ``(p-1)**2`` times each core's size stays below the
  overflow bound;
- arrays of field elements otherwise.

A wire that no core has touched yet is not an axis of the contraction
state but an implicit identity from its source wire.  A cup multiplies in
only its own core; a cap sums only over the wires that some core made,
and the untouched wires it closes become input axes with no sum.  So the
state covers only the wires that cores made or closed, and each slice is
one matrix product with its core, in order.  Wires that pass straight
through a term are put back at the end as one identity; a batch of terms
with one source and target leaves out the wires that pass straight
through all of them and expands the rest, so their images compare entry
by entry.  Evaluation reads the slices of each ``Term`` directly.
Matrices are immutable; functions are pure apart from the
per-configuration core cache.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from pathlib import Path

import numpy as np

from .terms import _ETA, GenKind, MonocatError, Term, first_kinds, upside_down


class TooLarge(MonocatError):
    """Evaluation refused: a width exceeds the entry guard, or the state does not fit in memory."""


# -- scalars ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ModP:
    """An integer modulo a fixed prime, with field arithmetic."""

    v: int
    p: int

    def _lift(self, other) -> "ModP":
        if isinstance(other, ModP):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return ModP(other % self.p, self.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else ModP((self.v + o.v) % self.p, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else ModP((self.v - o.v) % self.p, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else ModP((o.v - self.v) % self.p, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else ModP((self.v * o.v) % self.p, self.p)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if self.v == 0:
                raise ZeroDivisionError("inverse of zero")
            return ModP(pow(self.v, -1, self.p), self.p) ** (-k)
        return ModP(pow(self.v, k, self.p), self.p)

    def __neg__(self):
        return ModP(-self.v % self.p, self.p)

    def __bool__(self) -> bool:
        return self.v != 0

    def __str__(self) -> str:
        return str(self.v)


class RationalField:
    """Arbitrary-precision rationals."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, text: str) -> Fraction:
        return Fraction(text.strip())

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "RationalField()"


# Miller–Rabin on these bases decides primality exactly below 3.3 * 10**24
_PRIME_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; above 3.3 * 10**24 a strong probable-prime test."""
    if n < 2:
        return False
    for a in _PRIME_WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Integers modulo a prime, for faster exact runs."""

    def __init__(self, p: int = 1_000_003):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = ModP(0, p)
        self.one = ModP(1, p)

    def from_int(self, k: int) -> ModP:
        return ModP(k % self.p, self.p)

    def from_fraction(self, q: Fraction) -> ModP:
        if q.denominator % self.p == 0:
            raise ValueError(f"{q} has no image mod {self.p}: the denominator is divisible by it")
        return self.from_int(q.numerator) * self.from_int(q.denominator) ** -1

    def parse(self, text: str) -> ModP:
        return self.from_fraction(Fraction(text.strip()))

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("F", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


RATIONALS = RationalField()


def field_of(spec) -> RationalField | PrimeField:
    """The field named by ``q``, ``p`` (the default prime) or ``p:PRIME``."""
    if spec == "q":
        return RATIONALS
    if spec == "p":
        return PrimeField()
    digits = spec[2:] if isinstance(spec, str) and spec.startswith("p:") else ""
    if digits.isascii() and digits.isdigit():
        return PrimeField(int(digits))
    raise ValueError(f"unknown field spec {spec!r} (use q, p, or p:PRIME)")


# -- matrices -----------------------------------------------------------------


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix with exact entries, row-major."""

    rows: int
    cols: int
    entries: tuple
    field: RationalField | PrimeField = RATIONALS

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows, field=RATIONALS) -> "Mat":
        """Rows of ints or field elements; over a prime field, Fractions are lifted too."""

        def lift(x):
            if isinstance(x, int):
                return field.from_int(x)
            if isinstance(x, Fraction) and isinstance(field, PrimeField):
                return field.from_fraction(x)
            return x

        ent = tuple(tuple(lift(x) for x in r) for r in rows)
        return Mat(len(ent), len(ent[0]) if ent else 0, ent, field)

    @staticmethod
    def identity(n: int, field=RATIONALS) -> "Mat":
        return Mat(
            n,
            n,
            tuple(
                tuple(field.one if i == j else field.zero for j in range(n))
                for i in range(n)
            ),
            field,
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        zero = self.field.zero
        ent = tuple(
            tuple(
                sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), zero)
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return Mat(self.rows, other.cols, ent, self.field)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    ent = tuple(
        tuple(
            a.entries[i][j] * b.entries[k][l]
            for j in range(a.cols)
            for l in range(b.cols)
        )
        for i in range(a.rows)
        for k in range(b.rows)
    )
    return Mat(a.rows * b.rows, a.cols * b.cols, ent, a.field)


def _lift_rows(a: Mat) -> list:
    """Rows with any plain-int entries lifted into the field (exact division)."""
    lift = a.field.from_int
    return [[lift(x) if isinstance(x, int) else x for x in row] for row in a.entries]


def _gauss_jordan(rows: list, ncols: int, zero) -> int:
    """Reduce ``rows`` in place on their first ``ncols`` columns; returns the pivot count."""
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col] ** -1
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != zero:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def rank(a: Mat) -> int:
    """Rank by exact Gauss–Jordan elimination."""
    return _gauss_jordan(_lift_rows(a), a.cols, a.field.zero)


def inverse(a: Mat) -> Mat:
    """Exact inverse by eliminating ``[A | I]``; raises ValueError on a singular or non-square input."""
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    zero, one = a.field.zero, a.field.one
    rows = [row + [one if i == j else zero for j in range(n)] for i, row in enumerate(_lift_rows(a))]
    if _gauss_jordan(rows, n, zero) < n:
        raise ValueError("matrix is singular")
    return Mat(n, n, tuple(tuple(row[n:]) for row in rows), a.field)


def is_invertible(a: Mat) -> bool:
    return a.rows == a.cols and rank(a) == a.rows


# -- functor configuration ----------------------------------------------------

# elementary row operations behind each random pairing matrix
_PAIRING_MOVES = 12


@dataclass(frozen=True)
class FunctorSpec:
    """Dimension and pairing matrix defining one matrix semantics."""

    d: int
    phi: Mat

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.phi.shape != (self.d, self.d):
            raise ValueError(f"pairing matrix must be {self.d} x {self.d}")
        if not is_invertible(self.phi):
            raise ValueError("pairing matrix must be invertible")

    @property
    def field(self):
        return self.phi.field

    @cached_property
    def phi_inv(self) -> Mat:
        return inverse(self.phi)

    @cached_property
    def _cores(self) -> dict:
        """Cup/cap cores by ``(kind_value, n)``; see :func:`_core`."""
        return {}

    @classmethod
    def identity(cls, d: int, field=RATIONALS) -> "FunctorSpec":
        return cls(d, Mat.identity(d, field))

    @classmethod
    def random(cls, d: int, seed: int, field=RATIONALS) -> "FunctorSpec":
        """Random integer pairing matrix with unit determinant, per seed.

        Built from random elementary row operations, so the inverse pairing
        is integral as well; this keeps evaluation in integer arithmetic.
        """
        rng = random.Random(seed)
        rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        if d == 1:
            rows[0][0] = rng.choice((1, -1))
        for _ in range(_PAIRING_MOVES if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            f = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            if rng.random() < 0.3:
                rows[i] = [-a for a in rows[i]]
        return cls(d, Mat.from_rows(rows, field))

    @classmethod
    def from_file(cls, path: str | Path, field=RATIONALS) -> "FunctorSpec":
        """Plain-text format: first line d, then d rows of d rationals."""
        tokens = Path(path).read_text().split()
        if not tokens:
            raise ValueError(f"{path}: empty pairing matrix file")
        try:
            d = int(tokens[0])
        except ValueError:
            d = 0
        if d < 1:
            raise ValueError(f"{path}: dimension {tokens[0]!r} must be a positive integer")
        need = d * d
        body = tokens[1:]
        if len(body) != need:
            raise ValueError(f"{path}: expected {need} entries for d={d}, got {len(body)}")
        entries = []
        for k, text in enumerate(body):
            where = f"{path}: entry ({k // d + 1},{k % d + 1}) {text!r}"
            try:
                entries.append(field.parse(text))
            except ZeroDivisionError:
                raise ValueError(f"{where} has a zero denominator") from None
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        rows = tuple(tuple(entries[i * d : i * d + d]) for i in range(d))
        return cls(d, Mat(d, d, rows, field))


# no int64 intermediate of the contraction may reach this
_INT64_BOUND = 2**62
# entries cached per spec (1 MiB as int64); a core that does not fit is rebuilt on each use
_CORE_CACHE_ENTRIES = 2**17


def _nested_core(m: np.ndarray, n: int, one, p: int | None = None) -> np.ndarray:
    """Flat entries of the n-fold nested cup/cap core built from the d x d array ``m``.

    Entry ``(i_1..i_n, j_n..j_1)`` is ``m[i_1, j_1] * ... * m[i_n, j_n]``:
    each level wraps the inner block in one more outer index pair.  For
    n = 0 the core is ``[one]``.  Given ``p``, each level is reduced mod p.
    """
    flat = np.array([one], dtype=m.dtype)
    for _ in range(n):
        flat = (m[:, None, :] * flat[None, :, None]).ravel()
        if p is not None:
            flat %= p
    return flat


@dataclass(frozen=True, slots=True)
class _Core:
    """Flat entries of one cup/cap core.

    ``array`` is int64 with ``peak`` its largest magnitude when the core is
    integral and fits (over a prime field: residues in ``[0, p)``, and only
    when ``(p-1)**2 * size`` stays below ``_INT64_BOUND``); otherwise it holds
    field elements and ``peak`` is None.
    """

    array: np.ndarray
    peak: int | None

    def __post_init__(self) -> None:
        self.array.flags.writeable = False  # shared by every evaluation on the spec


def _core(spec: FunctorSpec, kv: str, n: int) -> _Core:
    """The core of kind value ``kv`` ("eta" or "eps") for an n-wide block.

    Cached on ``spec`` within the entry budget.
    """
    cache = spec._cores
    core = cache.get((kv, n))
    if core is None:
        core = _build_core(spec, kv, n)
        if sum(c.array.size for c in cache.values()) + core.array.size <= _CORE_CACHE_ENTRIES:
            cache[(kv, n)] = core
    return core


def _build_core(spec: FunctorSpec, kv: str, n: int) -> _Core:
    rows = _lift_rows(spec.phi_inv if kv == "eta" else spec.phi)
    field = spec.field
    if isinstance(field, PrimeField):
        if (field.p - 1) ** 2 * spec.d ** (2 * n) < _INT64_BOUND:
            residues = np.array([[x.v for x in row] for row in rows], dtype=np.int64)
            return _Core(_nested_core(residues, n, 1, field.p), field.p - 1)
    elif all(x.denominator == 1 for row in rows for x in row):
        peak = max(abs(x) for row in rows for x in row) ** n
        if peak < _INT64_BOUND:
            ints = np.array([[int(x) for x in row] for row in rows], dtype=np.int64)
            return _Core(_nested_core(ints, n, 1), int(peak))
    return _Core(_nested_core(np.array(rows, dtype=object), n, field.one), None)


def _elements(core: _Core, field) -> np.ndarray:
    """The entries of ``core`` as field elements."""
    if core.peak is None:
        return core.array
    return np.array([field.from_int(x) for x in core.array.tolist()], dtype=object)


def coev_mat(spec: FunctorSpec, n: int) -> Mat:
    """Cup for an n-wide block: a d^(2n) x 1 column; n = 0 is the 1 x 1 identity."""
    flat = _elements(_core(spec, "eta", n), spec.field).tolist()
    return Mat(len(flat), 1, tuple((x,) for x in flat), spec.field)


def ev_mat(spec: FunctorSpec, n: int) -> Mat:
    """Cap for an n-wide block: a 1 x d^(2n) row; n = 0 is the 1 x 1 identity."""
    flat = _elements(_core(spec, "eps", n), spec.field).tolist()
    return Mat(1, len(flat), (tuple(flat),), spec.field)


# -- term evaluation ----------------------------------------------------------

MAX_DIM_DEFAULT = 2**20


def eval_term(spec: FunctorSpec, t: Term, max_dim: int = MAX_DIM_DEFAULT) -> Mat:
    """Image of a term: a d^target x d^source matrix.

    The term is contracted with every untouched wire an implicit identity
    (see :func:`_plan`), so only the cores of its slices and the
    wires they made or closed are ever materialised.  The wires that pass
    straight through the term are put back at the end as identities
    between their source and target positions, which generalises
    ``id ⊗ A ⊗ id``; a slice-free term is its identity.  Each core is
    built once per spec.  There are three scalar routes, all exact: over
    the rationals with integer cores and a magnitude bound below 2**62,
    int64 arrays, and entries come back as ``int``; over a prime field
    whose cores pass the overflow bound, int64 arrays reduced mod p after
    each slice, and entries come back as ``ModP``; otherwise arrays of
    field elements.  ``max_dim`` must be at least 1.
    """
    if max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    (plan,), _ = _plans((t,), spec.d, max_dim)
    (state,) = _contract(spec, [plan])
    state = _expand(spec, state, plan, set())
    if state.dtype != object and isinstance(spec.field, PrimeField):
        p = spec.field.p
        ent = tuple(tuple(ModP(x, p) for x in row) for row in state.tolist())
    else:
        ent = tuple(tuple(row) for row in state.tolist())
    return Mat(state.shape[0], state.shape[1], ent, spec.field)


# Below, terms are read slice by slice from ``Term.slices``.  A slice's core
# is found under its key ``(kind.value, n)``.


def _unallocatable(rows: int, cols: int) -> TooLarge:
    return TooLarge(f"evaluation state of shape {rows} x {cols} does not fit in memory")


def _identity(n: int, dtype, field) -> np.ndarray:
    if dtype != object:
        return np.eye(n, dtype=dtype)
    a = np.full((n, n), field.zero, dtype=object)
    a.flat[:: n + 1] = field.one
    return a


def _too_wide(w: int, d: int, max_dim: int) -> TooLarge:
    return TooLarge(f"width {w} at dimension {d} exceeds {max_dim} entries per side")


# the state before any slice over the integers; no op writes into its input
_ONE = np.ones((), np.int64)
_ONE.flags.writeable = False
# a wire that a core made; every other wire is tagged with the source wire it passes from
_MADE = -1


def _plan(t: Term, d: int, max_dim: int) -> tuple:
    """``(ops, row, closed)``: the contraction of ``t``, and where its wires end.

    The state is an array over the wires that some core made, in row
    order, then over the source wires that some cap closed, in source
    order.  Every other wire is untouched: an implicit identity from its
    source wire, with no axis.  A cup multiplies in only its own core.  A
    cap sums only over the made wires it closes, and the untouched ones
    it closes become closed source wires, with no sum.  ``row`` tags each
    target wire with ``_MADE`` or its source wire, and ``closed`` lists
    the closed source wires.  The plan determines the image, and it is
    hashable, so terms with one plan are contracted once.

    Each op ``(key, x, m, core_axes, moves, rows, cols)`` is one matrix
    product: the core ``key``, as a matrix from the ``m`` entries of the
    made wires it closes to those of the wires it opens, times the state
    as ``x`` blocks of ``m`` rows; see :func:`_cap_axes` for the two axis
    tuples.  ``rows`` and ``cols`` count the made and closed wires after
    it.  A width past ``max_dim`` entries per side raises
    :class:`TooLarge`, the source first.
    """
    row, closed, ops = list(range(t.source)), [], []
    made = 0  # wires of ``row`` tagged _MADE
    if d**t.source > max_dim:
        raise _too_wide(t.source, d, max_dim)
    for s in t.slices:
        g = s.gen
        p, k = s.left + g.m, 2 * g.n
        before = row[:p].count(_MADE) if made else 0
        core_axes = moves = None
        if g.kind is _ETA:
            row[p:p] = [_MADE] * k
            made += k
            key, x, m = ("eta", g.n), d**before, 1
        else:
            key = ("eps", g.n)
            span = row[p : p + k]
            del row[p : p + k]
            summed = span.count(_MADE)
            made -= summed
            x, m = d**before, d**summed
            if not summed and span[-1] - span[0] == k - 1:
                # one block of source wires opens in its place among the closed ones
                at = bisect_left(closed, span[0])
                x = d ** (made + at)
                closed[at:at] = span
            elif summed < k:
                core_axes, moves = _cap_axes(tuple(span), before, made - before, tuple(closed), d)
                closed = sorted(closed + [j for j in span if j != _MADE])
        if d ** len(row) > max_dim:
            raise _too_wide(len(row), d, max_dim)
        ops.append((key, x, m, core_axes, moves, made, len(closed)))
    return tuple(ops), tuple(row), tuple(closed)


@lru_cache(maxsize=1024)
def _cap_axes(span: tuple, before: int, after: int, closed: tuple, d: int) -> tuple:
    """``(core_axes, moves)`` for a cap over made and untouched wires.

    The cap's wires split into runs, each of made wires or of consecutive
    source wires.  Its made wires are contiguous in the state, so the
    product sums over them with the core reshaped to ``core_axes[0]``
    (one axis per run) and transposed by ``core_axes[1]`` (source runs
    first).  The product leaves the source runs right after the
    ``before`` made wires; ``moves`` is the shape and transpose that put
    them after the ``after`` made wires and in source order among the
    closed wires, or None if they are in place.  Axes of one entry are
    left out.  Terms of one hom-set meet the same few patterns, so the
    axes are cached.
    """
    runs: list = []  # [first source wire or _MADE, length]
    prev = None
    for j in span:
        if j == prev == _MADE or _MADE != prev == j - 1:
            runs[-1][1] += 1
        else:
            runs.append([j, 1])
        prev = j
    opened = [q for q, (first, _) in enumerate(runs) if first != _MADE]
    summed = [q for q, (first, _) in enumerate(runs) if first == _MADE]
    core_axes = (tuple(d**n for _, n in runs), tuple(opened + summed))
    # after the product: before, the opened runs, after, then the closed wires
    # between the places of the opened runs
    wires = [before] + [runs[q][1] for q in opened] + [after]
    i = 0
    for q in opened:
        end = bisect_left(closed, runs[q][0], i)
        wires.append(end - i)
        i = end
    wires.append(len(closed) - i)
    n = len(opened)
    order = [0, n + 1, n + 2]
    for q in range(n):
        order += [1 + q, n + 3 + q]
    kept = [a for a in range(len(wires)) if d ** wires[a] > 1]
    if [a for a in order if d ** wires[a] > 1] == kept:
        return core_axes, None
    place = {a: i for i, a in enumerate(kept)}
    return core_axes, (tuple(d ** wires[a] for a in kept), tuple(place[a] for a in order if a in place))


def _plans(terms, d: int, max_dim: int) -> tuple[list, list]:
    """The distinct plans of ``terms`` at dimension ``d``, and the place of each term's."""
    places: dict = {}
    slots = [places.setdefault(_plan(t, d, max_dim), len(places)) for t in terms]
    return list(places), slots


def _contract(spec: FunctorSpec, plans: list) -> list:
    """The state of each plan under ``spec``.

    Each plan is contracted slice by slice as :func:`_plan` lays it out, so
    a wire that no core touches is never built.  All states come back in
    one scalar representation, so they compare entry by entry: int64
    (residues mod p over a prime field) or field elements.
    """
    d = spec.d
    cores = {key: _core(spec, *key) for key in {op[0] for ops, _, _ in plans for op in ops}}
    field = spec.field
    modulus = field.p if isinstance(field, PrimeField) else None
    integral = all(c.peak is not None for c in cores.values())
    if integral and modulus is None:
        integral = all(_growth(ops, cores) < _INT64_BOUND for ops, _, _ in plans)
    if integral:
        arrays, one = {key: c.array for key, c in cores.items()}, _ONE
    else:
        arrays = {key: _elements(c, field) for key, c in cores.items()}
        modulus, one = None, np.full((), field.one, dtype=object)

    matrices: dict = {}  # (key, m, core_axes) -> the core as a matrix from m entries
    states = []
    for ops, _, _ in plans:
        state = one
        for key, x, m, core_axes, moves, rows, cols in ops:
            try:
                mat = matrices.get((key, m, core_axes))
                if mat is None:
                    core = arrays[key]
                    if core_axes:
                        core = core.reshape(core_axes[0]).transpose(core_axes[1])
                    mat = matrices[key, m, core_axes] = core.reshape(-1, m)
                state = mat @ state.reshape(x, m, -1)
                if moves:
                    state = state.reshape(moves[0]).transpose(moves[1])
            except MemoryError:
                raise _unallocatable(d**rows, d**cols) from None
            if modulus is not None:
                state %= modulus
        states.append(state)
    return states


def _expand(spec: FunctorSpec, state: np.ndarray, plan: tuple, omit: set) -> np.ndarray:
    """The matrix of a plan's state over its target and source wires.

    ``omit`` holds the target positions of passed wires to leave out.  The
    other passed wires come back as one identity, which generalises
    ``id ⊗ A ⊗ id``: wires never cross, so the k-th of them on the target
    side passes from the k-th on the source side.  The image's axes are
    its runs of wires, target then source, that lie on the state or on the
    identity alike, and the image is the broadcast product of the two.
    """
    d = spec.d
    _, row, closed = plan
    made = row.count(_MADE)
    passed = len(row) - made - len(omit)
    if not passed:
        return state.reshape(d**made, -1)
    omitted, is_closed = {row[q] for q in omit}, set(closed)
    on_state = [j == _MADE for q, j in enumerate(row) if q not in omit]
    on_state += [j in is_closed for j in range(len(row) - made + len(closed)) if j not in omitted]
    state_shape, eye_shape = [1], [1]  # a leading axis keeps a product at d = 1 an array
    for on, run in groupby(on_state):
        size = d ** len(list(run))
        if size > 1:  # at d = 1 no run needs an axis
            state_shape.append(size if on else 1)
            eye_shape.append(1 if on else size)
    rows, cols = d ** (made + passed), d ** (len(closed) + passed)
    try:
        eye = _identity(d**passed, state.dtype, spec.field)
        return (state.reshape(state_shape) * eye.reshape(eye_shape)).reshape(rows, cols)
    except MemoryError:
        raise _unallocatable(rows, cols) from None


def image_keys(spec, terms) -> list:
    """One hashable key per term of ``terms``, equal exactly when the images are.

    The terms must share source and target, else this raises
    :class:`ValueError`; no terms give no keys.  They are contracted in one
    batch, in one scalar representation.  A wire that passes from one
    source to one target position in every term is an identity factor of
    every image, so it is left out, and the other passed wires are
    expanded (:func:`_expand`); the images then compare entry by entry: a
    key is the bytes of an int64 image, or the tuple of a field-element
    image's entries.  ``spec`` may also be a sequence of specs of one
    dimension: the terms are then planned once, and a key is the tuple of
    the keys under each spec.  The first term wider than
    :func:`eval_term`'s default guard allows raises :class:`TooLarge`.
    """
    specs = (spec,) if isinstance(spec, FunctorSpec) else tuple(spec)
    d = specs[0].d
    if any(s.d != d for s in specs):
        raise ValueError("image keys under specs of different dimensions")
    terms = tuple(terms)
    if len({(t.source, t.target) for t in terms}) > 1:
        raise ValueError("image keys of terms with different shapes")
    if not terms:
        return []
    plans, slots = _plans(terms, d, MAX_DIM_DEFAULT)
    tags = zip(*(row for _, row, _ in plans))  # per target position, its tag in each plan
    common = {q for q, at in enumerate(tags) if at[0] != _MADE and at.count(at[0]) == len(at)}
    per_spec = []
    for s in specs:
        images = [_expand(s, state, plan, common) for plan, state in zip(plans, _contract(s, plans))]
        if images[0].dtype == object:
            per_spec.append([tuple(a.flat) for a in images])
        else:
            per_spec.append([a.tobytes() for a in images])
    keys = per_spec[0] if isinstance(spec, FunctorSpec) else list(zip(*per_spec))
    return [keys[i] for i in slots]


def _growth(ops: list, cores: dict) -> int:
    """Bound on the entries of a term's state over the rationals.

    A cup multiplies the largest magnitude by at most its core's peak, a cap
    by its peak times the number of products it sums.  A cap that closes
    untouched wires sums fewer products than its core has entries, so the
    bound is conservative there.
    """
    bound = 1
    for key, *_ in ops:
        c = cores[key]
        bound *= c.peak if key[0] == "eta" else c.peak * c.array.size
    return bound


def check_rule_instance(spec: FunctorSpec, lhs: Term, rhs: Term) -> bool:
    """Exact equality of the two images; shapes must agree.

    The two sides are compared by :func:`image_keys`, which raises
    :class:`ValueError` when the shapes differ: the wires that pass
    straight through both are left out, and the rest compare entry by
    entry in one scalar representation, so a slice-free side compares
    with the other in the same form.
    """
    a, b = image_keys(spec, (lhs, rhs))
    return a == b


# -- isomorphism obstructions -------------------------------------------------


@dataclass(frozen=True)
class IsoVerdict:
    status: str  # "not_iso" | "inconclusive"
    reason: str | None = None

    @property
    def not_iso(self) -> bool:
        return self.status == "not_iso"


def has_leading_deletion(t: Term) -> bool:
    """Does the arrow factor as a padded deletion followed by something?"""
    return GenKind.EPS in first_kinds(t)


def has_trailing_insertion(t: Term) -> bool:
    """Does the arrow factor as something followed by a padded insertion?

    Read upside down (slices reversed, ``eta`` and ``eps`` swapped, offsets
    kept), a trailing insertion is a leading deletion.
    """
    return has_leading_deletion(upside_down(t))


def iso_obstruction(spec: FunctorSpec, t: Term) -> IsoVerdict:
    """Certify non-invertibility where the matrix semantics can see it.

    Arrows between distinct widths are never isomorphisms (the image
    spaces have different dimensions once d >= 2).  An arrow that factors
    through a deletion at the start loses rank (kernel); one that factors
    through an insertion at the end loses rank (cokernel).  Everything
    else is inconclusive.
    """
    if t.source != t.target:
        return IsoVerdict(
            "not_iso", f"non-square: widths {t.source} and {t.target} differ"
        )
    if has_leading_deletion(t) or has_trailing_insertion(t):
        full = spec.d**t.source
        r = rank(eval_term(spec, t))
        if r < full:
            return IsoVerdict("not_iso", f"rank {r} < {full}")
    return IsoVerdict("inconclusive")
