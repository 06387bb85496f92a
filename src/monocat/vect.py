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
invariant and a soundness oracle for the rewrite engine.

Scalars are arbitrary-precision rationals by default, or integers modulo
a configured prime.  No floating point is used anywhere.  Matrices are
immutable; all functions are pure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .terms import GenKind, MonocatError, Term, _class_layer_keys, layer_key


class TooLarge(MonocatError):
    """Evaluation refused: some interface width exceeds the entry guard."""


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


class PrimeField:
    """Integers modulo a prime, for faster exact runs."""

    def __init__(self, p: int = 1_000_003):
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        self.p = p
        self.name = f"F{p}"
        self.zero = ModP(0, p)
        self.one = ModP(1, p)

    def from_int(self, k: int) -> ModP:
        return ModP(k % self.p, self.p)

    def parse(self, text: str) -> ModP:
        frac = Fraction(text.strip())
        return self.from_int(frac.numerator) * self.from_int(frac.denominator) ** -1

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("F", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


RATIONALS = RationalField()


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
        ent = tuple(tuple(field.from_int(x) if isinstance(x, int) else x for x in r) for r in rows)
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


def rank(a: Mat) -> int:
    """Rank by exact Gaussian elimination."""
    zero = a.field.zero
    rows = _lift_rows(a)
    r = 0
    for col in range(a.cols):
        pivot = None
        for i in range(r, a.rows):
            if rows[i][col] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col] ** -1
        rows[r] = [x * inv for x in rows[r]]
        for i in range(a.rows):
            if i != r and rows[i][col] != zero:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == a.rows:
            break
    return r


def inverse(a: Mat) -> Mat:
    """Exact inverse; raises ValueError on a singular or non-square input."""
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    zero, one = a.field.zero, a.field.one
    left = _lift_rows(a)
    right = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if left[i][col] != zero:
                pivot = i
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        left[col], left[pivot] = left[pivot], left[col]
        right[col], right[pivot] = right[pivot], right[col]
        inv = left[col][col] ** -1
        left[col] = [x * inv for x in left[col]]
        right[col] = [x * inv for x in right[col]]
        for i in range(n):
            if i != col and left[i][col] != zero:
                f = left[i][col]
                left[i] = [x - f * y for x, y in zip(left[i], left[col])]
                right[i] = [x - f * y for x, y in zip(right[i], right[col])]
    return Mat(n, n, tuple(tuple(r) for r in right), a.field)


def is_invertible(a: Mat) -> bool:
    return a.rows == a.cols and rank(a) == a.rows


# -- functor configuration ----------------------------------------------------


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

    @classmethod
    def identity(cls, d: int, field=RATIONALS) -> "FunctorSpec":
        return cls(d, Mat.identity(d, field))

    @classmethod
    def random(cls, d: int, seed: int, field=RATIONALS, moves: int = 12) -> "FunctorSpec":
        """Random integer pairing matrix with unit determinant, per seed.

        Built from random elementary row operations, so the inverse pairing
        is integral as well; this keeps evaluation in integer arithmetic.
        """
        rng = random.Random(seed)
        rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        if d == 1:
            rows[0][0] = rng.choice((1, -1))
        for _ in range(moves if d > 1 else 0):
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
        d = int(tokens[0])
        need = d * d
        body = tokens[1:]
        if len(body) != need:
            raise ValueError(f"{path}: expected {need} entries for d={d}, got {len(body)}")
        rows = [
            [field.parse(body[i * d + j]) for j in range(d)] for i in range(d)
        ]
        return cls(d, Mat(d, d, tuple(tuple(r) for r in rows), field))


def coev_mat(spec: FunctorSpec, n: int) -> Mat:
    """Cup for an n-wide block: a d^(2n) x 1 column; n = 0 is the 1 x 1 identity."""
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
    inner = coev_mat(spec, n - 1)
    eye = Mat.identity(spec.d, spec.field)
    return kron(kron(eye, inner), eye) @ base


def ev_mat(spec: FunctorSpec, n: int) -> Mat:
    """Cap for an n-wide block: a 1 x d^(2n) row; n = 0 is the 1 x 1 identity."""
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
    inner = ev_mat(spec, n - 1)
    eye = Mat.identity(spec.d, spec.field)
    return base @ kron(kron(eye, inner), eye)


# -- term evaluation ----------------------------------------------------------

MAX_DIM_DEFAULT = 2**20


def _np_identity(n: int, field) -> np.ndarray:
    a = np.full((n, n), field.zero, dtype=object)
    for i in range(n):
        a[i, i] = field.one
    return a


def _integer_cores(spec: FunctorSpec, ns) -> dict | None:
    """Cup/cap cores as plain int lists, or None if any entry is non-integer."""
    cores = {}
    for n in ns:
        for kind, mat in ((GenKind.ETA, coev_mat(spec, n)), (GenKind.EPS, ev_mat(spec, n))):
            flat = [mat.entries[i][j] for i in range(mat.rows) for j in range(mat.cols)]
            ints = []
            for x in flat:
                if isinstance(x, Fraction):
                    if x.denominator != 1:
                        return None
                    ints.append(int(x))
                elif isinstance(x, int):
                    ints.append(x)
                else:
                    return None
            cores[(kind, n)] = ints
    return cores


_INT64_BOUND = 2**62


def eval_term(spec: FunctorSpec, t: Term, max_dim: int = MAX_DIM_DEFAULT) -> Mat:
    """Image of a term: a d^target x d^source matrix.

    Slices are contracted against the accumulated state one at a time;
    only the cup/cap core of each slice is ever materialised, so the
    cost is the state size, not the size of padded slice matrices.
    When every core entry is an integer and a conservative magnitude
    bound stays below 2**62 the contraction runs on int64 arrays;
    otherwise exact scalar objects are used.  Both routes are exact.
    """
    state = _eval_array(spec, t, max_dim)
    ent = tuple(tuple(row) for row in state.tolist())
    return Mat(spec.d**t.target, spec.d**t.source, ent, spec.field)


def _eval_array(spec: FunctorSpec, t: Term, max_dim: int = MAX_DIM_DEFAULT) -> np.ndarray:
    d = spec.d
    for w in t.widths():
        if d**w > max_dim:
            raise TooLarge(f"width {w} at dimension {d} exceeds {max_dim} entries per side")
    cols = d**t.source

    cores = _integer_cores(spec, sorted({s.gen.n for s in t.slices}))
    if cores is not None:
        bound = 1
        for s in t.slices:
            peak = max(abs(x) for x in cores[(s.gen.kind, s.gen.n)])
            factor = peak if s.gen.kind is GenKind.ETA else peak * d ** (2 * s.gen.n)
            bound *= max(factor, 1)
        if bound >= _INT64_BOUND:
            cores = None

    if cores is not None:
        state = np.eye(cols, dtype=np.int64)
        to_arr = lambda kind, n: np.array(cores[(kind, n)], dtype=np.int64)
    else:
        state = _np_identity(cols, spec.field)

        def to_arr(kind, n):
            mat = coev_mat(spec, n) if kind is GenKind.ETA else ev_mat(spec, n)
            flat = [mat.entries[i][j] for i in range(mat.rows) for j in range(mat.cols)]
            return np.array(flat, dtype=object)

    fast = state.dtype != object
    for s in t.slices:
        a_dim = d ** (s.left + s.gen.m)
        r_dim = d**s.right
        core_dim = d ** (2 * s.gen.n)
        core_arr = to_arr(s.gen.kind, s.gen.n)
        if s.gen.kind is GenKind.ETA:
            if fast:
                shaped = state.reshape(a_dim, r_dim * cols)
                state = np.einsum("u,ar->aur", core_arr, shaped).reshape(
                    a_dim * core_dim * r_dim, cols
                )
            else:
                flat = state.reshape(a_dim * r_dim * cols)
                expanded = np.multiply.outer(core_arr, flat).reshape(
                    core_dim, a_dim, r_dim, cols
                )
                state = expanded.transpose(1, 0, 2, 3).reshape(
                    a_dim * core_dim * r_dim, cols
                )
        else:
            shaped = state.reshape(a_dim, core_dim, r_dim * cols)
            if fast:
                state = np.einsum("u,aur->ar", core_arr, shaped).reshape(
                    a_dim * r_dim, cols
                )
            else:
                state = np.tensordot(core_arr, shaped, axes=([0], [1])).reshape(
                    a_dim * r_dim, cols
                )
    return state


def check_rule_instance(spec: FunctorSpec, lhs: Term, rhs: Term) -> bool:
    """Exact equality of the two images; shapes must agree."""
    if lhs.source != rhs.source or lhs.target != rhs.target:
        raise ValueError("rule instance sides have different shapes")
    left = _eval_array(spec, lhs)
    right = _eval_array(spec, rhs)
    if left.dtype == right.dtype and left.dtype != object:
        return bool(np.array_equal(left, right))
    return bool(np.equal(left, right).all())


# -- isomorphism obstructions -------------------------------------------------


@dataclass(frozen=True)
class IsoVerdict:
    status: str  # "not_iso" | "inconclusive"
    reason: str | None = None

    @property
    def not_iso(self) -> bool:
        return self.status == "not_iso"


def _orderings(t: Term):
    return _class_layer_keys(layer_key(t))


def has_leading_deletion(t: Term) -> bool:
    """Does the arrow factor as a padded deletion followed by something?"""
    return any(key and key[0][1] == "eps" for key in _orderings(t))


def has_trailing_insertion(t: Term) -> bool:
    """Does the arrow factor as something followed by a padded insertion?"""
    return any(key and key[-1][1] == "eta" for key in _orderings(t))


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
