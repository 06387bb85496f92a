import random
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocat import (
    FunctorSpec,
    Mat,
    ModP,
    PrimeField,
    RATIONALS,
    RuleId,
    TooLarge,
    canonical,
    check_rule_instance,
    coev_mat,
    compose,
    eps,
    eta,
    ev_mat,
    eval_term,
    gen_term,
    identity,
    inverse,
    iso_obstruction,
    kron,
    rank,
    rule_instance,
    rule_instances,
    tensor,
    whisker,
)
from monocat.rewrite import TRIANGLE_RULES, SearchCaps, generate_terms
from monocat.terms import Generator, Slice, Term, term_from_layers
from monocat.vect import (
    _CORE_CACHE_ENTRIES,
    MAX_DIM_DEFAULT,
    _contract,
    _plans,
    field_of,
    image_keys,
    is_invertible,
)
from oracles import (
    dense_eval,
    hom_candidates,
    nested_cap,
    nested_cup,
    random_term,
    slice_options,
    snake,
)


def frac_mat(rows):
    return Mat.from_rows(rows)


class TestKron:
    def test_identities(self):
        assert kron(Mat.identity(2), Mat.identity(2)) == Mat.identity(4)

    def test_row_vectors(self):
        a = frac_mat([[1, 0]])
        b = frac_mat([[0, 1]])
        assert kron(a, b) == frac_mat([[0, 1, 0, 0]])

    def test_index_formula(self):
        rng = random.Random(10)
        for _ in range(20):
            a = frac_mat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            b = frac_mat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            k = kron(a, b)
            for i in range(4):
                for j in range(4):
                    assert k[i, j] == a[i // 2, j // 2] * b[i % 2, j % 2]


class TestRank:
    def test_identity(self):
        assert rank(Mat.identity(4)) == 4

    def test_zero(self):
        assert rank(frac_mat([[0] * 3] * 3)) == 0

    def test_deletion_image(self):
        spec = FunctorSpec.identity(2)
        m = eval_term(spec, gen_term(eps(0, 1)))
        assert (m.rows, m.cols) == (1, 4)
        assert m.entries == ((1, 0, 0, 1),)
        assert rank(m) == 1

    def test_inverse_roundtrip(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            m = frac_mat(rows)
            if not is_invertible(m):
                continue
            assert m @ inverse(m) == Mat.identity(3)


class TestCupsAndCaps:
    def test_base_case_identity_pairing(self):
        spec = FunctorSpec.identity(2)
        assert coev_mat(spec, 1).entries == ((1,), (0,), (0,), (1,))
        assert ev_mat(spec, 1).entries == ((1, 0, 0, 1),)

    def test_zero_block(self):
        spec = FunctorSpec.identity(2)
        assert coev_mat(spec, 0) == Mat.identity(1)
        assert ev_mat(spec, 0) == Mat.identity(1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_closed_form_matches_nesting(self, d):
        # the snake identities hold for parallel cups too; only this pins the nesting
        fractional = [[Fraction(1, 2), 0, 0], [Fraction(1, 3), 2, 0], [1, Fraction(-3, 4), 5]]
        specs = [
            FunctorSpec.identity(d),
            FunctorSpec.random(d, seed=d),
            FunctorSpec.random(d, seed=d, field=PrimeField()),
            FunctorSpec(d, frac_mat([row[:d] for row in fractional[:d]])),
        ]
        for spec in specs:
            for n in range(4):
                assert repr(coev_mat(spec, n).entries) == repr(nested_cup(spec, n).entries)
                assert repr(ev_mat(spec, n).entries) == repr(nested_cap(spec, n).entries)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tower_zigzags(self, seed, n):
        spec = FunctorSpec.random(2, seed=seed)
        d = 2**n
        cup = coev_mat(spec, n)
        cap = ev_mat(spec, n)
        eye = Mat.identity(d)
        left = kron(eye, cap) @ kron(cup, eye)
        right = kron(cap, eye) @ kron(eye, cup)
        assert left == eye
        assert right == eye


class TestEvalTerm:
    def test_zigzag_is_identity(self):
        spec = FunctorSpec.identity(2)
        assert eval_term(spec, snake()) == Mat.identity(2)

    def test_loop_scalar(self):
        spec = FunctorSpec.identity(2)
        loop = compose(gen_term(eta(0, 1)), gen_term(eps(0, 1)))
        assert eval_term(spec, loop).entries == ((2,),)

    def test_identity_terms(self):
        spec = FunctorSpec.identity(2)
        for n in range(4):
            assert eval_term(spec, identity(n)) == Mat.identity(2**n)

    def test_matches_dense_oracle(self):
        rng = random.Random(12)
        specs = [
            FunctorSpec.identity(2),
            FunctorSpec.random(2, seed=13),
            FunctorSpec.random(3, seed=14),
        ]
        for _ in range(30):
            t = random_term(rng, max_source=2, max_len=4, max_width=6)
            for sp in specs:
                assert eval_term(sp, t) == dense_eval(sp, t)

    def test_fractional_pairing_matches_dense_oracle(self):
        # non-integer entries force the exact-object evaluation route
        phi = frac_mat([[Fraction(1, 2), 0], [Fraction(1, 3), Fraction(2)]])
        spec = FunctorSpec(2, phi)
        rng = random.Random(15)
        for _ in range(10):
            t = random_term(rng, max_source=2, max_len=3, max_width=5)
            assert eval_term(spec, t) == dense_eval(spec, t)

    def test_functoriality(self):
        rng = random.Random(16)
        spec = FunctorSpec.random(2, seed=17)
        for _ in range(25):
            f = random_term(rng, max_source=2, max_len=2, max_width=5)
            g_src = f.target
            g = whisker(0, eta(g_src, 1), 0)
            composite = compose(f, g)
            assert eval_term(spec, composite) == eval_term(spec, g) @ eval_term(spec, f)
            h = random_term(rng, max_source=2, max_len=2, max_width=4)
            assert eval_term(spec, tensor(f, h)) == kron(eval_term(spec, f), eval_term(spec, h))

    def test_dimension_one_is_degenerate(self):
        spec = FunctorSpec.identity(1)
        rng = random.Random(18)
        for _ in range(20):
            t = random_term(rng, max_source=3, max_len=4)
            m = eval_term(spec, t)
            assert (m.rows, m.cols) == (1, 1)
            assert m[0, 0] != 0

    def test_width_guard(self):
        spec = FunctorSpec.identity(2)
        with pytest.raises(TooLarge):
            eval_term(spec, identity(8), max_dim=2**7)

    @pytest.mark.parametrize("max_dim, width", [(16, 5), (64, 7)])
    def test_width_guard_names_first_width_past(self, max_dim, width):
        # source width 5 is checked before target width 7
        t = whisker(0, eta(0, 1), 5)
        with pytest.raises(TooLarge, match=f"^width {width} at dimension 2 exceeds {max_dim} entries"):
            eval_term(FunctorSpec.identity(2), t, max_dim=max_dim)

    @pytest.mark.parametrize("max_dim", [0, -1])
    def test_max_dim_below_one_rejected(self, max_dim):
        with pytest.raises(ValueError, match=f"max_dim must be >= 1, got {max_dim}"):
            eval_term(FunctorSpec.identity(2), gen_term(eta(0, 1)), max_dim=max_dim)

    def test_wide_cap_in_closed_form(self):
        # a 2^16 x 2^16 identity state (32 GiB) would not fit; the cap's image is one row
        m = eval_term(FunctorSpec.identity(2), gen_term(eps(0, 8)))
        assert (m.rows, m.cols) == (1, 2**16)
        (row,) = m.entries
        # entry (i_1..i_8, j_8..j_1) pairs i_k with j_k: 1 iff its 16 bits read the same reversed
        ones = [c for c in range(2**16) if f"{c:016b}" == f"{c:016b}"[::-1]]
        assert len(ones) == 256
        assert [c for c, x in enumerate(row) if x] == ones
        assert {type(x) for x in row} == {int} and set(row) == {0, 1}


class TestRuleInstanceChecks:
    def test_insertion_naturality_instance(self):
        lhs, rhs = rule_instance(RuleId.NAT_ETA_ETA, 0, 0, 1, 0, 1)
        assert check_rule_instance(FunctorSpec.identity(2), lhs, rhs)

    def test_triangle_instance(self):
        lhs, rhs = rule_instance(RuleId.TRIANGLE_A, i=0, n=1)
        assert check_rule_instance(FunctorSpec.identity(2), lhs, rhs)

    def test_corrupted_instance_detected(self):
        _, rhs = rule_instance(RuleId.TRIANGLE_A, i=1, n=1)
        # swap the first slice's paddings: the cancelling pair becomes a loop
        bad_lhs = compose(whisker(1, eta(1, 1), 0), gen_term(eps(2, 1)))
        assert bad_lhs.source == rhs.source and bad_lhs.target == rhs.target
        assert not check_rule_instance(FunctorSpec.identity(2), bad_lhs, rhs)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_rule_instance(
                FunctorSpec.identity(2), identity(1), identity(2)
            )


def whiskered(t, a, b):
    return tensor(tensor(identity(a), t), identity(b))


FRACTIONAL_PHI = [[Fraction(1, 2), 0], [Fraction(1, 3), Fraction(2)]]


class TestOuterWires:
    """Untouched outer wires are stripped before contraction and put back after."""

    @pytest.mark.parametrize(
        "spec, entry_type",
        [
            (FunctorSpec.random(2, seed=3), int),
            (FunctorSpec.random(2, seed=3, field=PrimeField()), ModP),
            (FunctorSpec(2, frac_mat(FRACTIONAL_PHI)), Fraction),
            (FunctorSpec.random(2, seed=3, field=PrimeField(2**61 - 1)), ModP),
        ],
        ids=["int64", "prime-field", "fractional", "over-bound-prime"],
    )
    def test_entry_types_on_whiskered_terms(self, spec, entry_type):
        for t in (snake(), gen_term(eps(0, 1)), gen_term(eta(1, 1))):
            m = eval_term(spec, whiskered(t, 1, 2))
            assert {type(x) for row in m.entries for x in row} == {entry_type}

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_stripped_eval_matches_dense_oracle(self, a, b):
        rng = random.Random(40 + 3 * a + b)
        specs = [
            FunctorSpec.identity(2),
            FunctorSpec.random(2, seed=41),
            FunctorSpec(2, frac_mat(FRACTIONAL_PHI)),
            FunctorSpec.random(2, seed=42, field=PrimeField(101)),
        ]
        for _ in range(4):
            inner = random_term(rng, max_source=2, max_len=3, max_width=max(2, 6 - a - b))
            t = whiskered(inner, a, b)
            for sp in specs:
                assert eval_term(sp, t) == dense_eval(sp, t)

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (1, 2)])
    def test_whiskered_rule_checks_agree_with_dense_oracle(self, a, b):
        # pairs across rule instances of one shape give unequal sides, stripped unevenly
        sp = FunctorSpec.random(2, seed=43)
        by_shape = {}
        for _, _, lhs, rhs in rule_instances(n_range=(1,)):
            for t in (whiskered(lhs, a, b), whiskered(rhs, a, b)):
                if max(t.widths()) <= 5:
                    by_shape.setdefault((t.source, t.target), []).append(t)
        dense = {}
        seen = {True: 0, False: 0}
        for terms in by_shape.values():
            for lhs in terms[:6]:
                for rhs in terms[:6]:
                    for t in (lhs, rhs):
                        if t not in dense:
                            dense[t] = dense_eval(sp, t)
                    holds = check_rule_instance(sp, lhs, rhs)
                    assert holds == (dense[lhs] == dense[rhs])
                    seen[holds] += 1
        assert seen[True] and seen[False]

    def test_wide_whiskers_check_without_full_state(self):
        # a d^17 x d^17 identity state would need 128 GiB
        lhs, rhs = rule_instance(RuleId.TRIANGLE_A, i=0, n=1)
        assert rhs == identity(1)
        spec = FunctorSpec.identity(2)
        assert check_rule_instance(spec, whiskered(lhs, 8, 8), whiskered(rhs, 8, 8))

    def test_unallocatable_state_is_too_large(self):
        # width 20 passes the per-side guard, but neither 2^20 x 2^20 image can be
        # allocated while putting the passed wires back
        t = tensor(tensor(gen_term(eps(0, 1)), identity(18)), gen_term(eta(0, 1)))
        for term, shape in ((t, "1048576 x 1048576"), (identity(20), "1048576 x 1048576")):
            with pytest.raises(TooLarge, match=f"^evaluation state of shape {shape} does not"):
                eval_term(FunctorSpec.identity(2), term)


def route_dtype(spec, t):
    plans, _ = _plans((t,), spec.d, MAX_DIM_DEFAULT)
    (state,) = _contract(spec, plans)
    return state.dtype


def prime_spec(p, pairing):
    field = PrimeField(p)
    return FunctorSpec.identity(2, field) if pairing == "identity" else FunctorSpec.random(2, 1, field)


# int64 modulo p for the first two; (p-1)**2 alone passes the int64 bound for the last
MODULI = [7, PrimeField().p, 2**61 - 1]


class TestImageKeys:
    """Batched keys for the terms of one hom-set: equal exactly when the images are."""

    @pytest.mark.parametrize(
        "spec, key_type",
        [
            (FunctorSpec.random(2, seed=11), bytes),
            (FunctorSpec(2, frac_mat(FRACTIONAL_PHI)), tuple),
            (FunctorSpec.random(2, seed=3, field=PrimeField()), bytes),
        ],
        ids=["int64", "fractional", "prime-field"],
    )
    def test_keys_separate_as_images_do(self, spec, key_type):
        terms = generate_terms(1, 1, SearchCaps(3, 6, 1))
        keys = image_keys(spec, terms)
        images = [eval_term(spec, t) for t in terms]
        assert {type(k) for k in keys} == {key_type}
        same = {(i, j) for i in range(len(terms)) for j in range(i) if images[i] == images[j]}
        assert same and len(set(keys)) < len(keys) and len(set(keys)) > 1
        for i in range(len(terms)):
            for j in range(i):
                assert (keys[i] == keys[j]) == ((i, j) in same)

    def test_one_scalar_route_for_the_batch(self):
        # the loops pass the int64 bound, so the whole batch runs on field
        # elements; the snake still keys with the identity
        spec = FunctorSpec.random(3, seed=14)
        loop = compose(gen_term(eta(0, 2)), gen_term(eps(0, 2)))
        loops = tensor(compose(compose(loop, loop), loop), identity(1))
        keys = image_keys(spec, [identity(1), snake(), loops])
        assert all(isinstance(k, tuple) for k in keys)
        assert keys[0] == keys[1] != keys[2]

    def test_empty_batch_has_no_keys(self):
        assert image_keys(FunctorSpec.identity(2), []) == []
        assert image_keys([FunctorSpec.identity(2), FunctorSpec.random(2, seed=11)], ()) == []

    def test_mixed_shapes_are_refused(self):
        # a 4x1 and a 1x4 image with the same entries in the same order
        spec = FunctorSpec.identity(2)
        cup, cap = gen_term(eta(0, 1)), gen_term(eps(0, 1))
        assert eval_term(spec, cup) != eval_term(spec, cap)
        for batch in ([cup, cap], [identity(1), identity(2)], [cup, cup, identity(0)]):
            with pytest.raises(ValueError, match="different shapes"):
                image_keys(spec, batch)


class TestScalarRoutes:
    """Each route agrees with the dense oracle, and two sides of a check share one."""

    @pytest.mark.parametrize("pairing", ["identity", "random:1"])
    @pytest.mark.parametrize("p", MODULI)
    def test_prime_eval_matches_dense_oracle(self, p, pairing):
        spec = prime_spec(p, pairing)
        rng = random.Random(p % 1000 + len(pairing))
        terms = [identity(0), identity(2), whiskered(identity(1), 1, 1)]
        terms += [random_term(rng, max_source=2, max_len=3, max_width=5) for _ in range(8)]
        terms += [whiskered(random_term(rng, max_source=1, max_len=2, max_width=3), 1, 1) for _ in range(4)]
        for t in terms:
            m = eval_term(spec, t)
            assert m == dense_eval(spec, t)
            assert all(isinstance(x, ModP) for row in m.entries for x in row)
            # a slice-free term does no arithmetic, so int64 is exact at any modulus
            int64 = p < 2**31 or not t.slices
            assert route_dtype(spec, t) == (np.int64 if int64 else object)

    @pytest.mark.parametrize("pairing", ["identity", "random:1"])
    def test_rule_checks_agree_across_moduli(self, pairing):
        by_shape = {}
        for _, _, lhs, rhs in rule_instances(n_range=(1,)):
            for t in (lhs, rhs):
                if max(t.widths()) <= 4:
                    by_shape.setdefault((t.source, t.target), []).append(t)
        pairs = [(a, b) for ts in by_shape.values() for a in ts[:4] for b in ts[:4]]
        assert any(not b.slices for _, b in pairs)
        verdicts = []
        for p in MODULI:
            spec = prime_spec(p, pairing)
            dense = {t: dense_eval(spec, t) for pair in pairs for t in pair}
            holds = [check_rule_instance(spec, a, b) for a, b in pairs]
            assert holds == [dense[a] == dense[b] for a, b in pairs]
            verdicts.append(holds)
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert True in verdicts[0] and False in verdicts[0]

    def test_rational_bound_falls_back_to_fractions(self):
        # each loop can raise the largest entry about 2**21-fold: three pass 2**62
        spec = FunctorSpec.random(3, seed=14)
        loop = compose(gen_term(eta(0, 2)), gen_term(eps(0, 2)))
        twice, thrice = compose(loop, loop), compose(compose(loop, loop), loop)
        assert route_dtype(spec, twice) == np.int64
        assert route_dtype(spec, thrice) == object
        m = eval_term(spec, thrice)
        assert m == dense_eval(spec, thrice)
        assert type(m[0, 0]) is Fraction

    def test_core_cache_stays_within_budget(self):
        spec = FunctorSpec.identity(2)
        for n in range(1, 11):
            loop = compose(gen_term(eta(0, n)), gen_term(eps(0, n)))
            assert eval_term(spec, loop).entries == ((2**n,),)
        cached = spec._cores
        assert sum(c.array.size for c in cached.values()) <= _CORE_CACHE_ENTRIES
        assert ("eta", 1) in cached and ("eps", 10) not in cached


FRACTIONAL_3 = [[Fraction(1, 2), 0, 0], [Fraction(1, 3), 2, 0], [1, Fraction(-3, 4), 5]]

# route name -> (spec at dimension d, state dtype, entry type)
ROUTES = {
    "int64-Q": (lambda d: FunctorSpec.random(d, seed=d), np.int64, int),
    "int64-mod-p": (lambda d: FunctorSpec.random(d, seed=d, field=PrimeField(7)), np.int64, ModP),
    "object-fractional": (
        lambda d: FunctorSpec(d, frac_mat([row[:d] for row in FRACTIONAL_3[:d]])),
        object,
        Fraction,
    ),
    "object-over-bound-prime": (
        lambda d: FunctorSpec.random(d, seed=d, field=PrimeField(2**61 - 1)),
        object,
        ModP,
    ),
}


def cap_first_terms(n):
    """Terms whose first slice is a cap ``eps(m, n)``, alone, at either edge, inside, or whiskered."""
    alone = [gen_term(eps(0, n)), gen_term(eps(1, n))]
    left_edge = compose(whisker(0, eps(0, n), 1), whisker(0, eta(1, 1), 0))
    inside = compose(whisker(1, eps(0, n), 1), gen_term(eps(0, 1)))
    right_edge = compose(whisker(1, eps(0, n), 0), whisker(0, eta(0, 1), 1))
    # stripped to lo = 2, hi = 1, leaving one wire left of the cap's block
    lifted = compose(whisker(1, eps(1, n), 0), whisker(1, eta(0, 1), 1))
    stripped = [whiskered(gen_term(eps(1, n)), 1, 1), whiskered(lifted, 1, 1)]
    return alone + [left_edge, inside, right_edge] + stripped


class TestFirstSliceStart:
    """A cap first starts the contraction from its own image; each route matches the dense oracle."""

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cap_first_matches_dense_oracle(self, d, n, route):
        make_spec, dtype, entry_type = ROUTES[route]
        spec = make_spec(d)
        # dense_eval multiplies padded d^w x d^w matrices of Python scalars
        terms = [t for t in cap_first_terms(n) if d ** max(t.widths()) <= 81]
        assert terms
        for t in terms:
            assert route_dtype(spec, t) == dtype
            m = eval_term(spec, t)
            dense = dense_eval(spec, t).entries
            if entry_type is int:
                assert all(x.denominator == 1 for row in dense for x in row)
                dense = tuple(tuple(int(x) for x in row) for row in dense)
            assert repr(m.entries) == repr(dense), str(t)
            assert {type(x) for row in m.entries for x in row} == {entry_type}


def mirror():
    return compose(tensor(identity(1), gen_term(eta(0, 1))), tensor(gen_term(eps(0, 1)), identity(1)))


def implicit_wire_terms():
    """Terms that meet each way a slice can meet untouched wires."""
    return [
        # a cup left of untouched wires, and right of them
        whisker(0, eta(0, 1), 2),
        whisker(1, eta(1, 1), 0),
        # caps that close source wires: one block, one after closed wires, two blocks apart
        whisker(1, eps(0, 1), 1),
        compose(whisker(0, eps(0, 1), 2), gen_term(eps(0, 1))),
        compose(whisker(1, eps(0, 1), 1), gen_term(eps(0, 1))),
        # a cap over a made and a source wire, either side, in place or moved
        snake(),
        mirror(),
        compose(compose(whisker(0, eta(1, 1), 0), whisker(0, eta(0, 1), 3)), whisker(1, eps(0, 1), 2)),
        compose(whisker(1, eps(0, 1), 0), compose(whisker(0, eta(1, 1), 0), whisker(0, eps(0, 1), 1))),
        # a wide cap over source, made and source wires
        compose(whisker(0, eta(1, 1), 1), gen_term(eps(0, 2))),
        compose(whisker(1, eta(0, 1), 2), whisker(0, eps(0, 2), 1)),
    ]


def walks(max_source=3, max_len=4, max_width=4):
    """Random slice walks: cups, caps on source and made wires, wires passing through."""

    @st.composite
    def walk(draw):
        source = draw(st.integers(0, max_source))
        lays, width = [], source
        for _ in range(draw(st.integers(0, max_len))):
            options = slice_options(width, max_width, 2)
            if not options:
                break
            off, g = draw(st.sampled_from(options))
            lays.append((off, g))
            width += g.delta
        return term_from_layers(source, lays)

    return walk()


def as_route(route, m):
    """The dense oracle's entries as the route returns them."""
    if ROUTES[route][2] is int:
        assert all(x.denominator == 1 for row in m.entries for x in row)
        return tuple(tuple(int(x) for x in row) for row in m.entries)
    return m.entries


# shapes whose hom-sets mix wires passed, closed and made; widths stay at most 4
BATCH_POOLS = [(1, 1, SearchCaps(3, 3, 1)), (2, 2, SearchCaps(2, 4, 1)), (3, 1, SearchCaps(3, 4, 1))]


@lru_cache(maxsize=None)
def batch_pool(k):
    return tuple(hom_candidates(*BATCH_POOLS[k]))


@lru_cache(maxsize=None)
def route_dense(route, t):
    spec = ROUTES[route][0](2)
    return dense_eval(spec, t)


class TestImplicitWires:
    """Untouched wires are implicit identities; every route matches the dense oracle."""

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_meeting_matches_dense_oracle(self, d, route):
        make_spec, dtype, entry_type = ROUTES[route]
        spec = make_spec(d)
        terms = [t for t in implicit_wire_terms() if d ** max(t.widths()) <= 81]
        assert len(terms) >= 8
        for t in terms:
            m, dense = eval_term(spec, t), dense_eval(spec, t)
            if d == 1:
                # the one cup core of a fractional pairing is integral at d=1
                assert m == dense, str(t)
                continue
            assert route_dtype(spec, t) == dtype
            assert repr(m.entries) == repr(as_route(route, dense)), str(t)
            assert {type(x) for row in m.entries for x in row} == {entry_type}

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from(list(ROUTES)), walks())
    def test_random_walks_match_dense_oracle(self, route, t):
        # a term whose cores are all integral takes the int64 route on any pairing
        assert eval_term(ROUTES[route][0](2), t) == route_dense(route, t)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.sampled_from(list(ROUTES)),
        st.sampled_from(range(len(BATCH_POOLS))),
        st.data(),
    )
    def test_batches_key_as_dense_images_compare(self, route, pool, data):
        # the terms of one hom-set pass different wires, whiskered by wires all of them pass
        terms = batch_pool(pool)
        picked = data.draw(st.lists(st.sampled_from(terms), min_size=2, max_size=6))
        a, b = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
        if max(picked[0].widths()) + a + b > 4:
            a = b = 0
        batch = [whiskered(t, a, b) for t in picked]
        spec = ROUTES[route][0](2)
        keys = image_keys(spec, batch)
        dense = [route_dense(route, t) for t in batch]
        for i in range(len(batch)):
            for j in range(i):
                assert (keys[i] == keys[j]) == (dense[i] == dense[j])
                assert check_rule_instance(spec, batch[i], batch[j]) == (dense[i] == dense[j])

    def test_keys_under_several_specs(self):
        # one plan per term serves every spec; each key is the tuple of the single keys
        terms = batch_pool(2)
        specs = [FunctorSpec.identity(2), FunctorSpec.random(2, seed=11), ROUTES["object-fractional"][0](2)]
        single = [image_keys(sp, terms) for sp in specs]
        assert image_keys(specs, terms) == list(zip(*single))
        with pytest.raises(ValueError, match="different dimensions"):
            image_keys([FunctorSpec.identity(2), FunctorSpec.identity(3)], terms)

    def test_dimension_one_with_many_runs(self):
        # forty passed wires between forty made pairs, or closed between cups and caps
        spec = FunctorSpec(1, frac_mat([[2]]))
        cups, mirrors = identity(0), identity(0)
        for _ in range(40):
            cups = tensor(cups, tensor(identity(1), gen_term(eta(0, 1))))
            mirrors = tensor(mirrors, mirror())
        assert eval_term(spec, cups).entries == ((Fraction(1, 2**40),),)
        assert eval_term(spec, mirrors).entries == ((Fraction(1),),)

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_batches_that_pass_different_wires(self, route):
        spec = ROUTES[route][0](2)
        # the snake and its mirror make and close their wire, the identity passes it
        one_wire = [snake(), identity(1), mirror()]
        # source wire 0 is closed in the first and passed in the second, wire 2 the other way
        closed_or_passed = [tensor(gen_term(eps(0, 1)), identity(1)), tensor(identity(1), gen_term(eps(0, 1)))]
        for batch in (one_wire, closed_or_passed):
            for a, b in ((0, 0), (0, 1), (1, 0)):
                terms = [whiskered(t, a, b) for t in batch]
                dense = [dense_eval(spec, t) for t in terms]
                keys = image_keys(spec, terms)
                for i in range(len(terms)):
                    for j in range(i):
                        assert (keys[i] == keys[j]) == (dense[i] == dense[j])
        keys = image_keys(spec, one_wire)
        assert keys[0] == keys[1] == keys[2]
        keys = image_keys(spec, closed_or_passed)
        assert keys[0] != keys[1]


def shifted(t):
    """``t`` with one slice's block moved a wire aside, for each slice that can move."""
    out = []
    for k, s in enumerate(t.slices):
        g, left, m, right = s.gen, s.left, s.gen.m, s.right
        if right:
            left, right = left + 1, right - 1
        elif left or m:
            left, m, right = (left - 1, m, 1) if left else (left, m - 1, 1)
        else:
            continue
        moved = Slice(left, Generator(g.kind, m, g.n), right)
        out.append(Term(t.source, t.slices[:k] + (moved,) + t.slices[k + 1 :]))
    return out


# the d=3 relation instances whose first slice is a cup and whose sides share no
# inner wire; a state over every wire they pass has 3^12 entries
CUP_FIRST_D3 = [
    (RuleId.NAT_ETA_ETA, (0, 0, 2, 2, 2)),
    (RuleId.NAT_ETA_EPS, (0, 0, 2, 0, 2)),
    (RuleId.NAT_ETA_EPS, (0, 0, 2, 1, 1)),
    (RuleId.NAT_ETA_EPS, (0, 0, 1, 2, 2)),
    (RuleId.NAT_EPS_ETA, (0, 0, 2, 2, 1)),
    (RuleId.NAT_EPS_ETA, (0, 0, 1, 1, 2)),
    (RuleId.NAT_EPS_ETA, (0, 0, 2, 0, 2)),
]


class TestWideStates:
    """Checks whose sides pass many wires never build a state over them."""

    def test_wide_cup_first_check(self):
        # sixteen wires pass both sides: a state over them all would not fit in memory
        lhs, rhs = rule_instance(RuleId.NAT_ETA_EPS, 0, 0, 1, 16, 1)
        assert check_rule_instance(FunctorSpec.random(2, seed=1), lhs, rhs)

    @pytest.mark.parametrize("rule, params", CUP_FIRST_D3, ids=[f"{r.value}{p}" for r, p in CUP_FIRST_D3])
    def test_cup_first_instances_hold_and_shifted_slices_do_not(self, rule, params):
        spec = FunctorSpec.random(3, seed=1)
        lhs, rhs = rule_instance(rule, *params)
        assert check_rule_instance(spec, lhs, rhs)
        wrong = [(x, rhs) for x in shifted(lhs)] + [(lhs, x) for x in shifted(rhs)]
        assert wrong
        for a, b in wrong:
            assert not check_rule_instance(spec, a, b)


class TestIsoObstruction:
    def test_nonsquare(self):
        spec = FunctorSpec.identity(2)
        verdict = iso_obstruction(spec, gen_term(eps(0, 1)))
        assert verdict.not_iso
        assert "non-square" in verdict.reason

    def test_leading_deletion_rank(self):
        spec = FunctorSpec.identity(2)
        # deletion then insertion: square but rank deficient
        t = compose(gen_term(eps(0, 1)), gen_term(eta(0, 1)))
        verdict = iso_obstruction(spec, t)
        assert verdict.not_iso
        assert "rank" in verdict.reason

    def test_identity_inconclusive(self):
        spec = FunctorSpec.identity(2)
        assert not iso_obstruction(spec, identity(1)).not_iso
        assert not iso_obstruction(spec, identity(3)).not_iso

    def test_zigzag_inconclusive(self):
        # neither forbidden factorisation: the matrix view cannot object
        spec = FunctorSpec.identity(2)
        assert iso_obstruction(spec, snake()).status == "inconclusive"


class TestPrimeField:
    def test_parse_and_arithmetic(self):
        f = PrimeField(7)
        x = f.parse("3/4")
        assert x * f.from_int(4) == f.from_int(3)
        assert f.from_int(3) ** -1 == f.from_int(5)

    def test_agrees_with_rationals(self):
        fp = PrimeField()
        rng = random.Random(19)
        for seed in range(5):
            spec_q = FunctorSpec.random(2, seed=seed)
            spec_p = FunctorSpec.random(2, seed=seed, field=fp)
            t = random_term(rng, max_source=2, max_len=3, max_width=5)
            mq = eval_term(spec_q, t)
            mp = eval_term(spec_p, t)
            assert rank(mq) == rank(mp)
            lifted = tuple(
                tuple(fp.from_int(int(x)) for x in row) for row in mq.entries
            )
            assert lifted == mp.entries

    @pytest.mark.parametrize("pairing", ["identity", "random:1"])
    def test_triangles_hold(self, pairing):
        fp = PrimeField()
        sp = FunctorSpec.identity(2, fp) if pairing == "identity" else FunctorSpec.random(2, 1, fp)
        triangles = [(lhs, rhs) for rule, _, lhs, rhs in rule_instances() if rule in TRIANGLE_RULES]
        assert len(triangles) == 12
        for lhs, rhs in triangles:
            assert check_rule_instance(sp, lhs, rhs)

    def test_from_rows_lifts_fractions(self):
        fp = PrimeField(7)
        m = Mat.from_rows([[Fraction(1, 2), 0], [Fraction(-3, 4), 1]], fp)
        assert m.entries == ((fp.parse("1/2"), fp.zero), (fp.parse("-3/4"), fp.one))
        assert FunctorSpec(2, m).phi_inv @ m == Mat.identity(2, fp)
        with pytest.raises(ValueError):
            Mat.from_rows([[Fraction(1, 14)]], fp)

    @pytest.mark.parametrize("p", [-7, 0, 1, 4, 6, 561, 2**61 + 1])
    def test_composite_modulus_rejected(self, p):
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            PrimeField(p)

    @pytest.mark.parametrize(
        "spec, want", [("q", RATIONALS), ("p", PrimeField()), ("p:97", PrimeField(97))]
    )
    def test_field_spec(self, spec, want):
        assert field_of(spec) == want

    @pytest.mark.parametrize("spec", ["p:abc", "p:", "p:-7", "p:٣", "P", "", 97, None])
    def test_unknown_field_spec_rejected(self, spec):
        message = f"unknown field spec {spec!r} (use q, p, or p:PRIME)"
        with pytest.raises(ValueError, match=re.escape(message)):
            field_of(spec)

    def test_slice_free_term_has_field_entries(self):
        m = eval_term(FunctorSpec.identity(2, PrimeField(7)), identity(1))
        assert m == Mat.identity(2, PrimeField(7))
        assert all(isinstance(x, ModP) for row in m.entries for x in row)


class TestPairingFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "phi.txt"
        path.write_text("2\n1 1/2\n0 -1\n")
        spec = FunctorSpec.from_file(path)
        assert spec.d == 2
        assert spec.phi[0, 1] == Fraction(1, 2)
        assert eval_term(spec, snake()) == Mat.identity(2)

    def test_singular_rejected(self, tmp_path):
        path = tmp_path / "phi.txt"
        path.write_text("2\n1 1\n1 1\n")
        with pytest.raises(ValueError):
            FunctorSpec.from_file(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "phi.txt"
        path.write_text("2\n1 2 3\n")
        with pytest.raises(ValueError):
            FunctorSpec.from_file(path)
