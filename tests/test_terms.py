import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monocat import (
    FunctorSpec,
    GenKind,
    InvalidGenerator,
    Mode,
    NotComposable,
    SearchCaps,
    Slice,
    Term,
    canonical,
    compose,
    eps,
    eta,
    eval_term,
    gen_count,
    gen_term,
    generator,
    identity,
    match_rules,
    normal_form,
    render,
    tensor,
    whisker,
)
from monocat import rewrite, terms
from monocat.cli import parse_expr
from monocat.rewrite import apply, enum_hom_detailed, equal, explore, generate_terms
from monocat.suite import SuiteConfig, snake_term
from monocat.terms import (
    LayerOutOfRange,
    _class_term,
    packed_layers,
    term_from_layers,
    term_from_packed,
    upside_down,
)
from monocat.vect import has_leading_deletion, has_trailing_insertion
from oracles import class_representatives, random_term, shuffled, slice_options
from test_rewrite import reachable


def term_of_keys(source: int, keys) -> Term:
    """The term whose slices are the layer keys ``(offset, kind_value, m, n)``."""
    return term_from_layers(source, [(off, generator(GenKind(kv), m, n)) for off, kv, m, n in keys])


class TestGenerator:
    def test_insertion_arity(self):
        g = generator(GenKind.ETA, 0, 1)
        assert (g.source, g.target) == (0, 2)

    def test_deletion_arity(self):
        g = generator(GenKind.EPS, 1, 1)
        assert (g.source, g.target) == (3, 1)

    def test_zero_index_rejected(self):
        with pytest.raises(InvalidGenerator):
            generator(GenKind.ETA, 2, 0)

    def test_negative_block_rejected(self):
        with pytest.raises(InvalidGenerator):
            eps(-1, 1)


class TestIdentity:
    def test_empty_widths(self):
        assert identity(0).source == identity(0).target == 0
        assert identity(1).slices == ()

    def test_unit_law(self):
        t = whisker(0, eta(0, 1), 1)
        assert compose(identity(1), t) == t
        assert compose(t, identity(3)) == t


class TestWhisker:
    def test_padded_insertion(self):
        t = whisker(0, eta(0, 1), 1)
        assert (t.source, t.target) == (1, 3)
        assert t.slices == (Slice(0, eta(0, 1), 1),)

    def test_padded_deletion(self):
        t = whisker(1, eps(0, 1), 0)
        assert (t.source, t.target) == (3, 1)

    def test_no_padding_is_bare_generator(self):
        assert whisker(0, eta(0, 1), 0) == gen_term(eta(0, 1))


class TestCompose:
    def test_zigzag(self):
        s = compose(whisker(0, eta(0, 1), 1), whisker(1, eps(0, 1), 0))
        assert (s.source, s.target) == (1, 1)
        assert gen_count(s) == 2

    def test_mismatch(self):
        with pytest.raises(NotComposable):
            compose(gen_term(eta(0, 1)), identity(1))

    def test_associative(self):
        rng = random.Random(0)
        for _ in range(50):
            f = random_term(rng, max_source=2, max_len=2)
            x = whisker(0, eta(f.target, 1), 0)
            y = whisker(0, eps(f.target, 1), 0)
            assert compose(compose(f, x), y) == compose(f, compose(x, y))


class TestTensor:
    def test_identity_absorbs(self):
        assert tensor(gen_term(eta(0, 1)), identity(1)) == whisker(0, eta(0, 1), 1)
        assert tensor(identity(1), gen_term(eps(0, 1))) == whisker(1, eps(0, 1), 0)

    def test_unit_object(self):
        t = whisker(1, eta(0, 2), 0)
        assert tensor(identity(0), t) == t
        assert tensor(t, identity(0)) == t

    def test_two_generator_decomposition(self):
        t = tensor(gen_term(eta(0, 1)), gen_term(eps(0, 1)))
        assert t.source == 2 and t.target == 2
        assert t.slices == (Slice(0, eta(0, 1), 2), Slice(2, eps(0, 1), 0))

    def test_counts_add(self):
        rng = random.Random(1)
        for _ in range(50):
            f = random_term(rng)
            g = random_term(rng)
            assert gen_count(tensor(f, g)) == gen_count(f) + gen_count(g)
            h = whisker(0, eta(f.target, 2), 0)
            assert gen_count(compose(f, h)) == gen_count(f) + 1


class TestWidthBookkeeping:
    def test_target_is_source_plus_deltas(self):
        rng = random.Random(2)
        for _ in range(100):
            t = random_term(rng)
            assert t.target == t.source + sum(s.gen.delta for s in t.slices)

    def test_bad_chain_rejected(self):
        with pytest.raises(NotComposable):
            Term(1, (Slice(0, eta(0, 1), 1), Slice(0, eps(1, 1), 1)))


class TestCanonical:
    def test_identity_fixed(self):
        for n in range(4):
            assert canonical(identity(n)) == identity(n)

    def test_leftmost_first(self):
        # a deletion on the right listed before an insertion on the left:
        # the normal form emits the leftmost slice first
        t = Term(4, (Slice(2, eps(0, 1), 0), Slice(0, eta(0, 1), 2)))
        c = canonical(t)
        assert c.slices[0].gen.kind is GenKind.ETA
        assert c.slices[0].left == 0

    def test_idempotent_on_random_terms(self):
        rng = random.Random(3)
        for _ in range(300):
            t = random_term(rng)
            c = canonical(t)
            assert canonical(c) == c

    def test_invariant_under_shuffles(self):
        rng = random.Random(4)
        for _ in range(300):
            t = random_term(rng)
            assert canonical(shuffled(rng, t, moves=8)) == canonical(t)

    def test_matrix_image_preserved(self):
        rng = random.Random(5)
        specs = [FunctorSpec.identity(2), FunctorSpec.random(2, seed=6), FunctorSpec.random(3, seed=7)]
        for _ in range(25):
            t = random_term(rng, max_source=2, max_len=3, max_width=6)
            for sp in specs:
                assert eval_term(sp, canonical(t)) == eval_term(sp, t)


def class_table() -> dict:
    """The memo's table of one shared ``Term`` per (source, least key); empty if it has none."""
    return terms._memo.get(_class_term, {})


class TestSharedCanonical:
    """``canonical`` keeps one ``Term`` per interchange class in the memo."""

    def test_fresh_memo_has_no_table(self, fresh_memo):
        assert not class_table()
        c = canonical(snake_term())
        assert list(class_table().values()) == [c]

    def test_presentations_give_one_object(self, fresh_memo):
        rng = random.Random(40)
        for _ in range(300):
            t = random_term(rng, max_len=6)
            first = canonical(t)
            for _ in range(4):
                assert canonical(shuffled(rng, t, moves=8)) is first
            assert canonical(first) is first

    def test_least_input_comes_back(self, fresh_memo, monkeypatch):
        rng = random.Random(41)
        for _ in range(150):
            monkeypatch.setattr(terms, "_memo", {})
            least = class_representatives(random_term(rng, max_len=6))[0]
            assert canonical(least) is least
            assert canonical(shuffled(rng, least, moves=8)) is least

    def test_values_are_the_least_key_built(self, fresh_memo):
        rng = random.Random(42)
        for _ in range(300):
            t = random_term(rng, max_len=6)
            least = class_representatives(t)[0]
            assert canonical(t) == term_from_packed(t.source, packed_layers(least))

    def test_normal_forms_and_steps_read_the_table(self, fresh_memo):
        rng = random.Random(43)
        t = snake_term()
        for mode in Mode:
            form = normal_form(t, mode)
            assert canonical(form) is form
            assert normal_form(shuffled(rng, t), mode) is form
        for step in match_rules(t, Mode.C):
            after = apply(t, step)
            assert canonical(after) is after
            assert apply(t, step) is after

    def test_least_keys_are_kept_once(self, fresh_memo):
        rng = random.Random(47)
        for _ in range(200):
            t = random_term(rng, max_len=6)
            canonical(t)
            normal_form(t, Mode.D)
        for moves in (terms._swaps, rewrite._slides):
            least = terms._memo[moves][1]
            # a pair (first layer, least suffix) ends in a tuple, a least key in a layer
            keys = [k for k in least if not isinstance(k[-1], tuple)]
            assert len(keys) > 100
            assert all(least[k] is k for k in keys)
            assert all(least[v] is v for v in least.values())

    def test_sources_are_kept_apart(self, fresh_memo):
        pair = tensor(gen_term(eta(0, 1)), gen_term(eta(0, 1)))
        wide = tensor(pair, identity(2))
        assert packed_layers(pair) == packed_layers(wide)
        first, second = canonical(pair), canonical(wide)
        assert (first.source, second.source) == (0, 2)
        for _ in range(3):
            assert canonical(pair) is first
            assert canonical(wide) is second

    def test_memo_drops_keep_values_and_bound_the_table(self, fresh_memo, monkeypatch):
        rng = random.Random(44)
        inputs = [random_term(rng, max_len=6) for _ in range(300)]
        want = [canonical(t) for t in inputs]
        monkeypatch.setattr(terms, "_MEMO_CAP", 30)
        monkeypatch.setattr(terms, "_memo", {})
        memos = [terms._memo]
        slices = [slice_table()]
        for t, w in zip(inputs, want):
            assert canonical(shuffled(rng, t, moves=8)) == w
            # every kept least key is one of the memo's, so the table drops with it
            least = terms._memo[terms._swaps][1]
            assert all(least.get(key) is key for _, key in class_table())
            assert term_from_packed(t.source, packed_layers(t)) == t
            if terms._memo is not memos[-1]:
                memos.append(terms._memo)
                slices.append(slice_table())
        assert len(memos) > 10
        # each memo had its own slice table
        assert len({id(table) for table in slices}) == len(slices)


def slice_table() -> dict:
    """The memo's table of shared slices by (packed layer, input width), added if missing."""
    term_from_packed(0, ())
    return terms._memo[term_from_packed]


def check_shared_slices(ts, seen: dict) -> None:
    """Each slice of the terms ``ts`` is the one ``seen`` first for its packed layer and width."""
    for t in ts:
        w = t.source
        for k, s in zip(packed_layers(t), t.slices):
            assert seen.setdefault((k, w), s) is s, (t, k, w)
            w = s.target_width


class TestSharedSlices:
    """``term_from_packed`` builds terms from one ``Slice`` per (packed layer, input width)."""

    def test_returned_terms_share_slices(self, fresh_memo):
        seen: dict = {}
        caps = SearchCaps(4, 6, 1, 2000)
        for cls in enum_hom_detailed(1, 1, Mode.C, caps).classes:
            check_shared_slices(cls, seen)
        check_shared_slices(generate_terms(1, 1, caps), seen)
        # two TriangleA composites side by side contract to the identity
        triangle = compose(whisker(0, eta(0, 1), 1), gen_term(eps(1, 1)))
        witness = equal(tensor(triangle, triangle), identity(2), Mode.C, caps)
        assert witness is not None and len(witness) > 0
        check_shared_slices(witness.terms, seen)
        check_shared_slices([step.row for step in witness.steps], seen)
        check_shared_slices(reachable(snake_term(), Mode.C, caps), seen)
        assert len(seen) == len(slice_table())
        for (k, w), s in seen.items():
            assert slice_table()[k, w] is s

    def test_values_match_the_layers_route(self, fresh_memo):
        rng = random.Random(45)
        assert term_from_packed(3, ()) == term_from_layers(3, []) == identity(3)
        for _ in range(400):
            t = random_term(rng, max_len=6)
            got = term_from_packed(t.source, packed_layers(t))
            assert got == t
            again = term_from_packed(t.source, packed_layers(t))
            assert all(a is b for a, b in zip(again.slices, got.slices))

    def test_parsed_terms_share_slices(self, fresh_memo):
        rng = random.Random(47)
        for _ in range(200):
            t = parse_expr(render(random_term(rng, max_len=6)))
            again = term_from_packed(t.source, packed_layers(t))
            assert len(again.slices) == len(t.slices)
            for k in range(len(t.slices)):
                assert again.slices[k] is t.slices[k]
            if t.slices and t.slices[-1].source_width != t.source:
                # shared slices put together by hand are checked as any others
                with pytest.raises(NotComposable):
                    Term(t.source, t.slices[::-1])
        with pytest.raises(NotComposable, match="slice 1 expects width 4 but receives 3"):
            Term(1, (Slice(0, eta(0, 1), 1), Slice(0, eps(1, 1), 1)))

    def test_table_is_bounded(self, fresh_memo, monkeypatch):
        monkeypatch.setattr(terms, "_MEMO_CAP", 30)
        rng = random.Random(46)
        tables = [slice_table()]
        for _ in range(200):
            t = random_term(rng, max_len=6)
            assert term_from_packed(t.source, packed_layers(t)) == t
            assert len(slice_table()) <= 30 + 6
            if slice_table() is not tables[-1]:
                tables.append(slice_table())
        assert len(tables) > 3

    def test_errors_are_unchanged(self, fresh_memo):
        lay = packed_layers(whisker(2, eps(0, 1), 0))[0]
        message = r"layer \(2, eps\(0,1\)\) does not fit in width 3"
        with pytest.raises(ValueError, match=message):
            term_from_layers(3, [(2, eps(0, 1))])
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                term_from_packed(3, (lay,))
        assert (lay, 3) not in slice_table()
        assert term_from_packed(4, (lay,)) == whisker(2, eps(0, 1), 0)
        # the first layer is a table hit; the second meets width 2
        with pytest.raises(ValueError, match=r"layer \(2, eps\(0,1\)\) does not fit in width 2"):
            term_from_packed(4, (lay, lay))
        with pytest.raises(LayerOutOfRange, match="outside the packed layer range"):
            packed_layers(whisker(0, eps(1 << terms.M_BITS, 1), 0))
        with pytest.raises(ValueError, match="negative source width -1"):
            term_from_packed(-1, ())


@st.composite
def zero_width_terms(draw, max_source=2, max_len=8, max_width=5):
    """Terms with n <= 2 in which about half the slices have m = 0: their
    zero-width source or target blocks can pass a neighbour on either side."""
    width = source = draw(st.integers(0, max_source))
    lays = []
    for _ in range(draw(st.integers(0, max_len))):
        options = slice_options(width, max_width, 2)
        if not options:
            break
        if draw(st.booleans()):
            options = [o for o in options if o[1].m == 0] or options
        off, g = draw(st.sampled_from(options))
        lays.append((off, g))
        width += g.delta
    return term_from_layers(source, lays)


def tensor_power(gens) -> Term:
    t = identity(0)
    for g in gens:
        t = tensor(t, gen_term(g))
    return t


def check_against_representatives(t: Term, reps: list[Term]) -> None:
    """canonical is the least member; the front predicates read the class."""
    assert canonical(t) == reps[0], t
    assert has_leading_deletion(t) == any(
        r.slices and r.slices[0].gen.kind is GenKind.EPS for r in reps
    ), t
    assert has_trailing_insertion(t) == any(
        r.slices and r.slices[-1].gen.kind is GenKind.ETA for r in reps
    ), t


class TestUpsideDown:
    def test_involution(self):
        rng = random.Random(30)
        for _ in range(200):
            t = random_term(rng)
            u = upside_down(t)
            assert (u.source, u.target) == (t.target, t.source)
            assert upside_down(u) == t


class TestCanonicalAgainstRepresentatives:
    """``canonical`` and the front predicates against the listed class."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(zero_width_terms())
    def test_zero_width_terms(self, t):
        try:
            reps = class_representatives(t, cap=600)
        except RuntimeError:
            assume(False)
        check_against_representatives(t, reps)

    def test_generate_terms_at_suite_caps(self):
        caps = SuiteConfig().hom_caps
        rng = random.Random(8)
        shapes = [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
        count = 0
        for m, n in shapes:
            for t in generate_terms(m, n, caps):
                check_against_representatives(shuffled(rng, t, moves=6), class_representatives(t))
                count += 1
        assert count > 50

    @pytest.mark.parametrize(
        "gens",
        [[eps(0, 1)] * k for k in range(1, 8)]
        + [[eta(0, 1)] * k for k in range(1, 8)]
        + [[eta(0, 1) if j % 2 == 0 else eps(0, 1) for j in range(k)] for k in range(2, 7)],
        ids=[f"eps{k}" for k in range(1, 8)]
        + [f"eta{k}" for k in range(1, 8)]
        + [f"alternating{k}" for k in range(2, 7)],
    )
    def test_tensor_powers(self, fresh_memo, gens):
        t = tensor_power(gens)
        check_against_representatives(t, class_representatives(t))

    def test_closed_component_passing_zero_width_points(self, fresh_memo):
        # the cup eta(0,1) can slide under the cap eps(0,1) on either side of
        # the nested pair; only one route leads to the least member, so
        # bubbling the least slice to the front along the first route found
        # gets this wrong
        t = term_of_keys(0, ((0, "eta", 0, 2), (1, "eps", 1, 1), (0, "eta", 0, 1), (2, "eps", 0, 1)))
        least = ((0, "eta", 0, 1), (0, "eta", 0, 2), (1, "eps", 1, 1), (0, "eps", 0, 1))
        assert canonical(t) == term_of_keys(0, least)
        assert class_representatives(t)[0] == canonical(t)


class TestWorkBound:
    # the closing of this term records some classes of one front in place
    # and closes the others; each class is charged once, so the bound at
    # which it first passes is the work of the whole closing
    TERM = "((eta(0,1) * id(1)) ; eps(1,1) ; (eta(0,1) * id(1)) ; eps(1,1)) * ((eta(0,1) * id(1)) ; eps(1,1))"
    BOUND = 201

    def test_passes_at_the_bound(self, fresh_memo, monkeypatch):
        closings = []
        closing = terms._FrontGraph._closing

        def counted(graph, start):
            closings.append(start)
            return closing(graph, start)

        monkeypatch.setattr(terms._FrontGraph, "_closing", counted)
        monkeypatch.setattr(terms, "_WORK_CAP", self.BOUND)
        canonical(parse_expr(self.TERM))
        fronts = terms._memo[terms._swaps][0]
        assert len(closings) < len(fronts)

    def test_raises_below_the_bound(self, fresh_memo, monkeypatch):
        monkeypatch.setattr(terms, "_WORK_CAP", self.BOUND - 1)
        with pytest.raises(terms.MonocatError, match="^interchange class too large to normalise$"):
            canonical(parse_expr(self.TERM))


class TestRender:
    def test_zigzag_string(self):
        s = compose(whisker(0, eta(0, 1), 1), whisker(1, eps(0, 1), 0))
        assert render(s) == "(eta(0,1) * id(1)) ; (id(1) * eps(0,1))"

    def test_identity_string(self):
        assert render(identity(0)) == "id(0)"
        assert render(identity(3)) == "id(3)"
