import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocat import (
    DEFAULT_CAPS,
    Direction,
    FunctorSpec,
    InvalidStep,
    Mode,
    MonocatError,
    NotEqualShape,
    RewriteStep,
    RuleId,
    SearchCaps,
    TooLarge,
    apply,
    canonical,
    compose,
    enum_hom_detailed,
    eps,
    equal,
    eta,
    eval_term,
    explore,
    gen_count,
    gen_term,
    identity,
    invariant,
    match_rules,
    neighbors,
    normal_form,
    render,
    rule_instance,
    rule_instances,
    rewrite,
    tensor,
    terms,
    whisker,
)
from monocat.cli import parse_expr
from monocat.rewrite import (
    NATURALITY_RULES,
    TRIANGLE_RULES,
    _hom_keys,
    _normal_form,
    _pair_results,
    generate_terms,
    hom_classes,
    sample_term,
)
from monocat.terms import GenKind, _canonical_key, packed_layers, term_from_layers
from oracles import (
    hom_candidates,
    hom_classes_by_search,
    neighbors_oracle,
    normal_form_by_closure,
    random_term,
    slice_options,
    snake,
    steps_oracle,
)

SMALL = SearchCaps(4, 8, 1, 2000)
# the zig-zag's mirror image: the same generators, so the same invariant
MIRROR = parse_expr("(id(1) * eta(0,1)) ; (eps(0,1) * id(1))")

# matched at caps (8, 6, 1)
SIX_SLICE_CASES = [
    # the same matched pair, at the same offsets, between other slices
    # gives a second sliding result
    (
        "D",
        "eta(0,1) ; eps(0,1) ; eta(0,1) ; (eta(0,1) * id(2)) ; "
        "(eta(3,1) * id(1)) ; (id(3) * eps(0,1) * id(1))",
    ),
    # cuts with the same slices below them and the same offsets above give
    # different expansions
    (
        "C",
        "(eps(0,1) * id(1)) ; (eta(0,1) * id(1)) ; (eps(0,1) * id(1)) ; "
        "(id(1) * eta(0,1)) ; (eta(2,1) * id(1)) ; (eps(2,1) * id(1))",
    ),
    (
        "C",
        "eta(0,1) ; eps(0,1) ; eta(0,1) ; eta(2,1) ; "
        "(id(3) * eta(1,1)) ; (id(2) * eps(0,2))",
    ),
]


def step_triples(t, mode, caps):
    """(rule, direction, replayed result) of each step ``match_rules`` lists,
    results within ``caps`` only; checks that no triple repeats."""
    got = [(s.rule, s.direction, apply(t, s)) for s in match_rules(t, mode, caps)]
    assert len(set(got)) == len(got)
    return {
        x for x in got if gen_count(x[2]) <= caps.max_gen_count and max(x[2].widths()) <= caps.max_width
    }


def reachable(t, mode, caps) -> set:
    """The canonical forms reachable from ``t`` within ``caps``, by a
    breadth-first search over ``neighbors``; checks that ``explore``
    visits exactly as many, untruncated."""
    rep = explore(t, mode, caps)
    states = {rep.start}
    frontier = [rep.start]
    while frontier:
        new = []
        for x in frontier:
            for u in neighbors(x, mode, caps):
                if u not in states:
                    states.add(u)
                    new.append(u)
        frontier = new
    assert not rep.truncated and len(states) == rep.states_visited
    return states


def assert_replays(w, t, v):
    """Check that the witness ``w`` runs from ``t`` to ``v`` by ``apply``."""
    cur = w.terms[0]
    assert cur == canonical(t)
    for step, expected in zip(w.steps, w.terms[1:]):
        cur = apply(cur, step)
        assert cur == expected
    assert cur == canonical(v)


def triangle_composite_a(i=0, n=1):
    return rule_instance(RuleId.TRIANGLE_A, i=i, n=n)[0]


def triangle_composite_b(i=0, n=1):
    return rule_instance(RuleId.TRIANGLE_B, i=i, n=n)[0]


class TestMatchRules:
    def test_triangle_contraction_found(self):
        steps = match_rules(triangle_composite_a(), Mode.C, SMALL)
        hits = [
            s
            for s in steps
            if s.rule is RuleId.TRIANGLE_A and s.direction is Direction.FORWARD
        ]
        assert len(hits) == 1
        assert dict(hits[0].binding) == {"i": 0, "n": 1}

    def test_empty_term_has_no_matches_without_triangles(self):
        assert match_rules(identity(0), Mode.D, SMALL) == []

    def test_zigzag_matches_are_expansions_only(self):
        s = snake()
        assert match_rules(s, Mode.D, SMALL) == []
        steps = match_rules(s, Mode.C, SMALL)
        assert steps and all(
            st.rule in TRIANGLE_RULES and st.direction is Direction.BACKWARD
            for st in steps
        )

    def test_triangles_absent_in_mode_d(self):
        steps = match_rules(triangle_composite_a(), Mode.D, SMALL)
        assert all(st.rule not in TRIANGLE_RULES for st in steps)


class TestApply:
    def test_triangle_a_contracts_to_identity(self):
        t = triangle_composite_a()
        step = next(
            s for s in match_rules(t, Mode.C, SMALL) if s.rule is RuleId.TRIANGLE_A
        )
        assert apply(t, step) == identity(1)

    def test_triangle_b_contracts_to_identity(self):
        t = triangle_composite_b()
        step = next(
            s for s in match_rules(t, Mode.C, SMALL) if s.rule is RuleId.TRIANGLE_B
        )
        assert apply(t, step) == identity(1)

    def test_insertion_naturality_instance(self):
        # two stacked insertions: slide the inner one out of the outer block
        lhs, rhs = rule_instance(RuleId.NAT_ETA_ETA, 0, 0, 1, 0, 1)
        steps = [
            s
            for s in match_rules(lhs, Mode.D, SMALL)
            if s.rule is RuleId.NAT_ETA_ETA and s.direction is Direction.FORWARD
        ]
        assert len(steps) == 1
        assert apply(lhs, steps[0]) == canonical(rhs)

    def test_stale_step_rejected(self):
        # the step's row chains on the other term's wires but lies in
        # another interchange class
        t = triangle_composite_a()
        step = next(
            s for s in match_rules(t, Mode.C, SMALL) if s.rule is RuleId.TRIANGLE_A
        )
        with pytest.raises(InvalidStep, match="not an ordering"):
            apply(triangle_composite_b(), step)

    @pytest.mark.parametrize(
        "binding, message",
        [
            ((("i", 0),), "malformed step"),
            ((("i", 0), ("n", 0)), "index n must be >= 1"),
            ((("i", -1), ("n", 1)), "index m must be >= 0"),
        ],
        ids=["missing-n", "n-zero", "negative-i"],
    )
    def test_malformed_expansion_rejected(self, binding, message):
        step = RewriteStep(RuleId.TRIANGLE_A, Direction.BACKWARD, row=identity(1), binding=binding, offset=0)
        with pytest.raises(InvalidStep, match=message):
            apply(identity(1), step)

    def test_expansion_replays_its_binding(self):
        # on two wires TriangleA at offset 0 inserts eta(i,1) and eps(i+1,1)
        # for i = 0 or 1: the binding alone says which
        t = identity(2)
        (step,) = [
            s for s in match_rules(t, Mode.C, SMALL)
            if s.rule is RuleId.TRIANGLE_A and s.offset == 0 and s.binding == (("i", 0), ("n", 1))
        ]
        assert apply(t, step) == canonical(compose(whisker(0, eta(0, 1), 2), whisker(0, eps(1, 1), 1)))
        other = dataclasses.replace(step, binding=(("i", 1), ("n", 1)))
        assert other.describe() == "TriangleA-(i=1,n=1)"
        assert apply(t, other) == canonical(triangle_composite_a(i=1))

    def test_row_with_another_source_rejected(self):
        # a wire more on the right leaves every slice's offset, and so the
        # packed layers, as they were
        t = triangle_composite_a()
        step = next(s for s in match_rules(t, Mode.C, SMALL) if s.rule is RuleId.TRIANGLE_A)
        row = tensor(step.row, identity(1))
        assert packed_layers(row) == packed_layers(step.row)
        with pytest.raises(InvalidStep, match="not an ordering"):
            apply(t, dataclasses.replace(step, row=row))

    def test_row_past_the_packed_range_rejected(self):
        step = RewriteStep(RuleId.NAT_ETA_ETA, Direction.FORWARD, gen_term(eta(70000, 1)), 0)
        with pytest.raises(InvalidStep, match="outside the packed layer range"):
            apply(identity(70000), step)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"offset": -1}, "negative whisker"),
            ({"offset": 2}, "does not fit in width"),
            ({"binding": (("i", 1 << terms.M_BITS), ("n", 1))}, "outside the packed layer range"),
            ({"row": identity(3)}, "not an ordering"),
        ],
        ids=["negative-offset", "offset-past-width", "i-past-field", "other-source"],
    )
    def test_bad_expansion_rejected(self, change, message):
        (step,) = [
            s for s in match_rules(identity(1), Mode.C, SMALL)
            if s.rule is RuleId.TRIANGLE_A and apply(identity(1), s) == triangle_composite_a()
        ]
        with pytest.raises(InvalidStep, match=message):
            apply(identity(1), dataclasses.replace(step, **change))

    def test_widths_preserved(self):
        rng = random.Random(20)
        for _ in range(40):
            t = canonical(random_term(rng, max_source=3, max_len=3, max_width=6))
            for step in match_rules(t, Mode.C, SMALL):
                u = apply(t, step)
                assert (u.source, u.target) == (t.source, t.target)

    def test_every_step_invertible(self):
        rng = random.Random(21)
        done = 0
        while done < 60:
            t = canonical(random_term(rng, max_source=3, max_len=3, max_width=6))
            steps = match_rules(t, Mode.C, SMALL)
            if not steps:
                continue
            step = steps[rng.randrange(len(steps))]
            u = apply(t, step)
            assert any(
                s.rule is step.rule and s.direction is not step.direction and apply(u, s) == canonical(t)
                for s in match_rules(u, Mode.C, SearchCaps(6, 10, 2, 2000))
            )
            done += 1


class TestNeighbors:
    def test_empty_width_has_none(self):
        assert neighbors(identity(0), Mode.D, SMALL) == []
        assert neighbors(identity(0), Mode.C, SMALL) == []

    def test_single_wire_expansions(self):
        out = neighbors(identity(1), Mode.C, SMALL)
        assert canonical(triangle_composite_a()) in out
        assert canonical(triangle_composite_b()) in out

    def test_shapes_preserved(self):
        rng = random.Random(22)
        for _ in range(30):
            t = canonical(random_term(rng, max_source=2, max_len=3, max_width=6))
            for u in neighbors(t, Mode.C, SMALL):
                assert (u.source, u.target) == (t.source, t.target)

    @pytest.mark.parametrize("mode", [Mode.D, Mode.C])
    def test_agrees_with_literal_substitution_oracle(self, mode):
        caps = SearchCaps(5, 7, 1, 2000)
        rng = random.Random(23)
        for _ in range(25):
            t = random_term(rng, max_source=3, max_len=3, max_width=6, max_index_n=1)
            got = set(neighbors(t, mode, caps))
            want = set(neighbors_oracle(t, mode, caps))
            assert got == want

    def test_agrees_with_oracle_at_wider_indices(self):
        caps = SearchCaps(6, 8, 2, 2000)
        rng = random.Random(24)
        for _ in range(12):
            t = random_term(rng, max_source=3, max_len=3, max_width=7, max_index_n=2)
            for mode in (Mode.D, Mode.C):
                got = set(neighbors(t, mode, caps))
                want = set(neighbors_oracle(t, mode, caps))
                assert got == want

    @pytest.mark.parametrize("mode, text", SIX_SLICE_CASES)
    def test_agrees_with_oracle_on_six_slices(self, mode, text):
        caps = SearchCaps(8, 6, 1, 1000)
        t = parse_expr(text)
        want = steps_oracle(t, Mode[mode], caps)
        got = set(neighbors(t, Mode[mode], caps))
        assert got == {c for _, _, c in want}
        # and match_rules' steps (see TestStepFields)
        assert step_triples(t, Mode[mode], caps) == want

    def test_rewrites_preserve_matrix_image(self):
        rng = random.Random(25)
        specs = [FunctorSpec.identity(2), FunctorSpec.random(2, seed=26)]
        for _ in range(20):
            t = canonical(random_term(rng, max_source=2, max_len=3, max_width=6))
            images = [eval_term(sp, t) for sp in specs]
            for u in neighbors(t, Mode.C, SMALL):
                for sp, img in zip(specs, images):
                    assert eval_term(sp, u) == img


class TestStepFields:
    # the memo keeps result keys only, and match_rules and equal find a
    # step's fields by following its result down them: every step must be
    # one the literal-substitution oracle finds, and must replay to its result
    CAPS = SearchCaps(4, 5, 1, 2000)

    @staticmethod
    def corpus():
        caps = SearchCaps(2, 5, 1, 2000)
        return generate_terms(1, 1, caps) + generate_terms(2, 2, caps)

    @pytest.mark.parametrize("mode", [Mode.D, Mode.C])
    def test_generated_terms_match_oracle(self, mode):
        corpus = self.corpus()
        assert len(corpus) == 46
        for t in corpus:
            assert step_triples(t, mode, self.CAPS) == steps_oracle(t, mode, self.CAPS), t

    def test_witnesses_replay(self):
        pairs = [(TestMemoDrops.START, TestMemoDrops.END, Mode.C, SearchCaps(5, 8, 1, 5000))]
        for t in self.corpus():
            for mode in (Mode.D, Mode.C):
                for u in neighbors(t, mode, self.CAPS)[:2]:
                    pairs += [(t, v, mode, self.CAPS) for v in neighbors(u, mode, self.CAPS)[:2]]
        assert len(pairs) > 100
        for a, b, mode, caps in pairs:
            w = equal(a, b, mode, caps)
            assert w is not None and w.terms[0] == canonical(a) and w.terms[-1] == canonical(b)
            for x, step, y in zip(w.terms, w.steps, w.terms[1:]):
                assert apply(x, step) == y
                if step.rule not in TRIANGLE_RULES or step.direction is Direction.FORWARD:
                    # a pair step: the first one match_rules lists for y
                    assert step == next(s for s in match_rules(x, mode, caps) if apply(x, s) == y)
                else:
                    assert_listed_expansion(x, step, y)

    def test_expansions_past_the_caps(self):
        # the far side starts with four generators, past max_gen_count, so
        # the last step expands into a term the caps do not admit
        a = triangle_composite_a()
        w = equal(identity(1), compose(a, a), Mode.C, SearchCaps(2, 3, 1, 1000))
        assert [s.describe() for s in w.steps] == ["TriangleA-(i=0,n=1)"] * 2
        for x, step, y in zip(w.terms, w.steps, w.terms[1:]):
            assert apply(x, step) == y
            assert_listed_expansion(x, step, y)


    @pytest.mark.parametrize("a, b, expansion", [
        ("eta(0,1) ; eps(0,1)", "eta(0,1) ; eta(2,1) ; (eps(1,1) * id(1)) ; eps(0,1)",
         "TriangleB-(i=1,n=1)"),
        # an expansion at the first cut gives the same result, but the cut is
        # too wide for the target's peak: the witness takes a later one
        ("eta(0,2) ; (eps(0,1) * id(2))",
         "eta(0,2) ; (eta(3,1) * id(1)) ; (eps(0,1) * id(4)) ; (eps(0,1) * id(2))",
         "TriangleB-(i=0,n=1)"),
        ("eps(0,1) * id(1)", "(eta(0,1) * id(3)) ; (eps(2,1) * id(1)) ; eps(1,1)",
         "TriangleA-(i=0,n=1)"),
        ("eta(0,1) ; eps(0,1)", "eta(0,1) ; (eta(0,2) * id(2)) ; (eps(0,1) * id(4)) ; eps(0,2)",
         "TriangleA-(i=0,n=2)"),
        ("id(2)", "(eta(0,1) * id(2)) ; (eps(1,1) * id(1)) ; (eta(0,2) * id(2)) ; eps(2,2)",
         "TriangleA-(i=0,n=2)"),
    ])
    def test_expansions_of_each_rule_and_n(self, a, b, expansion):
        w = equal(parse_expr(a), parse_expr(b), Mode.C, SearchCaps(4, 6, 2, 3000))
        assert expansion in [s.describe() for s in w.steps]
        for x, step, y in zip(w.terms, w.steps, w.terms[1:]):
            assert apply(x, step) == y
            if step.rule in TRIANGLE_RULES and step.direction is Direction.BACKWARD:
                assert_listed_expansion(x, step, y)


def assert_listed_expansion(x, step, y):
    """``step``, an expansion of ``x`` into ``y``, is the first step that
    ``match_rules`` lists on ``x`` with result ``y``, at caps that admit ``y``."""
    caps = SearchCaps(gen_count(y), max(y.widths()), max(s.gen.n for s in y.slices))
    assert step == next(s for s in match_rules(x, Mode.C, caps) if apply(x, s) == y)


class TestGenCountParity:
    def test_sliding_steps_preserve_count(self):
        rng = random.Random(27)
        seen = 0
        while seen < 200:
            t = canonical(random_term(rng, max_source=3, max_len=4, max_width=7))
            for step in match_rules(t, Mode.D, SMALL):
                assert gen_count(apply(t, step)) == gen_count(t)
                seen += 1

    def test_triangle_steps_change_count_by_two(self):
        rng = random.Random(28)
        seen = 0
        while seen < 200:
            t = canonical(random_term(rng, max_source=2, max_len=3, max_width=6))
            for step in match_rules(t, Mode.C, SMALL):
                if step.rule not in TRIANGLE_RULES:
                    continue
                delta = gen_count(apply(t, step)) - gen_count(t)
                assert abs(delta) == 2
                seen += 1


class TestEqual:
    def test_triangle_closes_in_one_step(self):
        w = equal(triangle_composite_a(), identity(1), Mode.C, SMALL)
        assert w is not None and len(w) == 1
        assert w.steps[0].rule is RuleId.TRIANGLE_A

    def test_self_equality_empty_path(self):
        s = snake()
        w = equal(s, s, Mode.C, SMALL)
        assert w is not None and len(w) == 0

    def test_zigzag_not_decided(self):
        assert equal(snake(), identity(1), Mode.C, SMALL) is None

    def test_invariant_answers_before_any_search(self, fresh_memo):
        # the zig-zag and id(1) agree on #eta_n - #eps_n; only the parity
        # count separates them, and then no canonical form is computed
        assert equal(snake(), identity(1), Mode.C, DEFAULT_CAPS) is None
        assert terms._memo == {}

    def test_search_still_runs_on_equal_invariants(self, fresh_memo):
        assert invariant(snake(), Mode.C) == invariant(MIRROR, Mode.C)
        assert equal(snake(), MIRROR, Mode.C, SMALL) is None
        assert terms._memo[terms._swaps][0]

    def test_budget_edge(self):
        # the search needs 42 states: 41 leave it unknown
        pair = (TestMemoDrops.START, TestMemoDrops.END)
        assert equal(*pair, Mode.C, SearchCaps(5, 8, 1, 41)) is None
        w = equal(*pair, Mode.C, SearchCaps(5, 8, 1, 42))
        assert w is not None and len(w) == 3

    def test_stops_at_first_meet(self, monkeypatch):
        # the contraction is a pair result of the first layer, and it is
        # the other side's start: no expansion is listed
        calls = []
        expansions = rewrite._expansions

        def counted(state, caps):
            calls.append(state)
            return expansions(state, caps)

        monkeypatch.setattr(rewrite, "_expansions", counted)
        w = equal(triangle_composite_a(), identity(1), Mode.C, SMALL)
        assert w is not None and len(w) == 1
        assert calls == []

    def test_decides_exactly_the_reachable_pairs(self):
        # the budget holds both whole components, so the search finds a
        # witness exactly when the two terms share one
        caps = SearchCaps(4, 6, 1, 4000)
        rng = random.Random(30)
        decided = []
        for k in range(30):
            mode = (Mode.C, Mode.D)[k % 2]
            t = sample_term(rng, rng.randint(0, 2), caps.max_gen_count, caps)
            component = reachable(t, mode, caps)
            if k % 4 < 2:
                v = rng.choice(sorted(component, key=packed_layers))
            else:
                v = rng.choice(generate_terms(t.source, t.target, caps))
            assert len(component) + len(reachable(v, mode, caps)) <= caps.max_states
            w = equal(t, v, mode, caps)
            assert (w is not None) == (canonical(v) in component)
            if w is not None:
                assert_replays(w, t, v)
            decided.append(w is not None)
        assert 0 < sum(decided) < len(decided)

    def test_shape_mismatch(self):
        with pytest.raises(NotEqualShape):
            equal(identity(1), identity(2), Mode.C, SMALL)

    def test_paths_replay_exactly(self):
        rng = random.Random(29)
        checked = 0
        while checked < 25:
            t = canonical(random_term(rng, max_source=2, max_len=2, max_width=6))
            others = neighbors(t, Mode.C, SMALL)
            if not others:
                continue
            u = others[rng.randrange(len(others))]
            for v in neighbors(u, Mode.C, SMALL)[:3]:
                w = equal(t, v, Mode.C, SMALL)
                assert w is not None
                assert_replays(w, t, v)
                checked += 1


class TestExplore:
    def test_zigzag_small_caps(self):
        rep = explore(snake(), Mode.C, SearchCaps(2, 8, 1, 100))
        assert rep.states_visited == 1
        assert not rep.identity_found
        assert rep.min_gen_count_seen == 2

    def test_triangle_control_finds_identity(self):
        rep = explore(triangle_composite_a(), Mode.C, SMALL)
        assert rep.identity_found
        assert rep.min_gen_count_seen == 0
        assert rep.witness_path is not None
        assert rep.witness_path[0] == canonical(triangle_composite_a())
        assert rep.witness_path[-1] == identity(1)

    def test_deterministic(self):
        caps = SearchCaps(4, 8, 2, 5000)
        r1 = explore(snake(), Mode.C, caps)
        r2 = explore(snake(), Mode.C, caps)
        assert r1.states_visited == r2.states_visited
        assert not r1.truncated

    def test_loop_never_reaches_empty_identity(self):
        # the scalar invariant of the loop differs from the identity's,
        # so soundness of rewriting makes this unreachable
        loop = compose(gen_term(eta(0, 1)), gen_term(eps(0, 1)))
        rep = explore(loop, Mode.C, SearchCaps(4, 6, 1, 5000))
        assert not rep.identity_found
        spec = FunctorSpec.identity(2)
        assert eval_term(spec, loop) != eval_term(spec, identity(0))

    def test_budget_truncation_reported(self):
        rep = explore(snake(), Mode.C, SearchCaps(6, 8, 1, 50))
        assert rep.truncated
        assert rep.states_visited <= 50

    @pytest.mark.parametrize(
        "budget, want", [(2412, (2412, True)), (2413, (2413, False)), (2414, (2413, False))]
    )
    def test_budget_edge(self, budget, want):
        # the class has 2,413 states: truncated only when one more would be new
        rep = explore(snake(), Mode.C, SearchCaps(6, 8, 2, budget))
        assert (rep.states_visited, rep.truncated) == want

    def test_whole_reachable_class_shares_the_zigzag_image(self):
        # rewriting preserves the matrix semantics, so everything reachable
        # from the zig-zag term evaluates to the identity; this is why the
        # matrix view alone can never witness the separation
        spec = FunctorSpec.identity(2)
        eye = eval_term(spec, identity(1))
        for state in reachable(snake(), Mode.C, SearchCaps(4, 8, 2, 5000)):
            assert eval_term(spec, state) == eye

    def test_start_must_fit_caps(self):
        with pytest.raises(ValueError):
            explore(snake(), Mode.C, SearchCaps(1, 8, 1, 100))

    def test_expansion_results_need_the_width_check(self):
        # an expansion fits the caps at its cut, but the least member of its
        # class can be wider: the closure must check expansion results too
        states = {rewrite._state(x) for x in reachable(snake(), Mode.C, DEFAULT_CAPS)}
        assert all(rewrite._respects(x, DEFAULT_CAPS) for x in states)
        wide = {
            (x[0], r)
            for x in states
            for _, r in rewrite._expansions(x, DEFAULT_CAPS)
            if not rewrite._respects((x[0], r), DEFAULT_CAPS)
        }
        assert wide


class TestMemoDrops:
    # the memo is dropped whole when full, and a search that outlives a
    # drop closes its states again; what it finds must not change
    START = parse_expr("(eta(0,1) * id(1)) ; eps(1,1) ; eta(1,1)")
    END = parse_expr(
        "eta(1,1) ; eta(3,1) ; (eta(1,1) * id(4)) ; (eps(2,1) * id(3)) ; (eps(2,1) * id(1))"
    )

    @staticmethod
    def results():
        tri = explore(triangle_composite_a(), Mode.C, DEFAULT_CAPS)
        w = equal(TestMemoDrops.START, TestMemoDrops.END, Mode.C, SearchCaps(5, 8, 1, 5000))
        return (
            reachable(snake(), Mode.C, DEFAULT_CAPS),
            (tri.states_visited, tri.min_gen_count_seen, tri.truncated, tri.witness_path),
            (w.terms, w.steps),
            enum_hom_detailed(2, 2, Mode.C, SearchCaps(3, 8, 1, 4000)),
            match_rules(snake(), Mode.C, DEFAULT_CAPS),
            match_rules(TestMemoDrops.START, Mode.C, DEFAULT_CAPS),
        )

    def test_drops_do_not_change_results(self, fresh_memo, monkeypatch):
        want = self.results()
        assert len(want[2][1]) == 3
        monkeypatch.setattr(terms, "_MEMO_CAP", 40)
        first = {}
        monkeypatch.setattr(terms, "_memo", first)
        got = self.results()
        assert terms._memo is not first
        assert got == want

    def test_many_drops_do_not_change_results(self, fresh_memo, monkeypatch):
        want = self.results()
        assert len(want[0]) == 2413 and want[1][:3] == (5313, 0, False)
        drops = []
        replace = terms._front_graph

        def counting(*moves):
            before = terms._memo
            graph = replace(*moves)
            if terms._memo is not before:
                drops.append(True)
            return graph

        monkeypatch.setattr(terms, "_front_graph", counting)
        monkeypatch.setattr(rewrite, "_front_graph", counting)
        monkeypatch.setattr(terms, "_MEMO_CAP", 300)
        monkeypatch.setattr(terms, "_memo", {})
        got = self.results()
        assert len(drops) > 50
        assert got == want

    def test_drops_during_generation(self, fresh_memo, monkeypatch):
        # generation fetches the memo per class it extends, so a small cap
        # replaces it mid-enumeration; the classes found must not change
        caps = SearchCaps(3, 8, 1, 4000)
        want = (generate_terms(2, 2, caps), enum_hom_detailed(2, 2, Mode.C, caps))
        monkeypatch.setattr(terms, "_MEMO_CAP", 40)
        first = {}
        monkeypatch.setattr(terms, "_memo", first)
        generated = generate_terms(2, 2, caps)
        assert terms._memo is not first
        assert (generated, enum_hom_detailed(2, 2, Mode.C, caps)) == want

    def test_normal_forms_drop_with_the_memo(self, fresh_memo, monkeypatch):
        want = normal_form(snake(), Mode.C)
        assert normal_form(snake(), Mode.C) == want
        monkeypatch.setattr(terms, "_memo", {})
        assert normal_form(snake(), Mode.C) == want

    def test_normal_form_found_across_a_drop_is_kept(self, fresh_memo, monkeypatch):
        # one closing keeps its graph, so a memo of 40 pairs is replaced
        # between calls; the forms found across replacements are the forms
        # found on a fresh memo
        cases = [(t, mode) for t in (self.START, self.END, snake()) for mode in Mode]
        want = []
        for t, mode in cases:
            monkeypatch.setattr(terms, "_memo", {})
            want.append(normal_form(t, mode))
        monkeypatch.setattr(terms, "_MEMO_CAP", 40)
        memos, got = [], []
        for t, mode in cases * 2:
            memos.append(terms._memo)
            got.append(normal_form(t, mode))
        assert any(a is not b for a, b in zip(memos, memos[1:]))
        assert got == want * 2


class TestSampleTerm:
    """The public random walk draws as a listing of ``slice_options`` would."""

    @staticmethod
    def reference_walk(rng, source, max_len, caps):
        lays, width = [], source
        for _ in range(rng.randint(0, max_len)):
            options = slice_options(width, caps.max_width, caps.max_index_n)
            if not options:
                break
            off, g = rng.choice(options)
            lays.append((off, g))
            width += g.delta
        return term_from_layers(source, lays)

    @pytest.mark.parametrize("caps", [SearchCaps(max_width=5, max_index_n=1), SearchCaps(max_width=6, max_index_n=2)])
    def test_same_draws_as_a_listing(self, caps):
        for seed in range(40):
            source = seed % 5
            t = sample_term(random.Random(seed), source, 4, caps)
            assert t == self.reference_walk(random.Random(seed), source, 4, caps)
            assert t.source == source and len(t.slices) <= 4
            assert max(t.widths()) <= max(caps.max_width, source)
            assert all(s.gen.n <= caps.max_index_n for s in t.slices)

    def test_walk_stops_where_no_layer_fits(self):
        # on no wires with width cap 1 neither a cup nor a cap fits
        rng = random.Random(3)
        for _ in range(10):
            assert sample_term(rng, 0, 5, SearchCaps(max_width=1, max_index_n=1)).slices == ()


class TestEnumHom:
    def test_odd_parity_is_empty(self):
        assert enum_hom_detailed(0, 1, Mode.C, SMALL).representatives == ()
        assert enum_hom_detailed(1, 0, Mode.C, SMALL).representatives == ()
        assert enum_hom_detailed(3, 0, Mode.C, SMALL).representatives == ()

    def test_zero_budget_identity_only(self):
        reps = enum_hom_detailed(1, 1, Mode.D, SearchCaps(0, 8, 1, 100)).representatives
        assert reps == (identity(1),)

    def test_loop_and_identity_distinct(self):
        caps = SearchCaps(2, 8, 1, 2000)
        detail = enum_hom_detailed(0, 0, Mode.C, caps)
        loop = canonical(compose(gen_term(eta(0, 1)), gen_term(eps(0, 1))))
        assert identity(0) in detail.representatives
        assert loop in detail.representatives
        assert detail.unresolved == ()

    def test_classes_share_matrix_image(self):
        spec = FunctorSpec.random(2, seed=30)
        detail = enum_hom_detailed(1, 1, Mode.C, SearchCaps(2, 6, 1, 2000))
        for cls in detail.classes:
            images = {eval_term(spec, t).entries for t in cls}
            assert len(images) == 1

    def test_first_representative_over_the_guard_raises(self):
        # eta(0,k) ; eps(0,k) is 2k wires wide; at d = 2 the guard is 20
        caps = SearchCaps(2, 24, 12, 100)
        with pytest.raises(TooLarge, match="^width 22 at dimension 2 exceeds"):
            enum_hom_detailed(0, 0, Mode.C, caps)

    @pytest.mark.parametrize(
        "caps",
        [SearchCaps(3, 8, 2), SearchCaps(4, 4, 1), SearchCaps(2, 2, 1), SearchCaps(0, 8, 2)],
        ids=["3-8-2", "4-4-1", "narrower-than-3", "no-generators"],
    )
    def test_candidates_match_word_listing(self, caps):
        for m in range(4):
            for n in range(4):
                assert generate_terms(m, n, caps) == hom_candidates(m, n, caps), (m, n)

    @pytest.mark.parametrize(
        "mode, m, n",
        [("C", 1, 1), ("C", 2, 0), ("C", 2, 2), ("D", 2, 2), ("D", 3, 1), ("D", 3, 3)],
    )
    def test_matches_pairwise_search(self, mode, m, n):
        caps, merge = SearchCaps(3, 8, 1, 4000), SearchCaps(5, 10, 1, 4000)
        detail = enum_hom_detailed(m, n, Mode[mode], caps, merge)
        reference = hom_classes_by_search(m, n, Mode[mode], caps, merge)
        assert detail.classes == reference.classes
        assert detail.unresolved == reference.unresolved


@st.composite
def small_terms(draw, max_source=3, max_len=3, max_width=6, max_index_n=1):
    width = source = draw(st.integers(0, max_source))
    lays = []
    for _ in range(draw(st.integers(0, max_len))):
        options = slice_options(width, max_width, max_index_n)
        if not options:
            break
        off, g = draw(st.sampled_from(options))
        lays.append((off, g))
        width += g.delta
    return term_from_layers(source, lays)


class TestNormalForm:
    @pytest.mark.parametrize("rule", sorted(TRIANGLE_RULES, key=lambda r: r.value))
    @pytest.mark.parametrize("i", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_triangle_composites_reach_identity(self, rule, i, n):
        lhs, rhs = rule_instance(rule, i=i, n=n)
        assert normal_form(lhs, Mode.C) == rhs == identity(i + n)

    def test_zigzag_is_irreducible(self):
        assert normal_form(snake(), Mode.C) == canonical(snake())
        assert normal_form(snake(), Mode.C) != identity(1)

    def test_sliding_instances_share_mode_d_normal_form(self):
        for rule, params, lhs, rhs in rule_instances((0, 1), (0, 1), (1,), (0, 1), (1, 2)):
            if rule not in NATURALITY_RULES:
                continue
            assert normal_form(lhs, Mode.D) == normal_form(rhs, Mode.D), (rule, params)
            assert canonical(lhs) != canonical(rhs)

    def test_tiny_limit_raises(self, fresh_memo, monkeypatch):
        # the work bound of ``terms`` stops a sliding closing as it stops an
        # interchange one; normal_form closes the sliding class first, so at
        # these bounds canonical passes and the sliding closing raises
        lhs, _ = rule_instance(RuleId.NAT_ETA_ETA, 0, 0, 1, 0, 1)
        tri = triangle_composite_a()
        t = compose(compose(tri, tri), compose(tri, tri))
        for term, bound in ((lhs, 1), (t, 1000)):
            monkeypatch.setattr(terms, "_WORK_CAP", bound)
            for mode in Mode:
                monkeypatch.setattr(terms, "_memo", {})
                canonical(term)
                monkeypatch.setattr(terms, "_memo", {})
                with pytest.raises(MonocatError, match="^sliding class too large to normalise$"):
                    normal_form(term, mode)

    def test_contracts_at_the_first_triangle_met(self, fresh_memo):
        # four TriangleA composites composed: the sliding class of this
        # 8-slice term has 11,726 members, and none is listed
        tri = triangle_composite_a()
        t = compose(compose(tri, tri), compose(tri, tri))
        assert render(normal_form(t, Mode.D)) == " ; ".join(["(eta(0,1) * id(1)) ; eps(1,1)"] * 4)
        assert normal_form(t, Mode.C) == identity(1)

    @pytest.mark.parametrize("m, n, gens", [(1, 1, 4), (2, 2, 3), (2, 0, 4)])
    def test_matches_closing_oracle(self, m, n, gens):
        # a member of a class has the term's generators: at most two cups
        # on one wire or one on two, so none is wider than 5 wires.  The
        # oracle closes each class and contracts its least member, so the
        # two agree by confluence modulo sliding
        caps = SearchCaps(gens, 5, 1)
        for t in generate_terms(m, n, caps):
            for mode in (Mode.C, Mode.D):
                assert normal_form(t, mode) == normal_form_by_closure(t, mode, caps), (t, mode)

    @settings(max_examples=60, deadline=None, database=None)
    @given(small_terms())
    def test_mode_c_neighbours_share_normal_form(self, t):
        caps = SearchCaps(5, 6, 1, 4000)
        form = normal_form(t, Mode.C)
        for u in neighbors(t, Mode.C, caps):
            assert normal_form(u, Mode.C) == form, (t, u)


def sliding_class(key: tuple) -> set:
    """The least keys of the sliding class of the least key ``key``, listed
    by closing under the sliding pair results."""
    members = {key}
    todo = [key]
    while todo:
        for r in _pair_results(todo.pop())[0]:
            if r not in members:
                members.add(r)
                todo.append(r)
    return members


def snakes(gens: int) -> list:
    """The composites (id(1) * u) ; (c * id(1)) of a unit class u of
    hom(0, 2) and a counit class c of hom(2, 0) with at most ``gens``
    generators, one per pair of mode-C classes."""
    caps = SearchCaps(gens, 8, 1)
    units = [cls[0] for cls in hom_classes(0, 2, Mode.C, caps)]
    counits = [cls[0] for cls in hom_classes(2, 0, Mode.C, caps)]
    return [compose(tensor(identity(1), u), tensor(c, identity(1))) for u in units for c in counits]


class TestSlidingClasses:
    """Normal forms against sliding classes listed member by member."""

    def test_snake_forms_are_least_members(self, fresh_memo):
        # 18 unit and 18 counit classes at <= 4 generators; a snake's class
        # has up to 227 members
        largest = 0
        terms_ = snakes(4)
        assert len(terms_) == 18 * 18
        for t in terms_:
            members = sliding_class(_canonical_key(packed_layers(t)))
            largest = max(largest, len(members))
            assert packed_layers(normal_form(t, Mode.D)) == min(members), t
        assert largest == 227

    def test_snakes_match_closing_oracle(self, fresh_memo):
        # every member fits in these caps: no member is wider than the
        # source with all its cups open.  The oracle takes seconds per
        # 6-generator snake at these caps, so the sample is small
        for t in random.Random(3).sample(snakes(4), 3):
            cups = sum(s.gen.n for s in t.slices if s.gen.kind is GenKind.ETA)
            caps = SearchCaps(gen_count(t), t.source + 2 * cups, 1)
            for mode in Mode:
                assert normal_form(t, mode) == normal_form_by_closure(t, mode, caps), (t, mode)

    def test_triangles_join_modulo_sliding(self, fresh_memo):
        # local confluence on small hom-sets: every triangle contraction of
        # every member of a key's sliding class has the key's mode-C form.
        # Each class is closed once; its members are all keys here, and
        # counted once per key of their class they are 23,519 contractions
        caps = SearchCaps(4, 8, 1)
        keys = contractions = 0
        for m, n in [(1, 1), (2, 2), (3, 3), (2, 0), (0, 2), (1, 3)]:
            form_of: dict = {}
            for key in sorted(_hom_keys(m, n, caps)):
                keys += 1
                form = _normal_form((m, key), Mode.C)
                if key not in form_of:
                    for x in sliding_class(key):
                        form_of[x] = form
                        for r in _pair_results(x)[1]:
                            contractions += 1
                            assert _normal_form((m, r), Mode.C) == form, (m, key, x, r)
                assert form_of[key] == form, (m, key)
        assert (keys, contractions) == (40421, 5252)


class TestEntriesPerMoveSet:
    def test_searches_and_forms_keep_their_own_entries(self, fresh_memo, monkeypatch):
        # a sliding least key is also an interchange least key, with another
        # class: its pair results under the swaps and its mode-C form under
        # the slides read two entries of one build function, which must not
        # be one entry whichever of them is built first
        caps = SearchCaps(4, 8, 1)
        keys = [
            (m, key)
            for m, n in [(1, 1), (1, 3), (0, 2)]
            for key in sorted({terms._front_graph(rewrite._slides).least(k) for k in _hom_keys(m, n, caps)})
        ]
        assert len(keys) == 340 + 173 + 23
        monkeypatch.setattr(terms, "_memo", {})
        pairs = [_pair_results(key) for _, key in keys]
        monkeypatch.setattr(terms, "_memo", {})
        forms = [_normal_form(x, Mode.C) for x in keys]
        monkeypatch.setattr(terms, "_memo", {})
        assert [(_pair_results(x[1]), _normal_form(x, Mode.C)) for x in keys] == list(zip(pairs, forms))
        monkeypatch.setattr(terms, "_memo", {})
        assert [(_normal_form(x, Mode.C), _pair_results(x[1])) for x in keys] == list(zip(forms, pairs))


class TestRuleInstanceTable:
    def test_table_covers_expected_grid(self):
        table = rule_instances()
        by_rule = {}
        for rule, params, lhs, rhs in table:
            by_rule.setdefault(rule, 0)
            by_rule[rule] += 1
            assert lhs.source == rhs.source and lhs.target == rhs.target
        for rule in (
            RuleId.NAT_ETA_ETA,
            RuleId.NAT_ETA_EPS,
            RuleId.NAT_EPS_ETA,
            RuleId.NAT_EPS_EPS,
        ):
            assert by_rule[rule] == 27 * 4
        assert by_rule[RuleId.TRIANGLE_A] == by_rule[RuleId.TRIANGLE_B] == 6

    def test_matcher_reproduces_literal_instances(self):
        # the engine must find, on each lhs, a step producing the rhs
        for rule, params, lhs, rhs in rule_instances((0, 1), (0, 1), (1,), (0, 1), (1,)):
            want = canonical(rhs)
            found = [
                step
                for step, _ in [
                    (s, None) for s in match_rules(lhs, Mode.C, SearchCaps(8, 12, 2, 100))
                ]
                if apply(lhs, step) == want and step.rule is rule
            ]
            assert found, (rule, params)


class TestInvariant:
    def test_rule_instances_agree(self):
        table = rule_instances((0, 1, 2, 3), (0, 1, 2, 3), (1, 2, 3), (0, 1, 2, 3), (1, 2, 3))
        assert len(table) == 4 * 576 + 2 * 12
        for rule, params, lhs, rhs in table:
            modes = (Mode.C,) if rule in TRIANGLE_RULES else (Mode.C, Mode.D)
            for mode in modes:
                assert invariant(lhs, mode) == invariant(rhs, mode), (rule, params, mode)

    def test_triangles_change_the_mode_d_invariant(self):
        lhs, rhs = rule_instance(RuleId.TRIANGLE_A, i=0, n=1)
        assert invariant(lhs, Mode.D) != invariant(rhs, Mode.D)

    @pytest.mark.parametrize(
        "start, states", [(snake, 2413), (triangle_composite_a, 5313)], ids=["zigzag", "triangleA"]
    )
    def test_constant_over_explored_states(self, start, states):
        found = reachable(start(), Mode.C, DEFAULT_CAPS)
        assert len(found) == states
        assert {invariant(x, Mode.C) for x in found} == {invariant(start(), Mode.C)}

    @settings(max_examples=80, deadline=None, database=None)
    @given(small_terms(max_width=7, max_index_n=2), st.sampled_from([Mode.C, Mode.D]))
    def test_preserved_by_every_step(self, t, mode):
        want = invariant(t, mode)
        for step in match_rules(t, mode, SearchCaps(5, 7, 2, 4000)):
            assert invariant(apply(t, step), mode) == want, (t, step)

    def test_separates_the_zigzag_from_the_identity(self):
        assert invariant(snake(), Mode.C) == ((1, (0, 1)),)
        assert invariant(identity(1), Mode.C) == ()
