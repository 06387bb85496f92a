import random

import pytest

from monocat import (
    DEFAULT_CAPS,
    Direction,
    FunctorSpec,
    InvalidStep,
    Mode,
    NotEqualShape,
    RewriteStep,
    RuleId,
    SearchCaps,
    apply,
    canonical,
    compose,
    enum_hom,
    enum_hom_detailed,
    eps,
    equal,
    eta,
    eval_term,
    explore,
    gen_count,
    gen_term,
    identity,
    match_rules,
    neighbors,
    rule_instance,
    rule_instances,
    whisker,
)
from monocat.rewrite import TRIANGLE_RULES, find_inverse, term_key
from oracles import neighbors_oracle, random_term, snake

SMALL = SearchCaps(4, 8, 1, 2000)


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
        t = triangle_composite_a()
        step = next(
            s for s in match_rules(t, Mode.C, SMALL) if s.rule is RuleId.TRIANGLE_A
        )
        with pytest.raises(InvalidStep):
            apply(triangle_composite_b(), step)

    @pytest.mark.parametrize("block, index_n", [(0, 0), (-1, 1)])
    def test_malformed_expansion_rejected(self, block, index_n):
        step = RewriteStep(
            RuleId.TRIANGLE_A,
            Direction.BACKWARD,
            cut=(),
            offset=0,
            block=block,
            index_n=index_n,
        )
        with pytest.raises(InvalidStep):
            apply(identity(1), step)

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
            inv = find_inverse(t, step)
            assert apply(apply(t, step), inv) == canonical(t)
            assert inv.rule is step.rule and inv.direction is not step.direction
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
            got = {term_key(x) for x in neighbors(t, mode, caps)}
            want = {term_key(x) for x in neighbors_oracle(t, mode, caps)}
            assert got == want

    def test_agrees_with_oracle_at_wider_indices(self):
        caps = SearchCaps(6, 8, 2, 2000)
        rng = random.Random(24)
        for _ in range(12):
            t = random_term(rng, max_source=3, max_len=3, max_width=7, max_index_n=2)
            for mode in (Mode.D, Mode.C):
                got = {term_key(x) for x in neighbors(t, mode, caps)}
                want = {term_key(x) for x in neighbors_oracle(t, mode, caps)}
                assert got == want

    def test_rewrites_preserve_matrix_image(self):
        rng = random.Random(25)
        specs = [FunctorSpec.identity(2), FunctorSpec.random(2, seed=26)]
        for _ in range(20):
            t = canonical(random_term(rng, max_source=2, max_len=3, max_width=6))
            images = [eval_term(sp, t) for sp in specs]
            for u in neighbors(t, Mode.C, SMALL):
                for sp, img in zip(specs, images):
                    assert eval_term(sp, u) == img


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
                cur = w.terms[0]
                assert cur == canonical(t)
                for step, expected in zip(w.steps, w.terms[1:]):
                    cur = apply(cur, step)
                    assert cur == expected
                assert cur == canonical(v)
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

    def test_whole_reachable_class_shares_the_zigzag_image(self):
        # rewriting preserves the matrix semantics, so everything reachable
        # from the zig-zag term evaluates to the identity; this is why the
        # matrix view alone can never witness the separation
        rep = explore(snake(), Mode.C, SearchCaps(4, 8, 2, 5000), collect_states=True)
        assert not rep.truncated
        spec = FunctorSpec.identity(2)
        eye = eval_term(spec, identity(1))
        for state in rep.states:
            assert eval_term(spec, state) == eye

    def test_start_must_fit_caps(self):
        with pytest.raises(ValueError):
            explore(snake(), Mode.C, SearchCaps(1, 8, 1, 100))


class TestEnumHom:
    def test_odd_parity_is_empty(self):
        assert enum_hom(0, 1, Mode.C, SMALL) == []
        assert enum_hom(1, 0, Mode.C, SMALL) == []
        assert enum_hom(3, 0, Mode.C, SMALL) == []

    def test_zero_budget_identity_only(self):
        assert enum_hom(1, 1, Mode.D, SearchCaps(0, 8, 1, 100)) == [identity(1)]

    def test_loop_and_identity_distinct(self):
        caps = SearchCaps(2, 8, 1, 2000)
        reps = enum_hom(0, 0, Mode.C, caps)
        loop = canonical(compose(gen_term(eta(0, 1)), gen_term(eps(0, 1))))
        assert identity(0) in reps
        assert loop in reps
        detail = enum_hom_detailed(0, 0, Mode.C, caps)
        assert detail.unresolved == ()

    def test_classes_share_matrix_image(self):
        spec = FunctorSpec.random(2, seed=30)
        detail = enum_hom_detailed(1, 1, Mode.C, SearchCaps(2, 6, 1, 2000))
        for cls in detail.classes:
            images = {eval_term(spec, t).entries for t in cls}
            assert len(images) == 1


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
