"""Acceptance criteria, one test per criterion, each printing a summary line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import random
import time

from monocat import (
    DEFAULT_CAPS,
    FunctorSpec,
    Mat,
    Mode,
    RuleId,
    SearchCaps,
    apply,
    canonical,
    coev_mat,
    equal,
    eta,
    eps,
    ev_mat,
    eval_term,
    explore,
    gen_count,
    gen_term,
    identity,
    kron,
    match_rules,
    rank,
    rule_instance,
    rule_instances,
)
from monocat.rewrite import TRIANGLE_RULES
from monocat.suite import (
    SuiteConfig,
    check_closedness,
    check_r_category,
    check_skeletal_and_obstructions,
    snake_term,
)
from oracles import random_term, shuffled


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_rule_soundness_sweep():
    t0 = time.perf_counter()
    table = rule_instances()  # i, j, l in {0,1,2}; k, n in {1,2}
    specs = [FunctorSpec.identity(d) for d in (1, 2)] + [
        FunctorSpec.random(d, seed=1) for d in (1, 2)
    ]
    checks = 0
    from monocat import check_rule_instance

    for rule, params, lhs, rhs in table:
        for spec in specs:
            assert check_rule_instance(spec, lhs, rhs), (rule.value, params, spec.d)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(1, f"{checks} relation instances map to exact matrix identities in {elapsed:.1f}s")


def test_criterion_2_tower_zigzag_identities():
    t0 = time.perf_counter()
    count = 0
    for seed in range(5):
        spec = FunctorSpec.random(2, seed=seed)
        for n in (1, 2, 3):
            eye = Mat.identity(2**n)
            cup, cap = coev_mat(spec, n), ev_mat(spec, n)
            assert kron(eye, cap) @ kron(cup, eye) == eye
            assert kron(cap, eye) @ kron(eye, cup) == eye
            count += 2
    report(2, f"{count} matrix zig-zag composites equal the identity exactly ({time.perf_counter()-t0:.1f}s)")


def test_criterion_3_closedness():
    t0 = time.perf_counter()
    res = check_closedness(SuiteConfig())
    assert res.status == "pass", res.details
    assert res.details["max_path_len"] == 1
    report(
        3,
        f"both triangle families reduce in one step and transpose round trips close "
        f"within two ({time.perf_counter()-t0:.1f}s)",
    )


def test_criterion_4_non_rigidity_evidence():
    t0 = time.perf_counter()
    caps = DEFAULT_CAPS  # gens <= 6, width <= 8, block index <= 2, 100000 states
    first = explore(snake_term(), Mode.C, caps)
    second = explore(snake_term(), Mode.C, caps)
    elapsed = time.perf_counter() - t0
    assert not first.identity_found
    assert not first.truncated
    assert first.states_visited == second.states_visited == 2413
    assert first.witness_path is None
    assert elapsed < 600.0
    report(
        4,
        f"closure of the zig-zag term: {first.states_visited} states, identity never "
        f"reached, deterministic across runs (sequential engine), {elapsed:.1f}s",
    )


def test_criterion_5_invariant_suite():
    t0 = time.perf_counter()
    rng = random.Random(99)

    sliding_applied = 0
    while sliding_applied < 1000:
        t = canonical(random_term(rng, max_source=3, max_len=4, max_width=7))
        for step in match_rules(t, Mode.D, DEFAULT_CAPS):
            assert gen_count(apply(t, step)) == gen_count(t)
            sliding_applied += 1
            if sliding_applied == 1000:
                break

    triangle_applied = 0
    while triangle_applied < 1000:
        t = canonical(random_term(rng, max_source=2, max_len=3, max_width=6))
        for step in match_rules(t, Mode.C, SearchCaps(5, 8, 1, 1000)):
            if step.rule not in TRIANGLE_RULES:
                continue
            assert abs(gen_count(apply(t, step)) - gen_count(t)) == 2
            triangle_applied += 1
            if triangle_applied == 1000:
                break

    for _ in range(1000):
        t = random_term(rng, max_source=3, max_len=4, max_width=7)
        c = canonical(t)
        assert canonical(c) == c
        assert canonical(shuffled(rng, t, moves=8)) == c

    report(
        5,
        f"1000 sliding steps preserved the generator count, 1000 triangle steps "
        f"changed it by two, normal form idempotent and shuffle-invariant over 1000 "
        f"trials ({time.perf_counter()-t0:.1f}s)",
    )


def test_criterion_6_obstruction_checks():
    t0 = time.perf_counter()
    cfg = SuiteConfig()  # 100 samples per forbidden shape at d = 2
    res = check_skeletal_and_obstructions(cfg)
    assert res.status == "pass", res.details
    assert res.details["shape_samples"] == 200
    m = eval_term(FunctorSpec.identity(2), gen_term(eps(0, 1)))
    assert m.cols == 4 and rank(m) == 1
    report(
        6,
        f"200 sampled forbidden-shape arrows certified non-invertible; the basic "
        f"deletion has rank 1 of 4 columns ({time.perf_counter()-t0:.1f}s)",
    )


def test_criterion_7_r_category_instantiation():
    t0 = time.perf_counter()
    res = check_r_category(SuiteConfig())
    assert res.status == "pass", res.details
    pairs = sum(d["budget_pairs"] for d in res.details["per_y"])
    report(
        7,
        f"transpose/untranspose put enumerated hom classes in bijection with all "
        f"round trips closing ({pairs} budget pairings, {time.perf_counter()-t0:.1f}s)",
    )


def test_criterion_8_functor_blindness():
    t0 = time.perf_counter()
    s = snake_term()
    tested = 0
    for d in (1, 2, 3):
        for spec in (
            FunctorSpec.identity(d),
            FunctorSpec.random(d, seed=4),
            FunctorSpec.random(d, seed=5),
        ):
            assert eval_term(spec, s) == Mat.identity(d, spec.field)
            tested += 1
    outcome = equal(s, identity(1), Mode.C, DEFAULT_CAPS)
    assert outcome is None
    report(
        8,
        f"all {tested} matrix semantics send the zig-zag term to the identity, yet "
        f"bounded search cannot equate it with the identity wire "
        f"({time.perf_counter()-t0:.1f}s)",
    )
