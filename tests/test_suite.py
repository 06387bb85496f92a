import json
import re
from pathlib import Path

import pytest

from monocat import (
    FunctorSpec,
    Mat,
    Mode,
    PrimeField,
    RuleId,
    SearchCaps,
    Slice,
    Term,
    canonical,
    compose,
    eps,
    equal,
    eta,
    eval_term,
    gen_count,
    gen_term,
    identity,
    invariant,
    rule_instance,
    tensor,
)
from monocat import suite
from monocat.suite import (
    SuiteConfig,
    check_closedness,
    check_not_rigid,
    check_r_category,
    check_rule_soundness,
    check_skeletal_and_obstructions,
    run_all,
    snake_term,
    transpose,
    untranspose,
)

FAST_CFG = SuiteConfig(
    caps=SearchCaps(4, 6, 1, 3000),
    hom_caps=SearchCaps(2, 6, 1, 1500),
    obstruction_samples=15,
    nonsquare_samples=6,
)


class TestSnakeTerm:
    def test_shape(self):
        s = snake_term()
        assert s == Term(1, (Slice(0, eta(0, 1), 1), Slice(1, eps(0, 1), 0)))
        # generator counts 2 and 0 share parity, so the count invariant
        # alone cannot separate the zig-zag from the identity wire
        assert gen_count(s) == 2
        assert gen_count(identity(1)) == 0
        assert gen_count(s) % 2 == gen_count(identity(1)) % 2

    def test_matrix_image_is_identity(self):
        assert eval_term(FunctorSpec.identity(2), snake_term()) == Mat.identity(2)

    def test_differs_from_triangle_composite(self):
        lhs, _ = rule_instance(RuleId.TRIANGLE_A, i=0, n=1)
        assert snake_term().slices != lhs.slices
        assert snake_term().slices[1] == Slice(1, eps(0, 1), 0)
        assert lhs.slices[1] == Slice(0, eps(1, 1), 0)


class TestTranspose:
    def test_deletion_transposes_to_identity(self):
        t = transpose(gen_term(eps(0, 1)), 1)
        w = equal(t, identity(1), Mode.C, FAST_CFG.caps)
        assert w is not None and len(w) == 1
        assert w.steps[0].rule is RuleId.TRIANGLE_B

    def test_insertion_untransposes_to_identity(self):
        t = untranspose(gen_term(eta(0, 1)), 1)
        w = equal(t, identity(1), Mode.C, FAST_CFG.caps)
        assert w is not None and len(w) == 1
        assert w.steps[0].rule is RuleId.TRIANGLE_A

    @pytest.mark.parametrize("y", [1, 2])
    @pytest.mark.parametrize("x", [1, 2])
    def test_identity_roundtrip(self, y, x):
        rt = untranspose(transpose(identity(y + x), x), x)
        w = equal(rt, identity(y + x), Mode.C, SearchCaps(4, 10, 2, 3000))
        assert w is not None and len(w) <= 2

    def test_width_validation(self):
        with pytest.raises(ValueError):
            transpose(identity(1), 2)
        with pytest.raises(ValueError):
            untranspose(identity(1), 2)


class TestChecks:
    def test_closedness_passes(self):
        res = check_closedness(FAST_CFG)
        assert res.status == "pass"
        assert res.details["max_path_len"] == 1
        assert res.path == ["TriangleA"]

    def test_not_rigid(self):
        res = check_not_rigid(FAST_CFG)
        assert res.status == "pass"
        assert res.details["invariant"] == invariant(snake_term(), Mode.C) == ((1, (0, 1)),)
        assert res.details["identity_invariant"] == invariant(identity(1), Mode.C) == ()

    def test_not_rigid_fails_on_equal_invariants(self, monkeypatch):
        monkeypatch.setattr(suite, "invariant", lambda t, mode: ())
        res = check_not_rigid(FAST_CFG)
        assert res.status == "fail"
        assert res.details["invariant"] == res.details["identity_invariant"] == ()

    def test_rule_soundness_passes(self):
        cfg = SuiteConfig(dims=(1, 2), phi_seeds=(1,))
        table = [
            (rule, (i, 0, 1, 0, n), *rule_instance(rule, i=i, n=n))
            for rule in (RuleId.TRIANGLE_A, RuleId.TRIANGLE_B)
            for i in (0, 1)
            for n in (1, 2)
        ]
        table = [(r, p, lhs, rhs) for r, p, lhs, rhs in table]
        res = check_rule_soundness(cfg, table)
        assert res.status == "pass"

    def test_corrupted_rule_table_fails(self):
        lhs, _ = rule_instance(RuleId.TRIANGLE_A, i=1, n=1)
        bad_rhs = canonical(
            Term(2, (Slice(1, eta(1, 1), 0), Slice(0, eps(2, 1), 0)))
        )
        res = check_rule_soundness(FAST_CFG, [(RuleId.TRIANGLE_A, (1, 1), lhs, bad_rhs)])
        assert res.status == "fail"
        assert res.details["violations"]

    def test_obstructions_pass(self):
        res = check_skeletal_and_obstructions(FAST_CFG)
        assert res.status == "pass"
        assert res.details["rank_eps01"] == 1

    def test_obstructions_skipped_at_dimension_one(self):
        cfg = SuiteConfig(dims=(1,), obstruction_samples=5, nonsquare_samples=2)
        res = check_skeletal_and_obstructions(cfg)
        assert res.status == "pass"
        assert "skipped" in res.details

    def test_r_category_passes(self):
        res = check_r_category(FAST_CFG)
        assert res.status == "pass"
        by_y = {d["y"]: d for d in res.details["per_y"]}
        assert by_y[0]["source_classes"] == by_y[0]["target_classes"] == 0
        assert by_y[2]["source_classes"] == by_y[2]["target_classes"] == 0
        assert by_y[1]["source_classes"] >= 1
        assert by_y[1]["target_classes"] >= 2

    def test_r_category_reports_an_open_round_trip(self, monkeypatch):
        # a closed loop changes the mode-C normal form of every transpose
        loop = compose(gen_term(eta(0, 1)), gen_term(eps(0, 1)))
        plain = suite.transpose
        monkeypatch.setattr(suite, "transpose", lambda f, x: tensor(plain(f, x), loop))
        res = check_r_category(FAST_CFG)
        assert res.status == "fail"
        assert any(p["issue"] == "round trip open" for p in res.details["problems"])


class TestRunAll:
    def test_all_green_and_json_stable(self):
        r1 = run_all(FAST_CFG)
        r2 = run_all(FAST_CFG)
        assert not r1.failed
        assert {c.name for c in r1.checks} == {
            "rule_soundness",
            "closedness",
            "not_rigid",
            "skeletal_obstructions",
            "r_category",
            "automorphism_evidence",
        }
        assert r1.to_json(zero_timings=True) == r2.to_json(zero_timings=True)

    def test_failure_propagates(self):
        lhs, _ = rule_instance(RuleId.TRIANGLE_A, i=1, n=1)
        bad_rhs = canonical(
            Term(2, (Slice(1, eta(1, 1), 0), Slice(0, eps(2, 1), 0)))
        )
        report = run_all(FAST_CFG, rule_table=[(RuleId.TRIANGLE_A, (1, 1), lhs, bad_rhs)])
        assert report.failed

    def test_default_report_matches_golden_file(self):
        # the default suite's timing-free JSON; a change that keeps every
        # check's behaviour keeps it byte for byte, and one that changes a
        # check re-records it and argues each changed field
        golden = Path(__file__).parent / "data" / "suite_default.json"
        assert run_all(SuiteConfig()).to_json(zero_timings=True) == golden.read_text()

    def test_json_schema(self):
        report = run_all(FAST_CFG)
        data = json.loads(report.to_json())
        assert set(data) == {"config", "checks"}
        for entry in data["checks"]:
            assert {"name", "status", "details", "elapsed_s"} <= set(entry)
            assert entry["status"] in {"pass", "fail", "evidence"}
        assert all("states_visited" not in entry for entry in data["checks"])


class TestSuiteConfig:
    def test_dict_roundtrip(self):
        cfg = FAST_CFG
        again = SuiteConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_prime_field_config(self):
        cfg = SuiteConfig.from_dict({"field": "p:97"})
        assert cfg.field.p == 97
        assert cfg.to_dict()["field"] == "p:97"

    def test_default_prime_field_config(self):
        assert SuiteConfig.from_dict({"field": "p"}).field == PrimeField()

    def test_partial_caps_keep_their_defaults(self):
        cfg = SuiteConfig.from_dict({"hom_caps": {"max_states": 10}})
        assert cfg.hom_caps == SearchCaps(3, 8, 1, 10)
        assert cfg.caps == SuiteConfig().caps

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"hom_cap": {}}, "unknown key(s) in suite config: 'hom_cap'"),
            ({"caps": {"max_state": 5}}, "unknown key(s) in caps: 'max_state'"),
            ({"caps": 3}, "caps must be an object, got 3"),
            ({"hom_caps": {"max_states": "10"}}, "hom_caps.max_states must be an integer"),
            ({"hom_caps": {"max_width": 0}}, "max_width must be >= 1"),
            ({"dims": 2}, "dims must be a list of integers, got 2"),
            ({"dims": [1, "2"]}, "dims entry must be an integer, got '2'"),
            ({"phi_seeds": [1.5]}, "phi_seeds entry must be an integer"),
            ({"sample_seed": None}, "sample_seed must be an integer, got None"),
            ({"obstruction_samples": True}, "obstruction_samples must be an integer"),
            ({"field": "p:abc"}, "unknown field spec 'p:abc' (use q, p, or p:PRIME)"),
            ([], "suite config must be an object, got []"),
            ({"obstruction_samples": -5}, "obstruction_samples must be >= 0"),
            ({"nonsquare_samples": -1}, "nonsquare_samples must be >= 0"),
            ({"control_caps": {}}, "unknown key(s) in suite config: 'control_caps'"),
            ({"hom_merge_caps": {}}, "unknown key(s) in suite config: 'hom_merge_caps'"),
        ],
    )
    def test_malformed_config_rejected(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SuiteConfig.from_dict(data)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(dims=(4,))
