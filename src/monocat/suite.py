"""Evidence suite: orchestrated checks over the rewrite engine and the
matrix semantics.

Each check returns a machine-readable result:

* ``pass`` / ``fail``: a definite expected outcome held or did not;
* ``evidence``: a bounded-search conclusion (sound under its caps, not a
  proof of the unbounded statement); only ``automorphism_evidence``
  reports it.

Checks are independent and deterministic; reports merge by check name in
a fixed order, so the JSON output is stable (timings can be zeroed for
byte-identical runs).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, fields, replace

from . import vect
from .rewrite import (
    DEFAULT_CAPS,
    Mode,
    RuleId,
    SearchCaps,
    TRIANGLE_RULES,
    enum_hom_detailed,
    equal,
    hom_classes,
    invariant,
    normal_form,
    rule_instance,
    rule_instances,
    sample_term,
)
from .terms import (
    Slice,
    Term,
    compose,
    eps,
    eta,
    gen_count,
    gen_term,
    identity,
    render,
    tensor,
    upside_down,
)
from .vect import RATIONALS, FunctorSpec, PrimeField, RationalField, field_of


def snake_term() -> Term:
    """The zig-zag composite on one wire: insert on the left, delete on the
    right.  Its image under every matrix semantics is the identity, yet no
    bounded rewrite search reduces it to the identity wire."""
    return Term(1, (Slice(0, eta(0, 1), 1), Slice(1, eps(0, 1), 0)))


def transpose(f: Term, x: int) -> Term:
    """Adjunction transpose: turn f : y + x -> z into y -> z + x.

    Prepends an insertion on the last x wires: (f (x) id_x) . eta(y, x).
    """
    y = f.source - x
    if x < 1 or y < 0:
        raise ValueError(f"cannot transpose a {f.source}-wide source along x={x}")
    return compose(gen_term(eta(y, x)), tensor(f, identity(x)))


def untranspose(g: Term, x: int) -> Term:
    """Inverse transpose: turn g : y -> z + x into y + x -> z.

    Appends a deletion of the last x wires: eps(z, x) . (g (x) id_x).
    """
    z = g.target - x
    if x < 1 or z < 0:
        raise ValueError(f"cannot untranspose a {g.target}-wide target along x={x}")
    return compose(tensor(g, identity(x)), gen_term(eps(z, x)))


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    caps: SearchCaps = DEFAULT_CAPS
    dims: tuple[int, ...] = (1, 2)
    phi_seeds: tuple[int, ...] = (1,)
    field: RationalField | PrimeField = RATIONALS
    hom_caps: SearchCaps = SearchCaps(3, 8, 1, 4000)
    sample_seed: int = 2024
    obstruction_samples: int = 100
    nonsquare_samples: int = 20

    def __post_init__(self) -> None:
        if not self.dims or not set(self.dims) <= {1, 2, 3}:
            raise ValueError("dims must be a non-empty subset of {1, 2, 3}")
        for name in ("obstruction_samples", "nonsquare_samples"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def functor_specs(self, d: int) -> list[FunctorSpec]:
        specs = [FunctorSpec.identity(d, self.field)]
        specs += [FunctorSpec.random(d, seed, self.field) for seed in self.phi_seeds]
        return specs

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, SearchCaps):
                value = asdict(value)
            elif isinstance(value, tuple):
                value = list(value)
            elif f.name == "field":
                value = "q" if isinstance(value, RationalField) else f"p:{value.p}"
            out[f.name] = value
        return out

    @staticmethod
    def from_dict(data: dict) -> "SuiteConfig":
        """The config :meth:`to_dict` describes; omitted keys keep their defaults.

        Raises ValueError on unknown keys and malformed values.
        """
        base = SuiteConfig()
        values = {}
        for name, value in _known_keys("suite config", data, base).items():
            default = getattr(base, name)
            if name == "field":
                value = field_of(value)
            elif isinstance(default, SearchCaps):
                given = _known_keys(name, value, default)
                value = replace(
                    default, **{k: _config_int(f"{name}.{k}", v) for k, v in given.items()}
                )
            elif isinstance(default, tuple):
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{name} must be a list of integers, got {value!r}")
                value = tuple(_config_int(f"{name} entry", v) for v in value)
            else:
                value = _config_int(name, value)
            values[name] = value
        return replace(base, **values)


def _known_keys(where: str, given, like) -> dict:
    """``given``, checked to be an object whose keys name fields of the dataclass ``like``."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be an object, got {given!r}")
    unknown = sorted(set(given) - {f.name for f in fields(like)})
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    return given


def _config_int(where: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "evidence"
    details: dict
    path: list | None = None
    elapsed_s: float = 0.0

    def to_dict(self, zero_timings: bool = False) -> dict:
        out = {"name": self.name, "status": self.status, "details": self.details}
        if self.path is not None:
            out["path"] = self.path
        out["elapsed_s"] = 0.0 if zero_timings else round(self.elapsed_s, 3)
        return out


@dataclass
class SuiteReport:
    config: SuiteConfig
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_dict(self, zero_timings: bool = False) -> dict:
        return {
            "config": self.config.to_dict(),
            "checks": [c.to_dict(zero_timings) for c in self.checks],
        }

    def to_json(self, zero_timings: bool = False) -> str:
        return json.dumps(self.to_dict(zero_timings), indent=2)


# -- individual checks ---------------------------------------------------------


def check_rule_soundness(cfg: SuiteConfig, table=None) -> CheckResult:
    """Every relation instance maps to a matrix identity, for each
    configured dimension and pairing."""
    if table is None:
        table = rule_instances()
    bad = []
    checked = 0
    for d in cfg.dims:
        for spec in cfg.functor_specs(d):
            for rule, params, lhs, rhs in table:
                checked += 1
                if not vect.check_rule_instance(spec, lhs, rhs):
                    bad.append({"rule": rule.value, "params": list(params), "d": d})
    status = "pass" if not bad else "fail"
    return CheckResult(
        "rule_soundness",
        status,
        {"instances": len(table), "checks": checked, "violations": bad},
    )


def check_closedness(cfg: SuiteConfig) -> CheckResult:
    """Both triangle composites reduce to the identity in one step, and the
    transpose round trips on the generator families close within two."""
    problems = []
    rules_used = set()
    max_len = 0
    instances = 0
    first_path = None

    def expect_equal(desc, a, b, limit):
        nonlocal max_len, first_path
        w = equal(a, b, Mode.C, cfg.caps)
        if w is None or len(w) > limit:
            problems.append({"case": desc, "found": None if w is None else len(w)})
            return
        max_len = max(max_len, len(w))
        for st in w.steps:
            rules_used.add(st.rule)
        if first_path is None and len(w) > 0:
            first_path = [st.rule.value for st in w.steps]

    for i in (0, 1, 2):
        for n in (1, 2):
            instances += 2
            lhs_a, rhs_a = rule_instance(RuleId.TRIANGLE_A, i=i, n=n)
            expect_equal(f"triangleA i={i} n={n}", lhs_a, rhs_a, 1)
            lhs_b, rhs_b = rule_instance(RuleId.TRIANGLE_B, i=i, n=n)
            expect_equal(f"triangleB i={i} n={n}", lhs_b, rhs_b, 1)
            # transposing a deletion yields one triangle side, untransposing
            # an insertion the other; both must collapse in one step
            expect_equal(
                f"transpose eps({i},{n})",
                transpose(gen_term(eps(i, n)), n),
                identity(i + n),
                1,
            )
            expect_equal(
                f"untranspose eta({i},{n})",
                untranspose(gen_term(eta(i, n)), n),
                identity(i + n),
                1,
            )
    for y in (1, 2):
        for x in (1, 2):
            expect_equal(
                f"roundtrip id y={y} x={x}",
                untranspose(transpose(identity(y + x), x), x),
                identity(y + x),
                2,
            )
    stray = {r.value for r in rules_used if r not in TRIANGLE_RULES}
    if stray:
        problems.append({"case": "non-triangle rules in closedness paths", "rules": sorted(stray)})
    status = "pass" if not problems else "fail"
    return CheckResult(
        "closedness",
        status,
        {
            "triangle_instances": instances,
            "max_path_len": max_len,
            "problems": problems,
        },
        path=first_path,
    )


def check_not_rigid(cfg: SuiteConfig) -> CheckResult:
    """The zig-zag term is not the identity wire in mode C: their rewrite
    invariants differ, so no rewrite path joins them under any caps."""
    s = snake_term()
    details = {
        "start": render(s),
        "invariant": invariant(s, Mode.C),
        "identity_invariant": invariant(identity(1), Mode.C),
    }
    status = "pass" if details["invariant"] != details["identity_invariant"] else "fail"
    return CheckResult("not_rigid", status, details)


def check_skeletal_and_obstructions(cfg: SuiteConfig) -> CheckResult:
    """Sampled arrows of the two forbidden factorisations are certified
    non-invertible, and arrows between distinct widths always are."""
    if max(cfg.dims) < 2:
        return CheckResult(
            "skeletal_obstructions",
            "pass",
            {"skipped": "needs a configured dimension >= 2"},
        )
    spec = FunctorSpec.identity(2, RATIONALS)
    rng = random.Random(cfg.sample_seed)
    walk_caps = SearchCaps(max_width=5, max_index_n=1)
    bad = []

    def sample_shape(leading: bool):
        for _ in range(cfg.obstruction_samples):
            while True:
                i1 = rng.randint(0, 2)
                j = rng.randint(0, 1)
                k = rng.randint(1, 2)
                i2 = rng.randint(0, 2)
                if i1 + j + 2 * k + i2 <= 5:
                    break
            if leading:
                del_slice = Slice(i1, eps(j, k), i2)
                g = sample_term(rng, del_slice.target_width, 3, walk_caps)
                t = compose(Term(del_slice.source_width, (del_slice,)), g)
            else:
                ins_slice = Slice(i1, eta(j, k), i2)
                g = upside_down(sample_term(rng, ins_slice.source_width, 3, walk_caps))
                t = compose(g, Term(ins_slice.source_width, (ins_slice,)))
            verdict = vect.iso_obstruction(spec, t)
            if not verdict.not_iso:
                bad.append({"shape": "leading" if leading else "trailing", "term": render(t)})

    sample_shape(leading=True)
    sample_shape(leading=False)

    nonsquare_checked = 0
    attempts = 0
    nonsquare_caps = SearchCaps(max_width=6, max_index_n=1)
    while nonsquare_checked < cfg.nonsquare_samples and attempts < 10_000:
        attempts += 1
        t = sample_term(rng, rng.randint(0, 4), 3, nonsquare_caps)
        if t.source == t.target:
            continue
        nonsquare_checked += 1
        verdict = vect.iso_obstruction(spec, t)
        if not (verdict.not_iso and "non-square" in (verdict.reason or "")):
            bad.append({"shape": "non-square", "term": render(t)})

    eps_rank = vect.rank(vect.eval_term(spec, gen_term(eps(0, 1))))
    if eps_rank != 1:
        bad.append({"shape": "eps(0,1) rank", "rank": eps_rank})
    status = "pass" if not bad else "fail"
    return CheckResult(
        "skeletal_obstructions",
        status,
        {
            "shape_samples": 2 * cfg.obstruction_samples,
            "nonsquare_samples": nonsquare_checked,
            "rank_eps01": eps_rank,
            "violations": bad,
        },
    )


def check_r_category(cfg: SuiteConfig) -> CheckResult:
    """The transpose maps put enumerated hom classes in bijection.

    For x = 1 and y in {0, 1, 2}: every enumerated class of arrows
    y+1 -> 0 transposes into exactly one enumerated class of arrows
    y -> 1 with the round trip closing, and all enumerated target classes
    below the generator budget are hit (and symmetrically back).  A
    transpose lands in the class with its normal form, and a round trip
    closes when it keeps its start's normal form.
    """
    x = 1
    per_y = []
    problems = []
    nf = lambda t: normal_form(t, Mode.C)

    for y in (0, 1, 2):
        src = enum_hom_detailed(y + x, 0, Mode.C, cfg.hom_caps)
        tgt = enum_hom_detailed(y, x, Mode.C, cfg.hom_caps)
        budget = cfg.hom_caps.max_gen_count - 1

        # round trips close for every enumerated class, both directions: a
        # shared normal form is a rewrite path
        for scls in src.classes:
            rep = scls[0]
            if nf(untranspose(transpose(rep, x), x)) != nf(rep):
                problems.append({"y": y, "issue": "round trip open", "source": render(rep)})
        for tcls in tgt.classes:
            rep = tcls[0]
            if nf(transpose(untranspose(rep, x), x)) != nf(rep):
                problems.append({"y": y, "issue": "round trip open", "target": render(rep)})

        # within the generator budget the transposes land in an enumerated
        # class on the other side: the maps are mutually inverse bijections
        # on that portion, so every budget class is hit
        def budget_map(classes, other, move, side):
            index = {nf(cls[0]): ci for ci, cls in enumerate(other)}
            found = {}
            for ci, cls in enumerate(classes):
                if gen_count(cls[0]) > budget:
                    continue
                hit = index.get(nf(move(cls[0], x)))
                if hit is None:
                    problems.append(
                        {"y": y, "issue": f"{move.__name__} image in no enumerated class",
                         side: render(cls[0])}
                    )
                else:
                    found[ci] = hit
            return found

        fwd = budget_map(src.classes, tgt.classes, transpose, "source")
        bwd = budget_map(tgt.classes, src.classes, untranspose, "target")
        for si, ti in fwd.items():
            if ti in bwd and bwd[ti] != si:
                problems.append({"y": y, "issue": "maps not mutually inverse", "source_class": si})
        if len(set(fwd.values())) != len(fwd):
            problems.append({"y": y, "issue": "transpose not injective on budget classes"})
        if len(set(bwd.values())) != len(bwd):
            problems.append({"y": y, "issue": "untranspose not injective on budget classes"})

        per_y.append(
            {
                "y": y,
                "source_classes": len(src.classes),
                "target_classes": len(tgt.classes),
                "budget_pairs": len(fwd) + len(bwd),
                # class pairs that no matrix image separates
                "unresolved_pairs": len(src.unresolved) + len(tgt.unresolved),
            }
        )
    status = "pass" if not problems else "fail"
    return CheckResult("r_category", status, {"per_y": per_y, "problems": problems})


def check_automorphism_evidence(cfg: SuiteConfig) -> CheckResult:
    """Every witnessed automorphism among enumerated endo classes has the
    identity's normal form.

    A class is witnessed invertible when some enumerated partner composes
    with it to the identity's normal form in both orders.  An invertible
    matrix image alone does not qualify (the zig-zag composite has image
    id everywhere); this is bounded support for reading the candidate
    duality maps as plain insertions and deletions.
    """
    nf = lambda t: normal_form(t, Mode.C)
    details = {}
    stray = []
    for w in (1, 2):
        reps = [cls[0] for cls in hom_classes(w, w, Mode.C, cfg.hom_caps)]
        one = identity(w)
        witnessed = [
            t
            for t in reps
            if any(nf(compose(t, u)) == one and nf(compose(u, t)) == one for u in reps)
        ]
        stray += [{"width": w, "term": render(t)} for t in witnessed if nf(t) != one]
        details[f"width_{w}_classes"] = len(reps)
        details[f"width_{w}_witnessed_automorphisms"] = len(witnessed)
    details["non_identity_automorphisms"] = stray
    status = "evidence" if not stray else "fail"
    return CheckResult("automorphism_evidence", status, details)


CHECKS = (
    check_rule_soundness,
    check_closedness,
    check_not_rigid,
    check_skeletal_and_obstructions,
    check_r_category,
    check_automorphism_evidence,
)


def run_all(cfg: SuiteConfig | None = None, rule_table=None) -> SuiteReport:
    """Run every check; ``rule_table`` overrides the relation instance
    sweep (test hook for deliberately corrupted tables)."""
    cfg = cfg if cfg is not None else SuiteConfig()
    report = SuiteReport(config=cfg)
    for check in CHECKS:
        t0 = time.perf_counter()
        if check is check_rule_soundness:
            result = check(cfg, rule_table)
        else:
            result = check(cfg)
        result.elapsed_s = time.perf_counter() - t0
        report.checks.append(result)
    return report
