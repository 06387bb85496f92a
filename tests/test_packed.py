"""The packed layer form that ``terms`` and ``rewrite`` run on.

A layer ``(offset, kind, m, n)`` is one int inside the engine; these tests
hold it to the slices it stands for: the round trip, the order, the field
limits, and the swap and match routines against literal versions on
``(offset, kind_value, m, n)`` tuples.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocat import (
    DEFAULT_CAPS,
    GenKind,
    Mode,
    MonocatError,
    RuleId,
    SearchCaps,
    Term,
    canonical,
    eps,
    equal,
    eta,
    gen_term,
    match_rules,
    normal_form,
    rule_instances,
    tensor,
    whisker,
)
from monocat import terms
from monocat.cli import main
from monocat.rewrite import Direction, _match_pair
from monocat.terms import (
    LayerOutOfRange,
    _swaps,
    pack_layer,
    term_from_packed,
)
from oracles import random_term, term_order

M_LIMIT = 1 << terms.M_BITS
N_LIMIT = 1 << terms.N_BITS

layers = st.tuples(
    st.integers(0, 1 << 40),
    st.sampled_from(["eps", "eta"]),
    st.integers(0, M_LIMIT - 1),
    st.integers(1, N_LIMIT - 1),
)


def pack(lay) -> int:
    """The packed layer of the tuple ``(offset, kind_value, m, n)``."""
    off, kv, m, n = lay
    return pack_layer(off, GenKind(kv), m, n)


def unpack(k: int) -> tuple:
    """The tuple ``(offset, kind_value, m, n)`` of the packed layer ``k``."""
    kv = "eta" if k & terms.ETA_BIT else "eps"
    return (k >> terms.OFF_SHIFT, kv, k >> terms.M_SHIFT & terms.M_MASK, k & terms.N_MASK)


def decoded(lay, k: int) -> tuple:
    """The packed layer ``k`` read back as a one-slice term, on the source
    width of the tuple ``lay``, as its ``term_order`` tuple."""
    off, kv, m, n = lay
    source = off + (m if kv == "eta" else m + 2 * n)
    (got,) = term_order(term_from_packed(source, (k,)))[1]
    return got


class TestPacking:
    @settings(max_examples=300, deadline=None, database=None)
    @given(layers, layers)
    def test_round_trip_and_order(self, u, v):
        pu, pv = pack(u), pack(v)
        assert decoded(u, pu) == u and decoded(v, pv) == v
        assert (pu < pv) == (u < v) and (pu == pv) == (u == v)

    def test_limits(self):
        top = (7, "eta", M_LIMIT - 1, N_LIMIT - 1)
        assert decoded(top, pack(top)) == top
        for past in ((0, "eta", M_LIMIT, 1), (0, "eps", 0, N_LIMIT)):
            with pytest.raises(LayerOutOfRange, match=f"below {M_LIMIT} and n below {N_LIMIT}"):
                pack(past)

    def test_term_at_the_limit(self):
        t = whisker(0, eps(M_LIMIT - 1, 1), 0)
        assert canonical(t) == t
        u = tensor(gen_term(eta(0, N_LIMIT - 1)), gen_term(eps(0, 1)))
        assert term_order(canonical(u))[1] == ((0, "eps", 0, 1), (0, "eta", 0, N_LIMIT - 1))

    @pytest.mark.parametrize(
        "g", [lambda: eps(M_LIMIT, 1), lambda: eta(0, N_LIMIT)], ids=["m", "n"]
    )
    def test_term_past_the_limit(self, g):
        with pytest.raises(MonocatError, match=str(M_LIMIT)):
            canonical(gen_term(g()))

    def test_rewrite_past_the_limit(self):
        # sliding eps(0,1) under eta(m,1) raises that eta's m by 2
        t = tensor(gen_term(eps(0, 1)), gen_term(eta(M_LIMIT - 3, 1)))
        (step,) = match_rules(t, Mode.D)
        assert step.rule is RuleId.NAT_ETA_EPS and step.row.slices[1].gen == eta(M_LIMIT - 3, 1)
        t = tensor(gen_term(eps(0, 1)), gen_term(eta(M_LIMIT - 2, 1)))
        assert canonical(t) == t
        with pytest.raises(LayerOutOfRange, match=str(M_LIMIT)):
            match_rules(t, Mode.D)
        with pytest.raises(LayerOutOfRange):
            normal_form(t, Mode.D)

    def test_cli_normalize_at_and_past_the_limit(self, capsys):
        assert main(["normalize", f"eps({M_LIMIT - 1},1)"]) == 0
        assert capsys.readouterr().out.strip() == f"eps({M_LIMIT - 1},1)"
        assert main(["normalize", f"eps({M_LIMIT},1)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"m must be below {M_LIMIT}" in err
        assert main(["normalize", f"eta(0,{N_LIMIT})"]) == 2
        assert f"n below {N_LIMIT}" in capsys.readouterr().err


# -- literal tuple-level versions ---------------------------------------------


def swaps_tuple(u, v):
    ou, ku, mu, nu = u
    ov, kv, mv, nv = v
    out = []
    if ov + (mv if kv == "eta" else mv + 2 * nv) <= ou:
        out.append((v, (ou + (2 * nv if kv == "eta" else -2 * nv), ku, mu, nu)))
    if ov >= ou + (mu + 2 * nu if ku == "eta" else mu):
        out.append(((ov - (2 * nu if ku == "eta" else -2 * nu), kv, mv, nv), u))
    return out


def match_pair_tuple(u, v):
    a, ku, mu, nu = u
    c, kv, mv, nv = v
    rule_of = {
        ("eta", "eta"): RuleId.NAT_ETA_ETA,
        ("eta", "eps"): RuleId.NAT_ETA_EPS,
        ("eps", "eta"): RuleId.NAT_EPS_ETA,
        ("eps", "eps"): RuleId.NAT_EPS_EPS,
    }
    du = 2 * nu if ku == "eta" else -2 * nu
    dv = 2 * nv if kv == "eta" else -2 * nv
    tgt_u = mu + 2 * nu if ku == "eta" else mu
    src_v = mv if kv == "eta" else mv + 2 * nv
    found = []
    if c <= a and a + tgt_u <= c + mv:
        binding = (("i", a - c), ("j", mu), ("k", nu), ("l", c + mv - a - tgt_u), ("n", nv))
        found.append((rule_of[kv, ku], Direction.FORWARD, ((c, kv, mv - du, nv), u), binding))
    if a <= c and c + src_v <= a + mu:
        binding = (("i", c - a), ("j", mv), ("k", nv), ("l", a + mu - c - src_v), ("n", nu))
        found.append((rule_of[ku, kv], Direction.BACKWARD, (v, (a, ku, mu + dv, nu)), binding))
    if ku == "eta" and kv == "eps" and a == c and nu == nv:
        if mv == mu + nu:
            found.append((RuleId.TRIANGLE_A, Direction.FORWARD, (), (("i", mu), ("n", nu))))
        elif mv == mu - nu:
            found.append((RuleId.TRIANGLE_B, Direction.FORWARD, (), (("i", mv), ("n", nu))))
    return found


def check_pair(u, v):
    pu, pv = pack(u), pack(v)
    got = [tuple(map(unpack, sw)) for sw in _swaps(pu, pv)]
    assert got == swaps_tuple(u, v), (u, v)
    got = [
        (rule, direction, tuple(map(unpack, repl)), binding)
        for rule, direction, repl, binding in _match_pair(pu, pv)
    ]
    assert got == match_pair_tuple(u, v), (u, v)


def adjacent_pairs(t):
    lays = term_order(t)[1]
    return zip(lays, lays[1:])


class TestAgainstTupleLevel:
    def test_rule_instance_grid(self):
        count = 0
        for _, _, lhs, rhs in rule_instances():
            for side in (lhs, rhs):
                for u, v in adjacent_pairs(side):
                    check_pair(u, v)
                    check_pair(v, u)
                    count += 1
        assert count > 400

    def test_random_adjacent_pairs(self):
        rng = random.Random(17)
        count = 0
        for _ in range(1000):
            t = random_term(rng, max_source=4, max_len=5, max_width=9)
            for u, v in adjacent_pairs(t):
                check_pair(u, v)
                count += 1
        assert count > 1000


def is_row_of(row, t) -> bool:
    """``row`` is a non-empty ``Term`` in the interchange class of ``t``."""
    return isinstance(row, Term) and bool(row.slices) and canonical(row) == canonical(t)


class TestStepRows:
    def test_match_rules_rows_are_terms(self):
        sliding = next(r for r in rule_instances() if r[0] is RuleId.NAT_EPS_ETA)
        triangle = next(r for r in rule_instances() if r[0] is RuleId.TRIANGLE_B)
        t = tensor(sliding[2], triangle[2])
        for mode in (Mode.C, Mode.D):
            steps = match_rules(t, mode, DEFAULT_CAPS)
            assert steps and all(is_row_of(s.row, t) for s in steps)
        kinds = {(s.rule, s.direction) for s in match_rules(t, Mode.C, DEFAULT_CAPS)}
        want = {(RuleId.TRIANGLE_B, Direction.FORWARD), (RuleId.TRIANGLE_A, Direction.BACKWARD)}
        assert want <= kinds

    def test_witness_rows_are_terms(self):
        sliding = next(r for r in rule_instances() if r[0] is RuleId.NAT_ETA_EPS)
        triangle = next(r for r in rule_instances() if r[0] is RuleId.TRIANGLE_A)
        cup = gen_term(eta(0, 1))
        pairs = [
            (sliding[2], sliding[3], Mode.D),
            (tensor(triangle[2], cup), tensor(triangle[3], cup), Mode.C),
            (tensor(triangle[3], cup), tensor(triangle[2], cup), Mode.C),
        ]
        for a, b, mode in pairs:
            w = equal(a, b, mode, SearchCaps(5, 8, 2, 2000))
            assert w is not None and len(w) >= 1
            assert all(is_row_of(s.row, x) for x, s in zip(w.terms, w.steps))
