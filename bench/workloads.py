"""Workload inputs, generated from the seed by the benchmark's own code.

Each workload is a list of items (plain JSON-able dicts) and a split of
that list into units; a unit runs in one fresh interpreter.  Items marked
``fixed`` are identical on every seed; the rest are drawn from the seed.
Nothing here imports ``monocat``: the engine only ever sees the finished
inputs.
"""

from __future__ import annotations

import random

from reference import (
    NAT_RULES,
    TRIANGLE_RULES,
    class_size,
    delta_of,
    nat_instance,
    render,
    shuffled,
    source_of,
    triangle_instance,
    whiskered,
    widths,
)

WORKLOADS = ("word_problem", "homset", "semantics", "normalize")

ZIGZAG = (1, [(0, "eta", 0, 1), (1, "eps", 0, 1)])
MIRROR = (1, [(1, "eta", 0, 1), (0, "eps", 0, 1)])
TRIANGLE_A = (1, [(0, "eta", 0, 1), (0, "eps", 1, 1)])

# caps as (max_gen_count, max_width, max_index_n, max_states); None is the
# engine's default, which is what the command line uses
HOM_CAPS = (3, 8, 1, 4000)
HOM_MERGE_CAPS = (5, 10, 1, 4000)
# mode-C pairs search with generator and width caps set to the largest
# values on their own construction path (a derivation is known to fit),
# then these index and state caps; slack in the caps multiplies the
# expansions per state and makes a few pairs cost seconds
PAIR_CAPS_C = (1, 400)
PAIRS_PER_LENGTH = 40
FIXED_C_PER_LENGTH = 20
# seeded mode-C chains stay within four generators on their whole path,
# which leaves three-instance chains with at least two triangles
C_PATTERNS = {1: ("N", "T"), 2: ("NN", "NT", "TN", "TT"), 3: ("NTT", "TNT", "TTN", "TTT")}
# word problems stay on small interchange classes (the engine enumerates
# every ordering per state); large classes are the normalize workload's job
MAX_CLASS = 24


def _random_slice(rng: random.Random, width: int, max_width: int):
    options = []
    if width + 2 <= max_width:
        options += [(off, "eta", m, 1) for m in range(width + 1) for off in range(width - m + 1)]
    options += [(off, "eps", m, 1) for m in range(width - 1) for off in range(width - m - 1)]
    return rng.choice(options) if options else None


def random_walk(rng: random.Random, source: int, length: int, max_width: int) -> list:
    layers, w = [], source
    for _ in range(length):
        lay = _random_slice(rng, w, max_width)
        if lay is None:
            break
        layers.append(lay)
        w += delta_of(lay[1], lay[3])
    return layers


# -- word_problem -------------------------------------------------------------


def _instance(rng: random.Random, kind: str):
    """A sliding ("N") or triangle ("T") instance, in a random direction."""
    if kind == "T":
        src, lhs, rhs = triangle_instance(rng.choice(TRIANGLE_RULES), rng.randint(0, 1), 1)
    else:
        src, lhs, rhs = nat_instance(
            rng.choice(NAT_RULES), rng.randint(0, 1), rng.randint(0, 1), 1, rng.randint(0, 1), 1
        )
    return (src, lhs, rhs) if rng.random() < 0.5 else (src, rhs, lhs)


def constructed_pair(rng: random.Random, pattern: str, max_gens: int = 6):
    """(source, a, b, (path_gens, path_width)): one literal relation
    instance per letter of ``pattern`` ("N" sliding, "T" triangle), each
    whiskered and composed after the previous one, plus an optional shared
    context slice at either end.  a and b are equal by construction: the
    terms in between substitute the instances one at a time, and
    ``path_gens`` and ``path_width`` are the largest generator count and
    width among them."""
    while True:
        segs, w, source = [], None, None
        for kind in pattern:
            src, x, y = _instance(rng, kind)
            if w is None:
                source = w = src + rng.randint(0, 1)
            if src > w:
                break
            left = rng.randint(0, w - src)
            segs.append((whiskered(x, left), whiskered(y, left)))
            w = widths(w, segs[-1][0])[-1]
        else:
            head, tail = [], []
            if rng.random() < 0.5:
                extra = _random_slice(rng, w, 8)
                if extra is not None:
                    tail = [extra]
            elif rng.random() < 0.5 and source >= 2:
                # a deletion in front: the pair's source widens by two
                off = rng.randint(0, source)
                head = [(off, "eps", rng.randint(0, source - off), 1)]
                source += 2
            path = [head + [lay for k, (x, y) in enumerate(segs) for lay in (y if k < cut else x)] + tail
                    for cut in range(len(pattern) + 1)]
            a, b = path[0], path[-1]
            ok = (
                a != b
                and max(len(t) for t in path) <= max_gens
                and max(max(widths(source, t)) for t in path) <= 8
                and all(class_size(t, MAX_CLASS + 1) <= MAX_CLASS for t in path)
            )
            if ok:
                return source, a, b, (max(len(t) for t in path), max(max(widths(source, t)) for t in path))


def _equal_item(ident, source, a, b, mode, caps, expect, fixed=False):
    return {
        "id": ident, "kind": "equal", "fixed": fixed, "mode": mode, "caps": caps,
        "expect": expect, "source": source, "a_layers": a, "b_layers": b,
        "a": render(source, a), "b": render(source, b),
    }


def _explore_item(ident, term):
    source, layers = term
    return {
        "id": ident, "kind": "explore", "fixed": True, "mode": "C", "caps": None,
        "source": source, "layers": layers, "expr": render(source, layers),
    }


def word_problem(seed: int):
    items = [
        # the zig-zag and its mirror have additive invariant 1, the identity
        # 0: identity_found on them is a wrong answer; the TriangleA control
        # reaches the identity in one step
        _explore_item("explore:zigzag", ZIGZAG),
        _explore_item("explore:mirror", MIRROR),
        _explore_item("explore:triangleA", TRIANGLE_A),
        _equal_item("eq:zigzag~id", ZIGZAG[0], ZIGZAG[1], [], "C", None, "distinct", True),
        _equal_item("eq:mirror~id", MIRROR[0], MIRROR[1], [], "C", None, "distinct", True),
    ]
    units = [[k] for k in range(len(items))]
    rng = random.Random(seed)
    c_unit, d_unit = [], []

    def add(unit, ident, pattern, mode, expect, fixed_rng=None, max_gens=6):
        src, a, b, path = constructed_pair(fixed_rng or rng, pattern, max_gens)
        caps = path + PAIR_CAPS_C if mode == "C" else None
        unit.append(len(items))
        items.append(_equal_item(ident, src, a, b, mode, caps, expect, fixed=fixed_rng is not None))

    # mode-C pairs of up to six generators: drawn once, the same on every
    # seed; their cost ranges over three decades, and a seeded draw of
    # them would move the run's totals with the seed
    fixed_rng = random.Random(0)
    for length in (1, 2, 3):
        for r in range(FIXED_C_PER_LENGTH):
            pattern = "".join(fixed_rng.choice("NNT") for _ in range(length))
            add(c_unit, f"eq:Cfixed{length}.{r}", pattern, "C", "equal", fixed_rng)
    # seeded pairs: a fixed number per shape of chain, so that only the
    # parameters, contexts and directions change with the seed
    for length, patterns in C_PATTERNS.items():
        for r in range(PAIRS_PER_LENGTH):
            pattern = patterns[r % len(patterns)]
            add(c_unit, f"eq:C{length}.{r}", pattern, "C", "equal", max_gens=4)
    for length in (1, 2, 3):
        for r in range(PAIRS_PER_LENGTH):
            add(d_unit, f"eq:D{length}.{r}", "N" * length, "D", "equal")
    # a triangle changes the (kind, n) multiset: distinct in mode D
    for r in range(PAIRS_PER_LENGTH):
        add(d_unit, f"eq:Ddistinct.{r}", ("T", "T", "NT", "TN")[r % 4], "D", "distinct")
    return items, units + [c_unit, d_unit]


# -- homset -------------------------------------------------------------------

HOM_SHAPES = {
    "C": ((1, 1), (2, 0), (0, 2), (2, 2), (4, 0), (0, 4)),
    "D": ((2, 0), (0, 2), (2, 2), (3, 1), (1, 3), (3, 3)),
}


def homset(seed: int):
    items = [
        {"id": f"hom:{mode}{m}{n}", "kind": "homset", "fixed": True, "mode": mode,
         "m": m, "n": n, "caps": HOM_CAPS, "merge_caps": HOM_MERGE_CAPS}
        for mode in ("C", "D") for m, n in HOM_SHAPES[mode]
    ]
    return items, [[k] for k in range(len(items))]


# -- semantics ----------------------------------------------------------------


def rule_grid():
    """The default parameter grid of the engine's relation table."""
    out = []
    for rule in NAT_RULES:
        for i in (0, 1, 2):
            for j in (0, 1, 2):
                for k in (1, 2):
                    for l in (0, 1, 2):
                        for n in (1, 2):
                            out.append((rule, (i, j, k, l, n)) + nat_instance(rule, i, j, k, l, n))
    for rule in TRIANGLE_RULES:
        for i in (0, 1, 2):
            for n in (1, 2):
                out.append((rule, (i, n)) + triangle_instance(rule, i, n))
    return out


def _rule_item(ident, rule, params, d, phi, field, probe=False):
    return {"id": ident, "kind": "rule_check", "fixed": True, "rule": rule,
            "params": list(params), "d": d, "phi": phi, "field": field, "probe": probe}


# largest d^(width + source) evaluated at d = 3: the engine's identity state
# has that many entries (see NOTES.md, defect b)
D3_STATE_LIMIT = 3**12


def semantics(seed: int):
    grid = rule_grid()
    items, units = [], []

    def chunk(new, parts):
        start = len(items)
        items.extend(new)
        size = -(-len(new) // parts)
        units.extend([list(range(s, min(s + size, start + len(new))))
                      for s in range(start, start + len(new), size)])

    chunk([_rule_item(f"rule:q2:{r}{p}", r, p, 2, "random:1", "q") for r, p, *_ in grid], 4)
    small = [(r, p) for r, p, src, lhs, rhs in grid
             if r in NAT_RULES and max(widths(src, lhs) + widths(src, rhs)) <= 6]
    chunk([_rule_item(f"rule:p2{phi[0]}:{r}{p}", r, p, 2, phi, "p")
           for phi in ("identity", "random:1") for r, p in small], 1)
    wide3 = [(r, p) for r, p, src, lhs, rhs in grid
             if src <= 6 and 3 ** (max(widths(src, lhs) + widths(src, rhs)) + src) <= D3_STATE_LIMIT]
    chunk([_rule_item(f"rule:q3:{r}{p}", r, p, 3, "random:1", "q") for r, p in wide3], 2)

    rng = random.Random(seed)
    evals = []
    for r in range(60):
        source = rng.randint(0, 3)
        layers = random_walk(rng, source, rng.randint(1, 6), 6)
        evals.append({"id": f"eval:{r}", "kind": "eval", "fixed": False, "d": 2,
                      "phi": "random:1", "field": "q", "source": source, "layers": layers})
    # prime-field relation instances with a slice-free side (NOTES.md, defect a)
    probes = [_rule_item(f"probe:p2{phi[0]}:{r}{p}", r, p, 2, phi, "p", probe=True)
              for phi in ("identity", "random:1") for r, p, *_ in grid if r in TRIANGLE_RULES]
    chunk(evals + probes, 1)
    return items, units


# -- normalize ----------------------------------------------------------------


def _tensor_power(gens) -> tuple:
    """Left-first slices of a tensor product of bare generators."""
    layers, w_before = [], 0
    source = sum(source_of(kind, m, n) for kind, m, n in gens)
    for kind, m, n in gens:
        layers.append((w_before, kind, m, n))
        w_before += m + (2 * n if kind == "eta" else 0)
    return source, layers


# seeded terms come in fixed numbers per narrow band of interchange class
# size (orderings of the diagram), the input property canonical's cost
# follows; the middle band is the largest, so the median latency falls
# inside it
CLASS_BANDS = {(1, 3): 10, (10, 14): 20, (40, 60): 10}


def normalize(seed: int):
    items, fixed, seeded = [], [], []

    def add(unit, ident, group, source, layers, rng, presentations, is_fixed):
        for p in range(presentations):
            pres = layers if p == 0 else shuffled(layers, rng, 3 * len(layers))
            unit.append(len(items))
            items.append({"id": f"norm:{ident}.{p}", "kind": "canonical", "fixed": is_fixed,
                          "group": group, "source": source, "layers": pres})

    # k-fold tensors, each in four presentations drawn once; alternating
    # eta/eps classes grow faster, and k = 8 exceeds the engine's class cap
    # (NOTES.md)
    fixed_rng = random.Random(0)
    families = {
        "eps": (range(2, 9), lambda j: ("eps", 0, 1)),
        "eta": (range(2, 9), lambda j: ("eta", 0, 1)),
        "mixed": (range(2, 8), lambda j: ("eta", 0, 1) if j % 2 == 0 else ("eps", 0, 1)),
    }
    for name, (ks, gen) in families.items():
        for k in ks:
            source, layers = _tensor_power([gen(j) for j in range(k)])
            add(fixed, f"{name}{k}", f"{name}{k}", source, layers, fixed_rng, 4, True)
    rng = random.Random(seed)
    for (lo, hi), count in CLASS_BANDS.items():
        for r in range(count):
            while True:
                # two independent walks side by side: their slices interleave;
                # w1 runs on the first s1 wires, w2 then on the s2 wires right of them
                s1, s2 = rng.randint(0, 2), rng.randint(0, 2)
                w1 = random_walk(rng, s1, rng.randint(1, 4), 4)
                w2 = random_walk(rng, s2, rng.randint(1, 4), 4)
                layers = w1 + whiskered(w2, widths(s1, w1)[-1])
                if lo <= class_size(layers, hi + 1) <= hi:
                    break
            add(seeded, f"rand{lo}-{hi}.{r}", f"rand{lo}-{hi}.{r}", s1 + s2, layers, rng, 4, False)
    return items, [fixed, seeded]


BUILDERS = {
    "word_problem": word_problem,
    "homset": homset,
    "semantics": semantics,
    "normalize": normalize,
}


def build(workload: str, seed: int):
    """(items, units) for one workload and seed."""
    return BUILDERS[workload](seed)
