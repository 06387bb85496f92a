"""Digests of the engine's answers, to compare across a change that claims
to keep them.

Usage (from the repository root):

    python3 tools/outputs_digest.py

Prints one line per set of answers, its name and a sha256 prefix of its
records, one JSON line per call:

- ``word_problem:SEED`` (seeds 1 and 2): every item of the benchmark's
  ``word_problem`` workload.  An ``eq`` item gives the witness of
  ``rewrite._equal``, its terms and its steps (rule, direction, row, pos,
  binding, offset), or the reason it is unknown; an ``explore`` item gives
  the report.
- ``match_rules:G,W,N``: ``match_rules`` at caps (max_gen_count,
  max_width, max_index_n) = (G, W, N) on every term that
  ``generate_terms`` lists for hom(m, n), m, n <= 3, at those caps, in
  mode C and in mode D.

Run it on both sides of the change and compare the lines.  The sets take
about 6 s together on 2 vCPUs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from monocat import cli, rewrite  # noqa: E402
from monocat.terms import Mode  # noqa: E402

MATCH_CAPS = ((3, 6, 1), (4, 6, 1))


def _term(t) -> list:
    return [t.source, [[s.left, s.gen.kind.value, s.gen.m, s.gen.n] for s in t.slices]]


def _step(s) -> list:
    return [s.rule.value, s.direction.value, _term(s.row), s.pos, s.binding, s.offset]


def _digest(records) -> tuple[str, int]:
    """The sha256 prefix of ``records``, one JSON line each, and their count."""
    h, count = hashlib.sha256(), 0
    for record in records:
        h.update(json.dumps(record).encode() + b"\n")
        count += 1
    return h.hexdigest()[:16], count


def match_rules_records(max_mn: int, caps):
    """``match_rules`` on every term of hom(m, n), m, n <= ``max_mn``, at
    ``caps``, in mode C then D."""
    for m in range(max_mn + 1):
        for n in range(max_mn + 1):
            for t in rewrite.generate_terms(m, n, caps):
                for mode in (Mode.C, Mode.D):
                    yield [_term(t), mode.value, [_step(s) for s in rewrite.match_rules(t, mode, caps)]]


def match_rules_digest(max_mn: int, caps) -> tuple[str, int]:
    """The digest of :func:`match_rules_records` and its number of calls."""
    return _digest(match_rules_records(max_mn, caps))


def _report(r) -> list:
    path = None if r.witness_path is None else [_term(t) for t in r.witness_path]
    caps = [r.caps.max_gen_count, r.caps.max_width, r.caps.max_index_n, r.caps.max_states]
    return [_term(r.start), r.mode.value, caps, r.states_visited, r.identity_found,
            r.min_gen_count_seen, r.truncated, path]


def word_problem_records(seed: int):
    """The answer to every item of the ``word_problem`` workload at ``seed``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    items, _ = workloads.build("word_problem", seed)
    for item in items:
        mode = Mode[item["mode"]]
        caps = rewrite.DEFAULT_CAPS if item["caps"] is None else rewrite.SearchCaps(*item["caps"])
        if item["kind"] == "explore":
            out = _report(rewrite.explore(cli.parse_expr(item["expr"]), mode, caps))
        else:
            a, b = cli.parse_expr(item["a"]), cli.parse_expr(item["b"])
            witness, reason = rewrite._equal(a, b, mode, caps)
            if witness is None:
                out = reason
            else:
                out = [[_term(t) for t in witness.terms], [_step(s) for s in witness.steps]]
        yield [item["id"], out]


def main() -> int:
    for seed in (1, 2):
        digest, count = _digest(word_problem_records(seed))
        print(f"word_problem:{seed}  {digest}  ({count} items)")
    for fields in MATCH_CAPS:
        digest, count = match_rules_digest(3, rewrite.SearchCaps(*fields))
        print(f"match_rules:{','.join(map(str, fields))}  {digest}  ({count} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
