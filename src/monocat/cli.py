"""Command-line front end.

Expression grammar (whitespace-insensitive)::

    expr := term (";" term)*
    term := atom ("*" atom)*
    atom := "id(" nat ")" | "eta(" nat "," nat ")" | "eps(" nat "," nat ")" | "(" expr ")"

``nat`` is a run of ASCII digits, and only ASCII whitespace separates
tokens.  ";" composes diagrams left to right (the left operand is applied
first), "*" places diagrams side by side.  Note this is the opposite order to
function-style composition.  ``parse_expr`` reads an expression in one
pass, with no limit on how deeply parentheses nest.  A malformed one is a
``ParseError`` that names the token at fault and where it starts (an
unexpected character anywhere in the text comes first); widths that do
not chain and bad generator indices raise as the term or atom is read.

Exit codes: 0 success (or Equal), 10 equality unknown, 1 failed suite
check, 2 usage, parse, or shape errors, 141 stdout closed by its reader
(as by ``| head``; nothing is printed to stderr).  MONOCAT_MAX_STATES
overrides the default search state budget (a value below 1, or not an
integer, is a usage error); explicit flags win over the environment.
``eq --json`` gives an unknown answer a ``reason``, read off the one
search that gave it: ``invariant`` when the two terms' rewrite invariants
differ (no rewrite path exists), ``max_states`` when the state budget
ended the search, ``caps`` when one side had no new state within the
caps left to visit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .rewrite import (
    DEFAULT_CAPS,
    SearchCaps,
    _equal,
    explore,
    hom_classes,
)
from .terms import (
    M_MASK,
    N_MASK,
    OFF_SHIFT,
    Generator,
    GenKind,
    Mode,
    MonocatError,
    NotComposable,
    Term,
    canonical,
    gen_count,
    pack_layer,
    render,
    term_from_layers,
    term_from_packed,
    unpack_layer,
)
from .vect import FunctorSpec, eval_term, field_of


# the status of a process killed by SIGPIPE in POSIX shells (128 + 13)
EXIT_BROKEN_PIPE = 141


class ParseError(MonocatError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One match per token, after any ASCII whitespace: a punctuation mark, a
# whole well-formed atom, a name or a number, or an unexpected character.
_TOKEN = re.compile(
    r"\s*(?:([();,*])|id\s*\(\s*(\d+)\s*\)|(eta|eps)\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)"
    r"|(id|eta|eps|\d+)|(\S))",
    re.ASCII,
)
_EOF = ("",) * 7
_KINDS = {"eta": GenKind.ETA, "eps": GenKind.EPS}


def parse_expr(text: str) -> Term:
    """Parse the expression grammar into a term, in one pass over its tokens.

    A stack holds the expression and term that each open parenthesis
    interrupts, so nesting has no depth limit.  A part is a (source, target,
    layers) triple, its layers packed (see ``terms``), so that tensoring
    shifts a layer by one addition and the term comes from
    ``term_from_packed``'s shared slices.  An atom past the packed fields
    takes the layer 0, which no generator packs to (its ``n`` is 0), and
    its generator is kept in ``wide``: layers end in the order of their
    atoms in the text, so the term is then built from ``wide`` in order.
    """
    tokens = _TOKEN.findall(text) + [_EOF]
    stack = []
    wide = []
    expr = term = None
    k = 0
    try:
        while True:
            punct, idn, kind, m, n, word, _ = tokens[k]
            k += 1
            if punct == "(":
                stack.append((expr, term))
                expr = term = None
                continue
            if idn:
                part = (int(idn), int(idn), [])
            elif kind:
                m, n = int(m), int(n)
                if n < 1 or m > M_MASK or n > N_MASK:  # the generator checks n >= 1
                    wide.append(Generator(_KINDS[kind], m, n))
                    lay = 0
                else:
                    lay = pack_layer(0, _KINDS[kind], m, n)
                if kind == "eta":
                    part = (m, m + 2 * n, [lay])
                else:
                    part = (m + 2 * n, m, [lay])
            elif word in ("id", "eta", "eps"):  # a malformed atom: find the piece at fault
                pieces = enumerate("(n)" if word == "id" else "(n,n)", k)
                j, want = next((j, want) for j, want in pieces
                               if want != ("n" if tokens[j][5].isdecimal() else tokens[j][0]))
                raise _error(text, tokens, j, "a natural number" if want == "n" else repr(want))
            else:
                raise _error(text, tokens, k - 1, "an atom")
            while True:
                if term is not None:  # tensor the part onto the term
                    source, target, lays = term
                    if part[2]:
                        shift = target << OFF_SHIFT
                        lays += [lay + shift for lay in part[2]]
                    part = (source + part[0], target + part[1], lays)
                term = part
                punct = tokens[k][0]
                k += 1
                if punct == "*":
                    break
                if expr is not None:  # compose the term onto the expression
                    source, target, lays = expr
                    if target != term[0]:
                        raise NotComposable(f"cannot compose: target {target} != source {term[0]}")
                    lays += term[2]
                    term = (source, term[1], lays)
                expr = term
                if punct == ";":
                    term = None
                    break
                if punct == ")" and stack:
                    part = expr
                    expr, term = stack.pop()
                elif stack:
                    raise _error(text, tokens, k - 1, "')'")
                elif tokens[k - 1] is _EOF:
                    if not wide:
                        return term_from_packed(expr[0], tuple(expr[2]))
                    gens = iter(wide)
                    return term_from_layers(expr[0], [
                        (lay >> OFF_SHIFT, next(gens)) if not lay & N_MASK else unpack_layer(lay)
                        for lay in expr[2]
                    ])
                else:
                    raise _error(text, tokens, k - 1, "end of input")
    except (MonocatError, ValueError):
        # the whole text is tokenized first: its first unexpected character,
        # or number past int()'s digit limit, is the error wherever it stands
        for j, tok in enumerate(tokens):
            if tok[6]:
                raise _error(text, tokens, j, "") from None
            for digits in filter(str.isdecimal, tok[1:6]):
                int(digits)
        raise


def _error(text: str, tokens: list, k: int, wanted: str) -> ParseError:
    """The error at token ``k`` in place of ``wanted``; an atom shows its name."""
    at = [m.end() - len(m.group().lstrip(" \t\n\r\f\v")) for m in _TOKEN.finditer(text)] + [len(text)]
    punct, idn, kind, _, _, word, bad = tokens[k]
    if bad:
        return ParseError(f"unexpected character {bad!r}", at[k])
    word = "id" if idn else punct or kind or word
    found = "end of input" if not word else str(int(word)) if word.isdecimal() else repr(word)
    return ParseError(f"expected {wanted}, found {found}", at[k])


# -- argument plumbing ---------------------------------------------------------


def _add_caps_args(p: argparse.ArgumentParser, states: bool) -> None:
    p.add_argument("--mode", choices=["C", "D"], default="C")
    p.add_argument("--max-gens", type=int, default=DEFAULT_CAPS.max_gen_count)
    p.add_argument("--max-width", type=int, default=DEFAULT_CAPS.max_width)
    p.add_argument("--max-n", type=int, default=DEFAULT_CAPS.max_index_n)
    if states:
        p.add_argument("--max-states", type=int, default=None)


def _caps_of(args) -> SearchCaps:
    max_states = args.max_states
    if max_states is None:
        env = os.environ.get("MONOCAT_MAX_STATES")
        try:
            max_states = _int_at_least(1)(env) if env else DEFAULT_CAPS.max_states
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"MONOCAT_MAX_STATES: {exc}") from None
    return SearchCaps(args.max_gens, args.max_width, args.max_n, max_states)


def _functor_of(args) -> FunctorSpec:
    field = field_of(args.field)
    phi = args.phi
    if phi == "identity":
        return FunctorSpec.identity(args.dim, field)
    if phi.startswith("random:"):
        try:
            seed = int(phi.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--phi {phi!r}: SEED must be an integer") from None
        return FunctorSpec.random(args.dim, seed, field)
    if phi.startswith("file:"):
        spec = FunctorSpec.from_file(phi.split(":", 1)[1], field)
        if spec.d != args.dim:
            raise ValueError(f"pairing file has d={spec.d}, --dim says {args.dim}")
        return spec
    raise ValueError(f"unknown --phi {phi!r} (use identity, random:SEED, or file:PATH)")


def _term_info(t: Term) -> dict:
    return {
        "term": render(t),
        "source": t.source,
        "target": t.target,
        "gen_count": gen_count(t),
    }


def _step_dict(step, term=None) -> dict:
    out = {
        "rule": step.rule.value,
        "direction": step.direction.value,
        "binding": {k: v for k, v in step.binding},
    }
    if term is not None:
        out["term"] = render(term)
    return out


# -- commands ------------------------------------------------------------------


def _cmd_parse(args) -> int:
    t = parse_expr(args.expr)
    if args.json:
        print(json.dumps(_term_info(t), indent=2))
    else:
        info = _term_info(t)
        print(info["term"])
        print(f"source: {info['source']}  target: {info['target']}  generators: {info['gen_count']}")
    return 0


def _cmd_normalize(args) -> int:
    t = canonical(parse_expr(args.expr))
    if args.json:
        print(json.dumps(_term_info(t), indent=2))
    else:
        print(render(t))
    return 0


_UNKNOWN = {
    "invariant": "the rewrite invariant differs, so no rewrite path exists",
    "max_states": "search budget exhausted; equality not decided",
    "caps": "no rewrite path within the caps; equality not decided",
}


def _cmd_eq(args) -> int:
    a = parse_expr(args.a)
    b = parse_expr(args.b)
    caps = _caps_of(args)
    mode = Mode[args.mode]
    witness, reason = _equal(a, b, mode, caps)
    if witness is None:
        if args.json:
            print(json.dumps({"status": "unknown", "reason": reason}, indent=2))
        else:
            print(f"unknown ({_UNKNOWN[reason]})")
        return 10
    path = [
        _step_dict(step, term)
        for step, term in zip(witness.steps, witness.terms[1:])
    ]
    if args.json:
        print(json.dumps({"status": "equal", "path_length": len(witness), "path": path}, indent=2))
    else:
        print(f"equal (path length {len(witness)})")
        for k, step in enumerate(witness.steps):
            print(f"  {step.describe()}  ->  {render(witness.terms[k + 1])}")
    return 0


def _cmd_eval(args) -> int:
    t = parse_expr(args.expr)
    spec = _functor_of(args)
    mat = eval_term(spec, t, max_dim=args.max_dim)
    if args.json:
        print(
            json.dumps(
                {
                    "rows": mat.rows,
                    "cols": mat.cols,
                    "entries": [[str(x) for x in row] for row in mat.entries],
                },
                indent=2,
            )
        )
    else:
        print(mat)
    return 0


def _cmd_explore(args) -> int:
    t = parse_expr(args.expr)
    caps = _caps_of(args)
    report = explore(t, Mode[args.mode], caps)
    payload = {
        "start": render(report.start),
        "mode": report.mode.value,
        "states_visited": report.states_visited,
        "identity_found": report.identity_found,
        "min_gen_count_seen": report.min_gen_count_seen,
        "truncated": report.truncated,
    }
    if report.witness_path is not None:
        payload["witness_path"] = [render(x) for x in report.witness_path]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0


def _cmd_homset(args) -> int:
    caps = SearchCaps(args.max_gens, args.max_width, args.max_n)
    reps = [cls[0] for cls in hom_classes(args.m, args.n, Mode[args.mode], caps)]
    if args.json:
        print(json.dumps({"classes": [render(t) for t in reps]}, indent=2))
    else:
        print(f"{len(reps)} classes")
        for t in reps:
            print(f"  {render(t)}")
    return 0


def _cmd_suite(args) -> int:
    # imported here, so that the other commands do not load the suite
    from .suite import SuiteConfig, run_all

    if args.config:
        with open(args.config) as fh:
            cfg = SuiteConfig.from_dict(json.load(fh))
    else:
        cfg = SuiteConfig()
    report = run_all(cfg)
    if args.json:
        print(report.to_json(zero_timings=args.no_timings))
    else:
        for c in report.checks:
            print(f"{c.name:26s} {c.status}")
        print("result:", "FAIL" if report.failed else "ok")
    return 1 if report.failed else 0


def _int_at_least(low: int):
    """The argparse type of an integer that is at least ``low``."""

    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if k < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {k}")
        return k

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocat",
        description="slice-term rewriting, bounded word-problem search, and exact matrix evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and report its shape")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("normalize", help="print the interchange normal form")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("eq", help="bounded equality of two terms")
    p.add_argument("a")
    p.add_argument("b")
    _add_caps_args(p, states=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("eval", help="evaluate a term to an exact matrix")
    p.add_argument("expr")
    p.add_argument("--dim", type=_int_at_least(1), default=2)
    p.add_argument("--phi", default="identity", help="identity | random:SEED | file:PATH")
    p.add_argument("--field", default="q", help="q | p | p:PRIME")
    p.add_argument("--max-dim", type=_int_at_least(1), default=2**20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("explore", help="breadth-first closure of a term's rewrite class")
    p.add_argument("expr")
    _add_caps_args(p, states=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("homset", help="enumerate rewrite classes between two widths")
    p.add_argument("m", type=_int_at_least(0))
    p.add_argument("n", type=_int_at_least(0))
    _add_caps_args(p, states=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homset)

    p = sub.add_parser("suite", help="run the full evidence suite")
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timings", action="store_true")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone (as after ``| head``): stop without an
        # error, and point stdout at devnull so the flush at exit cannot fail
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):  # a stdout with no descriptor has nothing left to flush
            pass
        return EXIT_BROKEN_PIPE
    except (MonocatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
