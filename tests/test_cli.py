import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocat import (
    InvalidGenerator,
    Mode,
    NotComposable,
    SearchCaps,
    canonical,
    enum_hom_detailed,
    render,
    terms,
    vect,
)
from monocat.cli import EXIT_BROKEN_PIPE, ParseError, main, parse_expr
from monocat.suite import snake_term
from oracles import parse_expr_reference, random_term

_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


@st.composite
def _expr_pieces(draw, depth=2):
    """The tokens of a random expression: atoms whose widths need not chain,
    grouped by random parentheses, ``*`` and ``;``."""
    pieces = []
    for k in range(draw(st.integers(1, 3))):
        if k:
            pieces.append(draw(st.sampled_from(["*", ";"])))
        if depth and draw(st.booleans()):
            pieces += ["(", *draw(_expr_pieces(depth - 1)), ")"]
        elif draw(st.booleans()):
            pieces += ["id", "(", str(draw(st.integers(0, 3))), ")"]
        else:
            name = draw(st.sampled_from(["eta", "eps"]))
            m, n = draw(st.integers(0, 2)), draw(st.sampled_from([0, 1, 1, 2]))
            pieces += [name, "(", str(m), ",", str(n), ")"]
    return pieces


def _rendered_pieces(seed: int) -> list:
    """The tokens of a well-formed expression."""
    return re.findall(r"id|eta|eps|\d+|[();,*]", render(random_term(random.Random(seed), max_len=5)))


@st.composite
def _mutated(draw, pieces):
    """``pieces`` with one token dropped, duplicated or swapped with the
    next, a stray character inserted, or cut short; or as they are."""
    k = draw(st.integers(0, len(pieces) - 1))
    how = draw(st.sampled_from(["keep", "drop", "duplicate", "swap", "stray", "truncate"]))
    if how == "drop":
        return pieces[:k] + pieces[k + 1 :]
    if how == "duplicate":
        return pieces[: k + 1] + pieces[k:]
    if how == "swap":
        return pieces[:k] + pieces[k : k + 2][::-1] + pieces[k + 2 :]
    if how == "stray":
        return pieces[:k] + [draw(st.sampled_from(["@", "x", "i", "e", "-", "."]))] + pieces[k:]
    if how == "truncate":
        return pieces[:k]
    return pieces


def _outcome(parse, text: str):
    """The term parsed, or the error's type, message and position."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


class TestParseExpr:
    def test_zigzag(self):
        t = parse_expr("(eta(0,1) * id(1)) ; (id(1) * eps(0,1))")
        assert t == snake_term()

    def test_empty_identity(self):
        t = parse_expr("id(0)")
        assert t.source == 0 and t.slices == ()

    def test_whitespace_insensitive(self):
        a = parse_expr("eta(0,1);eps(0,1)")
        b = parse_expr("  eta( 0 , 1 )  ;  eps( 0 , 1 )  ")
        assert a == b

    def test_composability_error(self):
        with pytest.raises(Exception, match="compose"):
            parse_expr("eta(0,1) ; id(1)")

    def test_invalid_generator(self):
        from monocat import InvalidGenerator

        with pytest.raises(InvalidGenerator):
            parse_expr("eta(2,0)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("eta(0,1) @ id(2)")
        assert err.value.position == 9

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "expected an atom, found end of input (at position 0)"),
            ("eta(0,1", "expected ')', found end of input (at position 7)"),
            ("id(1) ;", "expected an atom, found end of input (at position 7)"),
            ("id(1) )", "expected end of input, found ')' (at position 6)"),
            ("eta(0,", "expected a natural number, found end of input (at position 6)"),
            ("id(", "expected a natural number, found end of input (at position 3)"),
        ],
    )
    def test_end_of_input_named(self, capsys, text, message):
        assert main(["parse", text]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("eta(0 1)", "expected ',', found 1", 6),
            ("eta(0,1,2)", "expected ')', found ','", 7),
            ("id(1,2)", "expected ')', found ','", 4),
            ("eps(0,)", "expected a natural number, found ')'", 6),
            ("id()", "expected a natural number, found ')'", 3),
            ("eta(0,1", "expected ')', found end of input", 7),
            ("eta(0,1) id(1)", "expected end of input, found 'id'", 9),
            ("ideta(0,1)", "expected '(', found 'eta'", 2),
            ("(eta(0,1) eps(0,1))", "expected ')', found 'eps'", 10),
        ],
    )
    def test_malformed_atoms_report_the_piece(self, text, message, position):
        # the message names the token at fault and the position where it starts
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.randoms(use_true_random=False),
        st.lists(st.sampled_from(["", " ", "  ", "\t", "\n "]), min_size=1),
    )
    def test_render_parses_back_with_any_spacing(self, rng, gaps):
        t = random_term(rng, max_len=6)
        pieces = re.findall(r"id|eta|eps|\d+|[();,*]", render(t))
        text = "".join(gaps[k % len(gaps)] + piece for k, piece in enumerate(pieces)) + gaps[-1]
        assert parse_expr(text) == t

    @settings(max_examples=400, deadline=None, database=None)
    @given(
        st.one_of(_expr_pieces(), st.integers(0, 10**6).map(_rendered_pieces)).flatmap(_mutated),
        st.lists(_GAPS, min_size=1),
    )
    def test_agrees_with_the_reference_parser(self, pieces, gaps):
        # spacing falls between the pieces of atoms too; a mutation can
        # leave any token where another is wanted
        text = "".join(gaps[k % len(gaps)] + piece for k, piece in enumerate(pieces)) + gaps[-1]
        assert _outcome(parse_expr, text) == _outcome(parse_expr_reference, text)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("eta(2,0) @", ParseError),  # an unexpected character anywhere comes first
            ("eta(0,1) ; id(1) )", NotComposable),  # widths are checked as each term ends
            ("eta(2,0) ; (", InvalidGenerator),  # generators are checked as each atom is read
            ("id(1) ; eta(0,1) ; id(1", NotComposable),
            ("(id(1) * eta(0,1)) ; (id(2) x", ParseError),
            # a number past int()'s digit limit fails as it is tokenized
            pytest.param("eta(2,0) ; id(" + "1" * 5000 + ")", ValueError, id="long-number"),
            pytest.param("eta(0,1) @ id(" + "1" * 5000 + ")", ParseError, id="long-number-after"),
        ],
    )
    def test_errors_come_in_reading_order(self, text, error):
        outcome = _outcome(parse_expr, text)
        assert outcome == _outcome(parse_expr_reference, text)
        assert outcome[0] is error

    @pytest.mark.parametrize(
        "text, bad, position",
        [
            ("eta(٣,1)", "٣", 4),  # ARABIC-INDIC DIGIT THREE
            ("id(１)", "１", 3),  # FULLWIDTH DIGIT ONE
            ("eta(0,1)　; eps(0,1)", "　", 8),  # IDEOGRAPHIC SPACE
        ],
        ids=["arabic-indic-digit", "fullwidth-digit", "ideographic-space"],
    )
    def test_digits_and_spaces_are_ascii(self, capsys, text, bad, position):
        message = f"unexpected character {bad!r} (at position {position})"
        for parse in (parse_expr, parse_expr_reference):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == message
        assert main(["parse", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nested_parens(self):
        t = parse_expr("((eta(0,1))) ; ((id(2)) * (id(0)))")
        assert t.target == 2

    def test_deep_nesting(self, capsys):
        text = "(" * 5000 + "(eta(0,1) * id(1)) ; (id(1) * eps(0,1))" + ")" * 5000
        assert parse_expr(text) == snake_term()
        assert main(["parse", text]) == 0
        assert capsys.readouterr().out.startswith("(eta(0,1) * id(1)) ; (id(1) * eps(0,1))\n")

    def test_deep_nesting_missing_a_parenthesis(self):
        text = "(" * 5000 + "id(1)" + ")" * 4999
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert str(err.value) == f"expected ')', found end of input (at position {len(text)})"

    def test_atoms_past_the_packed_fields(self, capsys):
        # the parser packs its layers, and an index past their fields still
        # parses: only the engine's searches and forms refuse it
        text = "eta(0,1) * eps(65536,1) * eta(2,300)"
        t = parse_expr(text)
        assert [str(s.gen) for s in t.slices] == ["eta(0,1)", "eps(65536,1)", "eta(2,300)"]
        assert t == parse_expr_reference(text)
        assert main(["parse", "eps(65536,1)"]) == 0
        assert capsys.readouterr().out == "eps(65536,1)\nsource: 65538  target: 65536  generators: 1\n"
        assert main(["eval", "eta(70000,1)"]) == 2
        err = capsys.readouterr().err
        assert err == "error: width 70000 at dimension 2 exceeds 1048576 entries per side\n"

    def test_render_roundtrip_on_random_terms(self):
        rng = random.Random(31)
        for _ in range(200):
            t = random_term(rng)
            assert parse_expr(render(t)) == t

    def test_parse_render_normalises_spacing(self):
        text = "( eta(0,1)*id(1) );( id(1)*eps(0,1) )"
        assert render(parse_expr(text)) == "(eta(0,1) * id(1)) ; (id(1) * eps(0,1))"


class TestCommands:
    def test_parse_command(self, capsys):
        assert main(["parse", "(eta(0,1) * id(1)) ; (id(1) * eps(0,1))"]) == 0
        out = capsys.readouterr().out
        assert "source: 1" in out and "generators: 2" in out

    def test_parse_json(self, capsys):
        assert main(["parse", "id(2)", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"term": "id(2)", "source": 2, "target": 2, "gen_count": 0}

    def test_normalize(self, capsys):
        assert main(["normalize", "(id(2) * eta(0,1)) ; (eps(0,1) * id(2))"]) == 0
        assert capsys.readouterr().out.strip() == "eps(0,1) ; eta(0,1)"

    @pytest.mark.parametrize(
        "gens, want",
        [
            (
                ["eps(0,1)"] * 10,
                " ; ".join(f"(eps(0,1) * id({2 * k}))" for k in range(9, 0, -1)) + " ; eps(0,1)",
            ),
            (
                ["eps(0,1)"] * 4 + ["eta(0,1)"] * 4,
                "(eps(0,1) * id(6)) ; (eps(0,1) * id(4)) ; (eps(0,1) * id(2)) ; eps(0,1) ; "
                "eta(0,1) ; (eta(0,1) * id(2)) ; (eta(0,1) * id(4)) ; (eta(0,1) * id(6))",
            ),
        ],
        ids=["eps10", "eps4-eta4"],
    )
    def test_normalize_tensor_powers(self, capsys, fresh_memo, gens, want):
        # interchange classes of millions of orderings
        assert main(["normalize", " * ".join(gens)]) == 0
        assert capsys.readouterr().out.strip() == want

    def test_normalize_work_bound(self, capsys, fresh_memo, monkeypatch):
        monkeypatch.setattr(terms, "_WORK_CAP", 1000)
        assert main(["normalize", " * ".join(["eps(0,1)"] * 4 + ["eta(0,1)"] * 4)]) == 2
        assert "interchange class too large to normalise" in capsys.readouterr().err

    def test_eq_equal(self, capsys):
        code = main(["eq", "(eta(0,1)*id(1)) ; eps(1,1)", "id(1)", "--mode", "C"])
        assert code == 0
        out = capsys.readouterr().out
        assert "equal" in out and "TriangleA" in out

    def test_eq_unknown_exit_code(self, capsys):
        code = main(
            [
                "eq",
                "(eta(0,1)*id(1)) ; (id(1)*eps(0,1))",
                "id(1)",
                "--mode",
                "C",
                "--max-gens",
                "4",
                "--max-states",
                "500",
            ]
        )
        assert code == 10

    ZIGZAG = "(eta(0,1)*id(1)) ; (id(1)*eps(0,1))"

    def test_eq_unknown_by_invariant(self, capsys):
        assert main(["eq", self.ZIGZAG, "id(1)"]) == 10
        out = capsys.readouterr().out.strip()
        assert out == "unknown (the rewrite invariant differs, so no rewrite path exists)"
        assert main(["eq", self.ZIGZAG, "id(1)", "--json"]) == 10
        assert json.loads(capsys.readouterr().out) == {"status": "unknown", "reason": "invariant"}

    # the mirror image has the zig-zag's invariant, so the search runs
    MIRROR_SEARCH = ["eq", ZIGZAG, "(id(1)*eta(0,1)) ; (eps(0,1)*id(1))", "--max-gens", "4", "--max-n", "1"]

    def test_eq_unknown_by_search(self, capsys):
        # the zig-zag's class has 22 states within these caps: its side of
        # the search runs out of new states before the budget ends
        args = self.MIRROR_SEARCH + ["--max-states", "2000"]
        assert main(args) == 10
        out = capsys.readouterr().out.strip()
        assert out == "unknown (no rewrite path within the caps; equality not decided)"
        assert main(args + ["--json"]) == 10
        assert json.loads(capsys.readouterr().out) == {"status": "unknown", "reason": "caps"}

    def test_eq_unknown_by_budget(self, capsys):
        args = self.MIRROR_SEARCH + ["--max-states", "20"]
        assert main(args) == 10
        out = capsys.readouterr().out.strip()
        assert out == "unknown (search budget exhausted; equality not decided)"
        assert main(args + ["--json"]) == 10
        assert json.loads(capsys.readouterr().out) == {"status": "unknown", "reason": "max_states"}

    def test_eq_shape_error(self, capsys):
        assert main(["eq", "id(1)", "id(2)"]) == 2
        assert "shape" in capsys.readouterr().err

    def test_eq_json_path(self, capsys):
        code = main(["eq", "(eta(0,1)*id(1)) ; eps(1,1)", "id(1)", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "equal"
        assert data["path_length"] == 1
        assert data["path"][0]["rule"] == "TriangleA"

    def test_eval_scalar(self, capsys):
        assert main(["eval", "eta(0,1) ; eps(0,1)", "--dim", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_eval_zigzag_identity(self, capsys):
        assert main(["eval", "(eta(0,1)*id(1)) ; (id(1)*eps(0,1))", "--dim", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1 0\n0 1"

    def test_eval_identity_width_three(self, capsys):
        assert main(["eval", "id(3)", "--dim", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == data["cols"] == 8
        assert data["entries"][0][0] == "1"

    def test_eval_random_pairing_and_prime_field(self, capsys):
        assert main(["eval", "eta(0,2) ; eps(0,2)", "--dim", "2", "--phi", "random:5"]) == 0
        capsys.readouterr()
        assert (
            main(
                ["eval", "eta(0,1) ; eps(0,1)", "--dim", "3", "--field", "p:101"]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "3"

    def test_eval_default_prime_field(self, capsys):
        assert main(["eval", "eta(0,1) ; eps(0,1)", "--dim", "3", "--field", "p"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_eval_unknown_field_spec(self, capsys):
        assert main(["eval", "id(1)", "--field", "p:abc"]) == 2
        err = capsys.readouterr().err.strip()
        assert err == "error: unknown field spec 'p:abc' (use q, p, or p:PRIME)"

    @pytest.mark.parametrize("modulus", [4, 6])
    def test_eval_composite_modulus_rejected(self, capsys, modulus):
        args = ["eval", "eta(0,1)", "--field", f"p:{modulus}", "--phi", "random:3"]
        assert main(args) == 2
        assert capsys.readouterr().err.strip() == f"error: modulus {modulus} is not prime"

    def test_eval_too_large(self, capsys):
        assert main(["eval", "id(4)", "--dim", "2", "--max-dim", "8"]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_eval_wide_cap(self, capsys):
        # contracted from the cap's image, not from a 2^16 x 2^16 identity (32 GiB)
        assert main(["eval", "eps(0,8)", "--dim", "2"]) == 0
        entries = capsys.readouterr().out.split()
        assert len(entries) == 2**16
        assert entries.count("1") == 256 and entries.count("0") == 2**16 - 256

    @pytest.mark.parametrize("max_dim", ["0", "-3"])
    def test_eval_max_dim_below_one_rejected(self, capsys, max_dim):
        assert main(["eval", "eta(0,1)", "--dim", "2", "--max-dim", max_dim]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: monocat eval")
        assert f"argument --max-dim: must be >= 1, got {max_dim}" in err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_eval_dim_below_one_rejected(self, capsys, dim):
        assert main(["eval", "eta(0,1)", "--dim", dim]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: monocat eval")
        assert f"argument --dim: must be >= 1, got {dim}" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["eq", "id(1)", "id(1)", "--max-gens", "-1"], "argument --max-gens: must be >= 0, got -1"),
            (["eq", "id(1)", "id(1)", "--max-width", "0"], "argument --max-width: must be >= 1, got 0"),
            (["homset", "1", "1", "--max-n", "0"], "argument --max-n: must be >= 1, got 0"),
            (["explore", "id(1)", "--max-states", "0"], "argument --max-states: must be >= 1, got 0"),
        ],
        ids=["max_gens", "max_width", "max_n", "max_states"],
    )
    def test_caps_below_bound_rejected(self, capsys, args, message):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: monocat {args[0]}")
        assert message in err

    def test_eval_random_seed_not_an_integer(self, capsys):
        assert main(["eval", "eta(0,1)", "--phi", "random:x"]) == 2
        assert capsys.readouterr().err.strip() == "error: --phi 'random:x': SEED must be an integer"

    def test_eval_unallocatable_state(self, capsys):
        assert main(["eval", "eps(0,1) * id(18) * eta(0,1)", "--dim", "2"]) == 2
        assert "does not fit in memory" in capsys.readouterr().err

    def test_eval_phi_file(self, tmp_path, capsys):
        path = tmp_path / "phi.txt"
        path.write_text("2\n0 1\n1 0\n")
        assert main(["eval", "id(1)", "--dim", "2", "--phi", f"file:{path}"]) == 0
        capsys.readouterr()
        path.write_text("2\n1 1\n1 1\n")
        assert main(["eval", "id(1)", "--dim", "2", "--phi", f"file:{path}"]) == 2

    def test_eval_phi_file_zero_denominator(self, tmp_path, capsys):
        path = tmp_path / "phi.txt"
        path.write_text("2\n0 1\n1/0 0\n")
        assert main(["eval", "eps(0,1)", "--dim", "2", "--phi", f"file:{path}"]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: {path}: entry (2,1) '1/0' has a zero denominator"

    @pytest.mark.parametrize("dim", ["2.5", "x", "-1", "0"])
    def test_eval_phi_file_bad_dimension(self, tmp_path, capsys, dim):
        path = tmp_path / "phi.txt"
        path.write_text(f"{dim}\n1\n")
        assert main(["eval", "id(1)", "--dim", "2", "--phi", f"file:{path}"]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: {path}: dimension {dim!r} must be a positive integer"

    def test_explore_json(self, capsys):
        code = main(
            [
                "explore",
                "(eta(0,1)*id(1)) ; eps(1,1)",
                "--mode",
                "C",
                "--max-gens",
                "4",
                "--max-width",
                "6",
                "--max-n",
                "1",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["identity_found"] is True
        assert data["witness_path"][-1] == "id(1)"

    def test_homset(self, capsys):
        code = main(["homset", "0", "0", "--max-gens", "2", "--max-n", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "id(0)" in out and "eta(0,1) ; eps(0,1)" in out

    def test_homset_evaluates_nothing(self, capsys, monkeypatch):
        # the command prints representatives only: no matrix image, no pair list
        reps = enum_hom_detailed(1, 1, Mode.C, SearchCaps(3, 8, 1)).representatives
        want = "".join([f"{len(reps)} classes\n"] + [f"  {render(t)}\n" for t in reps])

        def refuse(*args, **kwargs):
            raise AssertionError("homset evaluated a term")

        monkeypatch.setattr(vect, "eval_term", refuse)
        monkeypatch.setattr(vect, "_contract", refuse)
        assert main(["homset", "1", "1", "--max-gens", "3", "--max-n", "1"]) == 0
        assert capsys.readouterr().out == want

    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch):
        # as when the reader of a pipe exits early (``monocat homset ... | head -1``)
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["homset", "0", "0", "--max-gens", "2", "--max-n", "1"]) == EXIT_BROKEN_PIPE
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "widths, message",
        [
            (["-1", "1"], "argument m: must be >= 0, got -1"),
            (["1", "-2"], "argument n: must be >= 0, got -2"),
        ],
        ids=["m", "n"],
    )
    def test_homset_negative_width_rejected(self, capsys, widths, message):
        assert main(["homset", *widths]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: monocat homset")
        assert message in err

    def test_homset_sliding_class_over_state_cap(self, capsys, fresh_memo, monkeypatch):
        # sliding classes are closed by fronts: no state cap applies, and
        # the work bound of ``terms`` stops a closing that runs too long
        args = ["homset", "3", "1", "--mode", "D", "--max-gens", "4", "--max-n", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("173 classes\n  eps(0,1) * id(1)\n  eps(1,1)\n")
        digest = "9df5bc8972fac16e50ac4169d3b1bf374a7abbfa537ad24d866ed2530b352499"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert main(args + ["--max-states", "2"]) == 2
        assert "unrecognized arguments: --max-states 2" in capsys.readouterr().err
        # at this bound the interchange closings of the enumeration pass
        monkeypatch.setattr(terms, "_WORK_CAP", 10)
        monkeypatch.setattr(terms, "_memo", {})
        assert main(args) == 2
        assert capsys.readouterr().err == "error: sliding class too large to normalise\n"

    def test_env_var_overrides_default_states(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOCAT_MAX_STATES", "10")
        code = main(
            ["explore", "(eta(0,1)*id(1)) ; (id(1)*eps(0,1))", "--mode", "C", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["truncated"] is True
        assert data["states_visited"] <= 10

    @pytest.mark.parametrize(
        "value, message",
        [("abc", "invalid int value: 'abc'"), ("0", "must be >= 1, got 0")],
        ids=["not_an_int", "zero"],
    )
    def test_malformed_env_var_is_a_usage_error(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("MONOCAT_MAX_STATES", value)
        assert main(["explore", "eta(0,1) ; eps(0,1)"]) == 2
        assert capsys.readouterr().err.strip() == f"error: MONOCAT_MAX_STATES: {message}"

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOCAT_MAX_STATES", "10")
        code = main(
            [
                "explore",
                "(eta(0,1)*id(1)) ; eps(1,1)",
                "--max-gens",
                "4",
                "--max-width",
                "6",
                "--max-n",
                "1",
                "--max-states",
                "5000",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["truncated"] is False

    def test_usage_error(self, capsys):
        assert main(["eq", "id(1)"]) == 2

    def test_unknown_phi(self, capsys):
        assert main(["eval", "id(1)", "--phi", "bogus"]) == 2


class TestSuiteCommand:
    def test_cli_does_not_import_the_suite(self):
        # only the suite command loads it; a fresh interpreter sees what the
        # import of the command line alone brings in
        code = "import sys, monocat.cli; print('monocat.suite' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_suite_with_config(self, tmp_path, capsys):
        cfg = {
            "caps": {"max_gen_count": 4, "max_width": 6, "max_index_n": 1, "max_states": 3000},
            "hom_caps": {"max_gen_count": 2, "max_width": 6, "max_index_n": 1, "max_states": 1500},
            "dims": [1, 2],
            "obstruction_samples": 10,
            "nonsquare_samples": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["suite", "--config", str(path), "--json", "--no-timings"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(c["status"] in {"pass", "evidence"} for c in data["checks"])
        assert all(c["elapsed_s"] == 0.0 for c in data["checks"])

    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dims": 2}))
        assert main(["suite", "--config", str(path)]) == 2
        assert capsys.readouterr().err.strip() == "error: dims must be a list of integers, got 2"

    @pytest.mark.parametrize("key", ["control_caps", "hom_merge_caps"])
    def test_removed_search_budgets_are_unknown_keys(self, tmp_path, capsys, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: {}}))
        assert main(["suite", "--config", str(path)]) == 2
        assert capsys.readouterr().err.strip() == f"error: unknown key(s) in suite config: {key!r}"

    def test_bad_config_path(self, capsys):
        assert main(["suite", "--config", "/nonexistent/cfg.json"]) == 2
