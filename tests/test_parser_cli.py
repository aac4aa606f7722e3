from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautcalc import (cli, paperchecks, polyoracle, schubert, staircase,
                      tautring)
from tautcalc.charpoly import symbol
from tautcalc.cli import main
from tautcalc.exprparse import (
    ParseError,
    evaluate_integral,
    evaluate_normal,
    parse,
    to_words,
)
from tautcalc.tautring import render_expr

VERIFY_PAPER = Path(__file__).parent / "data" / "verify_paper.txt"

omegaL = symbol("omegaL")
L2 = symbol("L2")
dL = symbol("dL")


def _never(*args, **kwargs):
    raise AssertionError("the command ran work it should have refused")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestRoundTrip:
    # render_expr output must parse back to the same expression
    CASES = [
        ("Delta<2>^2", 2),
        ("Gamma<2>^3", 2),
        ("Delta<3>^2", 3),
        ("Delta<3>^3", 3),
        ("Gamma<3>^4", 3),
        ("L(3)*Delta<3>^2", 3),
        ("Gamma<2>*Gamma<3>", 3),
    ]

    @pytest.mark.parametrize("text,m", CASES)
    def test_render_parse_fixpoint(self, text, m):
        e = evaluate_normal(text, m)
        assert evaluate_normal(render_expr(e), m) == e

    def test_unit_character_renders_bare(self):
        assert render_expr(evaluate_normal("sigma", 2)) == "sigma"


class TestParseForms:
    def test_whitespace_insensitive(self):
        loose = evaluate_normal("  Delta<3>  ^ 2 ", 3)
        assert loose == evaluate_normal("Delta<3>^2", 3)

    def test_rational_coefficients(self):
        half = evaluate_normal("1/2*Delta<2>", 2)
        whole = evaluate_normal("Delta<2>", 2)
        assert {gen: 2 * c for gen, c in half.terms.items()} == whole.terms

    def test_integer_arithmetic(self):
        got = evaluate_normal("2*Delta<2> - Delta<2>", 2)
        assert got == evaluate_normal("Delta<2>", 2)

    def test_parenthesized_integral(self):
        got = evaluate_integral("L(1)*(L(2)-Delta<2>)^2", 2)
        assert got == L2 * dL - omegaL - 2 * L2

    def test_short_node_form_sums_unit_fillings(self):
        short = evaluate_normal("F(13:)", 3)
        explicit = evaluate_normal("F(1|3:{2}|) + F(1|3:|{2})", 3)
        assert short == explicit

    def test_decorated_side_block(self):
        e = evaluate_normal("NS(1|3:{2}(omega)|)", 3)
        assert render_expr(e) == "NS(1|3:{2}(omega)|)"



class TestLikeWords:
    # factors commute, so the words of a product are collected
    @pytest.mark.parametrize("k", [0, 1, 5, 10])
    def test_power_of_a_sum_has_one_word_per_split(self, k):
        # at level 9 every split is inside the dimension, 10
        words = to_words(parse(f"(Delta<2>+Delta<3>)^{k}", 9), 9)
        assert len(words) == k + 1

    def test_words_past_the_dimension_collapse(self):
        # the 13 splits of codimension 12 > 4 leave one word, the first
        # seen, with its exponents; no check reads its coefficient, so
        # it carries 0
        [(c, word)] = to_words(parse("(Delta<2>+Delta<3>)^12", 3), 3)
        assert (c, type(c), word) == (0, int, ((("delta", 2), 12),))
        # one word per fate: Gamma<1> kills an integral's word
        words = to_words(parse("(1+Delta<2>+Gamma<1>)^40", 3), 3)
        past = [w for c, w in words if sum(n for _, n in w) > 4]
        assert past == [((("delta", 2), 5),),
                        ((("delta", 2), 4), (("gamma", 1), 1))]
        # and a lone zero seed kills its word, a nonzero one does not:
        # q[{1},{2}](pt,pt) has codimension 4 > 3, so its TautExpr is 0
        words = to_words(parse("(q[{1},{2}](pt,pt) + q[{1,2}](1))"
                               "*Delta<2>^5", 2), 2)
        assert [(c, [(f[0], n) for f, n in w]) for c, w in words] == [
            (0, [("delta", 5), ("seed", 1)])] * 2
        assert [w[1][0][1].is_zero() for _, w in words] == [True, False]

    def test_power_past_the_dimension_is_never_flattened(self):
        ast = parse("Delta<3>^2000000", 3)
        tracemalloc.start()
        try:
            words = to_words(ast, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words == [(0, ((("delta", 3), 2000000),))]
        assert peak < 100_000

    def test_seeds_follow_the_sorted_factors(self):
        words = to_words(parse("(NS(13:)+Delta<2>)^2", 3), 3)
        kinds = [tuple((f[0], n) for f, n in word) for _, word in words]
        assert kinds == [(("seed", 1), ("seed", 1)),
                         (("delta", 1), ("seed", 1)), (("delta", 2),)]
        # a word with two seeds is refused, so it carries 0; a
        # coefficient with no character is a plain int
        assert [(c, type(c)) for c, _ in words] == [(0, int), (2, int),
                                                    (1, int)]

    def test_collected_integral_unchanged(self):
        code, out, err = run_cli(["integrate", "-m", "3",
                                  "(Delta<2>+Delta<3>+L(1))^4"])
        assert (code, err) == (0, "")
        assert out == ("-8*dL*sigma + 4*dL*omega2 - 6*L2*g2 - 46*sigma"
                       " - 96*omegaL + 78*omega2 + 36*L2\n")

    def test_huge_power_refused_at_once(self):
        start = perf_counter()
        code, out, err = run_cli(["normalize", "-m", "9",
                                  "(Delta<2>+Delta<3>)^40"])
        assert perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: word exceeds the dimension of the level\n"

    def test_stand_in_coefficients_are_never_multiplied(self):
        # the power of character polynomials inside is past the
        # dimension, so its coefficients are never formed
        start = perf_counter()
        code, out, err = run_cli([
            "integrate", "-m", "3",
            "(Delta<2>-(Delta<1>*Delta<1>+(omega2+L(2))^4)^64)^8*F(12:)"])
        assert perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: word has codimension 10, integration needs 4\n"

    def test_cancelled_word_still_checked(self):
        code, out, err = run_cli(["normalize", "-m", "3",
                                  "(L(1)-L(1))*Delta<3>^4"])
        assert (code, out) == (2, "")
        assert err == "error: word exceeds the dimension of the level\n"


# atoms of the summand-order property: each level's seeds come first,
# its zero seed (a q[...] past the dimension, whose TautExpr is empty)
# leading; a seed kills a word on its own and is refused beside a second
_ORDER_ATOMS = {
    2: ["q[{1},{2}](pt,pt)", "q[{1,2}](1)", "F(12:)", "NS(12:)",
        "Delta<1>", "Gamma<1>", "Delta<2>", "Gamma<2>", "L(1)",
        "omega(2)", "pt(1)", "sigma", "2", "Delta<2>^5", "Gamma<1>^4",
        "L(2)^3"],
    3: ["q[{1},{2},{3}](pt,pt,pt)", "q[{1},{2}](pt,pt)", "q[{1,3}](L)",
        "F(13:)", "NS(13:)", "Delta<1>", "Gamma<1>", "Delta<3>",
        "Gamma<2>", "L(3)", "omega(1)", "pt(2)", "dL", "1/3",
        "Delta<3>^6", "Gamma<1>^5", "(Delta<2>+L(1))^7"],
}


@st.composite
def _order_case(draw):
    m = draw(st.sampled_from([2, 3]))
    atoms = _ORDER_ATOMS[m]
    # a seed in half the parts, so that zero and nonzero seeds meet
    atom = st.one_of(st.sampled_from(atoms[:4 if m == 2 else 5]),
                     st.sampled_from(atoms))
    monomial = st.lists(atom, min_size=1, max_size=2).map("*".join)
    summand = st.tuples(monomial, st.sampled_from([" + ", " - "]),
                        monomial).map("".join)
    part = st.one_of(monomial, summand)
    return m, draw(part), draw(part), draw(monomial)


class TestSummandOrder:
    # the words of a product past the dimension are collected by fate,
    # and a lone zero seed kills its word where a nonzero seed does not
    ZERO_SEED_FORMS = [
        "(q[{1},{2}](pt,pt) + q[{1,2}](1))*Delta<2>^5",
        "(q[{1,2}](1) + q[{1},{2}](pt,pt))*Delta<2>^5",
        "q[{1},{2}](pt,pt)*Delta<2>^5 + q[{1,2}](1)*Delta<2>^5",
    ]

    @pytest.mark.parametrize("command,err", [
        ("normalize", "error: word exceeds the dimension of the level\n"),
        ("integrate", "error: word has codimension 6, integration needs 3\n"),
    ])
    def test_a_zero_seed_hides_no_refused_word(self, command, err):
        for text in self.ZERO_SEED_FORMS:
            assert run_cli([command, "-m", "2", text]) == (2, "", err)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_order_case(), st.sampled_from(["normalize", "integrate"]))
    def test_summand_order_never_changes_the_result(self, case, command):
        # the message may differ: the first failing word depends on order
        m, a, b, p = case
        results = [run_cli([command, "-m", str(m), text]) for text in (
            f"({a} + {b})*{p}", f"({b} + {a})*{p}",
            f"({a})*{p} + ({b})*{p}")]
        assert len({code for code, _, _ in results}) == 1
        if results[0][0] == 0:
            assert len({out for _, out, _ in results}) == 1


class TestParseErrors:
    def test_position_in_message(self):
        with pytest.raises(ParseError, match="line 1, column 11") as info:
            evaluate_normal("Gamma<2> +* L(1)", 2)
        assert info.value.pos == 10

    def test_level_out_of_range(self):
        with pytest.raises(ParseError, match="level index 4 outside 1..3"):
            evaluate_normal("Gamma<4>", 3)

    def test_slot_out_of_range(self):
        with pytest.raises(ParseError, match="slot index 5 outside 1..3"):
            evaluate_normal("L(5)", 3)

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unknown character 'sigmaX'"):
            evaluate_normal("sigmaX", 2)

    def test_level_above_nine_refused(self):
        # slot digits are read one at a time, so F(1|10:) cannot parse
        with pytest.raises(ParseError, match="level 10 above 9"):
            evaluate_normal("Gamma<10>", 10)

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="expected expression"):
            evaluate_normal("Delta<2>^2 + ", 2)

    @pytest.mark.parametrize("argv, column", [
        (["normalize", "-m", "3", "NS(1|23:)@irr"], 10),
        (["normalize", "-m", "2", "F(1|2:)@irr"], 8),
        (["integrate", "-m", "2", "NS(12:)@irr"], 8),
    ])
    def test_node_tag_refused_at_the_at_sign(self, argv, column):
        # the surface's nodes all lie on reducible fibres
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == ("error: node profiles take no tag: the surface has no"
                       f" irreducible nodes at line 1, column {column}\n")


class TestCliValues:
    def test_beta_row(self):
        assert run_cli(["beta", "6"]) == (0, "15 24 27 24 15\n", "")

    def test_integrate_top_diagonal_fourth(self):
        code, out, err = run_cli(["integrate", "-m", "3", "Delta<3>^4"])
        assert (code, out, err) == (0, "-2*sigma + 14*omega2\n", "")

    def test_normalize_top_diagonal_square(self):
        code, out, _ = run_cli(["normalize", "-m", "3", "Delta<3>^2"])
        assert code == 0
        assert out == ("2*q[{1,2,3}](1) - q[{1,3}](omega) - q[{2,3}](omega)"
                       " + F(13:) + F(23:)\n")

    def test_alpha_notes_closed_form_gap(self):
        code, out, _ = run_cli(["alpha", "4"])
        assert code == 0
        assert out == "15\nnote: the printed closed form evaluates to 18\n"

    def test_colength(self):
        assert run_cli(["colength", "5"]) == (0, "35\n", "")

    def test_schubert_box_degrees(self):
        line = run_cli(["schubert", "--box", "2,4",
                        "--factors", "r2,r3,r3"])
        assert line == (0, "1\n", "")
        quadric = run_cli(["schubert", "--box", "2,2",
                           "--factors", "r1,r1,r1,r1"])
        assert quadric == (0, "2\n", "")

    def test_schubert_factor_outside_box(self):
        # refused even though the weights already rule out the box
        code, out, err = run_cli(["schubert", "--box", "2,4",
                                  "--factors", "r9"])
        assert (code, out) == (1, "")
        assert err == ("error: factor size 9 above 4: a special class fits"
                       " in the box\n")

    def test_ord_table(self):
        code, out, _ = run_cli(["ord-table", "-m", "3"])
        assert code == 0
        assert out.splitlines() == [
            "ord j=1 = 3 1 0 0",
            "ord j=2 = 1 0 0 1",
            "ord j=3 = 0 0 1 3",
            "printed-quadratic j=1 = 6 2 0 0",
            "printed-quadratic j=2 = 2 0 0 2",
            "printed-quadratic j=3 = 0 0 2 6",
        ]

    def test_chern_level_two(self):
        code, out, _ = run_cli(["chern", "-m", "2"])
        assert code == 0
        assert out.splitlines() == [
            "c_0 = 1",
            "c_1 = q[{1}](L) - q[{1,2}](1) + q[{2}](L)",
            "c_2 = q[{1},{2}](L, L) - q[{1,2}](L)",
            "c_3 = 0",
        ]

    def test_vdm_check(self):
        code, out, _ = run_cli(["vdm-check", "-m", "3"])
        lines = out.splitlines()
        assert code == 0
        assert lines[:3] == [
            "chain m=2 i=1 sign=-1 OK",
            "chain m=3 i=1 sign=-1 OK",
            "chain m=3 i=2 sign=+1 OK",
        ]
        assert len(lines) == 19
        assert all(line.endswith(" OK") for line in lines)

    def test_eta_reports_both_gaps(self):
        code, out, _ = run_cli(["eta", "3", "1", "3"])
        lines = out.splitlines()
        assert code == 0
        assert lines[:3] == [
            "eta_valuation = 4",
            "quadratic_exponent = 3",
            "printed_exponent = 0",
        ]
        assert len(lines) == 5
        assert all(line.startswith("note:") for line in lines[3:])

    def test_nsec3_breakdown(self):
        code, out, _ = run_cli(["nsec3", "--breakdown"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == ("3*L2*dL^2 + 6*dL*sigma - 12*dL*omegaL"
                            " - 3*dL*omega2 - 3*L2*g2 - 27*L2*dL"
                            " - 12*sigma + 72*omegaL + 28*omega2 + 60*L2")
        terms = [line for line in lines if line.startswith("term ")]
        assert len(terms) == 10
        assert "term j=(3,0,1) G=1 W=0" in terms
        assert "term j=(2,0,2) G=1 W=-L2*g2 - 2*L2*dL + 2*L2" in terms


class TestSlotClassNames:
    # the slot classes that the golden renders never use: pt, pin, a
    # user divisor with and without a registered pairing
    @pytest.mark.parametrize("m,text,value", [
        ("2", "pt(1)*Delta<2>", "1"),
        ("2", "pt(2)*omega(1)", "g2"),
        ("3", "pt(3)*Delta<3>^2", "2"),
        ("3", "pt(2)*L(1)*Delta<3>", "2*dL"),
        ("2", "pin(1)*Delta<2>^2", "0"),
    ])
    def test_integrals(self, m, text, value):
        assert run_cli(["integrate", "-m", m, text]) == (0, value + "\n", "")

    @pytest.mark.parametrize("text,form", [
        ("pt(2)*Delta<3>", "q[{1,3},{2}](1, pt) + q[{2,3}](pt)"),
        ("f(2)*NS(13:)", "NS(1|3:|{2}(f)) + NS(1|3:{2}(f)|)"),
    ])
    def test_normal_forms(self, text, form):
        assert run_cli(["normalize", "-m", "3", text]) == (0, form + "\n", "")

    def test_unregistered_divisor(self):
        code, out, err = run_cli(["integrate", "-m", "3", "M(1)*Delta<3>^3"])
        assert (code, out) == (2, "")
        assert "no pairing registered" in err

    def test_unregistered_divisor_has_a_normal_form(self):
        # a normal form never pairs the divisor, so it needs no pairing
        assert run_cli(["normalize", "-m", "2", "M(1)*Delta<2>"]) == (
            0, "q[{1,2}](M)\n", "")



class TestCliFormats:
    def test_alpha_kv(self):
        code, out, _ = run_cli(["alpha", "4", "--format", "kv"])
        assert code == 0
        assert out == "alpha = 15\nprinted_closed_form = 18\n"

    def test_eta_kv_drops_notes(self):
        code, out, _ = run_cli(["eta", "3", "1", "3", "--format", "kv"])
        assert code == 0
        assert out == ("eta_valuation = 4\nquadratic_exponent = 3\n"
                       "printed_exponent = 0\n")

    def test_beta_kv(self):
        code, out, _ = run_cli(["beta", "6", "--format", "kv"])
        assert code == 0
        assert out == "beta = 15 24 27 24 15\n"


class TestCliCharsFile:
    def write_cfg(self, tmp_path, g2="sym"):
        cfg = tmp_path / "chars.cfg"
        cfg.write_text(
            "# test surface\n"
            "sigma = 0\nomega2 = 0\nomegaL = 1\nL2 = 2\ndL = 3\n"
            f"g2 = {g2}\n")
        return str(cfg)

    def test_integrate_with_assignment(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        code, out, _ = run_cli(["integrate", "-m", "3", "Delta<3>^4",
                                "--chars", cfg])
        assert (code, out) == (0, "0\n")

    def test_nsec3_partial_assignment(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        code, out, _ = run_cli(["nsec3", "--chars", cfg])
        assert (code, out) == (0, "-6*g2 + 48\n")

    def test_nsec3_full_assignment_divides(self, tmp_path):
        cfg = self.write_cfg(tmp_path, g2="1")
        code, out, _ = run_cli(["nsec3", "--chars", cfg])
        assert (code, out) == (0, "42\nN3 = 7\n")

    def test_nsec3_fractional_count(self, tmp_path):
        # 3!N3 = 61 is not divisible by 6: N3 prints as an exact fraction
        cfg = tmp_path / "chars.cfg"
        cfg.write_text("sigma = 0\nomega2 = 1\nomegaL = 1\nL2 = 2\n"
                       "dL = 3\ng2 = 1\n")
        code, out, _ = run_cli(["nsec3", "--chars", str(cfg)])
        assert (code, out) == (0, "61\nN3 = 61/6\n")

    def test_side_degrees_are_characters(self, tmp_path):
        # the symbolic value is -g2J*sigma - 4*g2*sigma - 17*sigma
        cfg = tmp_path / "chars.cfg"
        cfg.write_text("sigma = 1\ng2 = -2\ng2J = 1\n")
        code, out, _ = run_cli(["integrate", "-m", "4",
                                "F(1|2:{3},{4}|)*Gamma<4>^3",
                                "--chars", str(cfg)])
        assert (code, out) == (0, "-10\n")

    def test_bad_key_rejected(self, tmp_path):
        cfg = tmp_path / "chars.cfg"
        cfg.write_text("bogus = 1\n")
        code, out, err = run_cli(["integrate", "-m", "3", "Delta<3>^4",
                                  "--chars", str(cfg)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestLeadingMinus:
    """An expression may start with a unary minus, with or without "--"."""

    @pytest.mark.parametrize("argv, expr", [
        (["normalize", "-m", "3"], "-Delta<3>^2"),
        (["normalize", "-m3"], "-2*Delta<3>^2"),
        (["integrate", "-m", "3"], "-Delta<3>^4"),
        (["integrate", "--format", "kv", "-m", "3"], "-(Delta<3>^4)"),
    ])
    def test_same_output_as_after_a_double_dash(self, argv, expr):
        want = run_cli(argv + ["--", expr])
        assert want[0] == 0 and want[2] == ""
        assert run_cli(argv + [expr]) == want
        assert run_cli([argv[0], expr] + argv[1:]) == want

    def test_with_a_character_file(self, tmp_path):
        chars = tmp_path / "chars.txt"
        chars.write_text("sigma = 1\nomega2 = 2\n")
        assert run_cli(["integrate", "-m", "3", "-Delta<3>^4", "--chars",
                        str(chars)]) == (0, "-26\n", "")

    @pytest.mark.parametrize("argv, err", [
        (["normalize", "-m", "3", "--bogus", "-Delta<3>^2"],
         "error: unrecognized arguments: --bogus\n"),
        (["normalize", "-m", "3", "-x"],
         "error: the following arguments are required: expr\n"),
        (["integrate", "-Delta<3>^4"],
         "error: the following arguments are required: -m/--level\n"),
        (["integrate", "-m", "3", "-Delta<3>^4", "--chars"],
         "error: argument --chars: expected one argument\n"),
    ])
    def test_options_are_still_read_as_options(self, argv, err):
        assert run_cli(argv) == (1, "", err)

    def test_help_is_still_read_as_help(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["normalize", "-h", "-Delta<3>^2"])
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: taut-calc normalize")


class TestCliExitCodes:
    @pytest.mark.parametrize("argv", [
        ["integrate", "-m", "3", "Gamma<4>"],
        ["beta", "6", "--bogus-flag"],
        ["no-such-command"],
        ["eta", "3", "1"],
    ])
    def test_usage_and_parse_errors(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["integrate", "-m", "3", "Delta<3>^3"],
        ["normalize", "-m", "3", "F(13:)*F(23:)"],
    ])
    def test_engine_errors(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_level_above_nine_exits_at_once(self):
        code, out, err = run_cli(["integrate", "-m", "10", "Gamma<10>^11"])
        assert (code, out) == (1, "")
        assert err.startswith("error: level 10 above 9")

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_level_below_one_exits_at_once(self, level):
        code, out, err = run_cli(["integrate", "-m", level, "L(1)"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: level {level} below 1")

    @pytest.mark.parametrize("argv, message", [
        (["vdm-check", "-m", "0"], "level 0 below 2"),
        (["vdm-check", "-m", "1"], "level 1 below 2"),
        (["ord-table", "-m", "0"], "level 0 below 1"),
        (["ord-table", "-m", "-2"], "level -2 below 1"),
        (["chern", "-m", "0"], "level 0 below 1"),
        (["chern", "-m", "-1"], "level -1 below 1"),
        (["chern", "-m", "6"], "level 6 above 5: from level 6 the engine"
         " fails with side block key 'pt' has degree > 1"),
        (["chern", "-m", "10"], "level 10 above 5"),
        (["vdm-check", "-m", "8"], "level 8 above 7"),
        (["ord-table", "-m", "8"], "level 8 above 7"),
        (["ord-table", "-m", "40", "--seed", "3"], "level 40 above 7"),
        (["eta", "7", "1", "2"], "level 7 above 6"),
        (["eta", "1000", "1", "1"], "level 1000 above 6"),
        (["eta", "0", "1", "1"], "level 0 below 1"),
        (["eta", "2", "0", "1"], "i 0 below 1"),
        (["eta", "2", "3", "1"], "i 3 above 2: indices run to the level"),
        (["eta", "3", "1", "0"], "j 0 below 1"),
        (["eta", "3", "2", "4"], "j 4 above 3: indices run to the level"),
        (["alpha", "0"], "level 0 below 1"),
        (["alpha", "-3"], "level -3 below 1"),
        (["alpha", str(10**1000 + 1)], "a 1001-digit level above a 1001-digit"
         " bound: the answer would pass Python's 4300-digit print limit"),
        (["colength", "0"], "level 0 below 1"),
        (["colength", "301"], "level 301 above 300: the Buchberger"),
        (["beta", "1"], "level 1 below 2"),
        (["beta", "61"], "level 61 above 60: the Buchberger"),
        (["beta", "6", "-j", "0"], "slope 0 below 1"),
        (["beta", "6", "-j", "6"], "slope 6 above 5: the slopes of level m"),
        (["beta", "6", "-j", "9"], "slope 9 above 5"),
        (["schubert", "--box=-1,4", "--factors", "r1"], "box side -1 below 0"),
        (["schubert", "--box=3,-2", "--factors", "c1"], "box side -2 below 0"),
        (["schubert", "--box", "8,9", "--factors", "r1"],
         "box a+b 17 above 16: the Pieri fold"),
        (["schubert", "--box", "2000,2", "--factors", "r1"],
         "box a+b 2002 above 16"),
        (["schubert", "--box", "2,4", "--factors", "r2,c5"],
         "factor size 5 above 4: a special class fits in the box"),
        (["alpha", str(-10**40)], "a 41-digit negative level below 1"),
        (["beta", "3", "--eta", "0"], "eta must be nonzero"),
    ])
    def test_subcommand_levels_out_of_range_exit_at_once(self, argv, message,
                                                         monkeypatch):
        # refused before any oracle runs; each command imports its oracle
        # when it runs, so the names are patched where they live
        for module, names in ((polyoracle, ("check_chain", "check_syzygy",
                                            "ord_table", "eta_valuation")),
                              (tautring, ("chern_taut",)),
                              (staircase, ("alpha", "beta", "j_m",
                                           "colength")),
                              (schubert, ("grassmann_integral",))):
            for name in names:
                monkeypatch.setattr(module, name, _never)
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv, want", [
        (["normalize", "-m", "3", "Delta<3>^2000000"],
         (2, "", "error: word exceeds the dimension of the level\n")),
        (["normalize", "-m", "2", "sigma^20000"], (0, "sigma^20000\n", "")),
        (["integrate", "-m", "2", "(2*Delta<2>)^100000"],
         (2, "", "error: word has codimension 100000, integration needs 3\n")),
    ])
    def test_power_of_one_word_is_taken_at_once(self, argv, want):
        # one step per power, not one product per unit of the exponent
        start = perf_counter()
        got = run_cli(argv)
        assert perf_counter() - start < 2.0
        assert got == want

    @pytest.mark.parametrize("argv, want", [
        (["normalize", "-m", "3", "(1+Delta<2>)^1000"],
         (2, "", "error: word exceeds the dimension of the level\n")),
        (["integrate", "-m", "3", "(1+Delta<2>)^30"],
         (2, "", "error: word has codimension 0, integration needs 4\n")),
        (["integrate", "-m", "3", "(Delta<2>+1)^1000"],
         (2, "", "error: word has codimension 1000, integration needs 4\n")),
        (["integrate", "-m", "3", "(Delta<2>+Delta<3>+L(1))^4"
          " - (Delta<2>+Gamma<1>)^1000*Gamma<1>"],
         (0, "-8*dL*sigma + 4*dL*omega2 - 6*L2*g2 - 46*sigma - 96*omegaL"
             " + 78*omega2 + 36*L2\n", "")),
        (["normalize", "-m", "3", "(1+Delta<2>)^1000*Delta<1>"],
         (0, "0\n", "")),
        (["normalize", "-m", "3", "(F(13:)+Delta<2>)^1000"],
         (2, "", "error: products of two seeded classes are not supported\n")),
        (["normalize", "-m", "3", "(1+Delta<2>)^100000"],
         (2, "", "error: word exceeds the dimension of the level\n")),
        (["normalize", "-m", "3", "(1+Delta<2>+Delta<3>)^100000"],
         (2, "", "error: word exceeds the dimension of the level\n")),
        (["integrate", "-m", "3", "(1+Delta<2>)^100000"],
         (2, "", "error: word has codimension 0, integration needs 4\n")),
        (["integrate", "-m", "3", "(Delta<3>+Delta<2>+1)^100000"],
         (2, "", "error: word has codimension 100000, integration needs 4\n")),
    ])
    def test_power_of_a_sum_is_decided_at_once(self, argv, want):
        # words past the dimension collapse, and the power is taken by
        # squaring: about 2 log2(n) products of bounded size
        start = perf_counter()
        got = run_cli(argv)
        assert perf_counter() - start < 1.0
        assert got == want

    def test_huge_level_refused_in_a_short_message(self):
        code, out, err = run_cli(["alpha", str(10**1000 + 1)])
        assert (code, out) == (1, "")
        assert len(err) < 200
        assert "1001-digit level" in err
        assert "4300-digit print limit" in err

    @pytest.mark.parametrize("expr", ["F(11:)*Gamma<2>^2",
                                      "F(1|1:|{2})*Gamma<2>^2"])
    def test_repeated_colliding_slot_refused(self, expr):
        code, out, err = run_cli(["integrate", "-m", "2", expr])
        assert (code, out) == (2, "")
        assert err == "error: slot 1 used twice in node profile\n"

    @pytest.mark.parametrize("argv", [
        ["integrate", "-m", "3", "NS(1|3:{2}(pin)|)"],
        ["normalize", "-m", "3", "F(1|3:{2}(pin)|)"],
        ["normalize", "-m", "3", "F(1|3:|{2}(pin))"],
    ])
    def test_pin_on_one_slot_refused(self, argv):
        # a pin joins two side points
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err == ("error: pin on the one-slot side block {2}: a pin"
                       " joins two side points\n")

    def test_short_node_form_stays_validated(self):
        # the short form's fillings go through the validating constructor
        code, out, err = run_cli(["normalize", "-m", "2", "F(1:)"])
        assert (code, out) == (2, "")
        assert err == "error: split 1 invalid for |I| = 1\n"

    def test_seed_changes_nothing_in_the_cli(self):
        # at 226 and 352557 the sampled order once drew vanishing constants
        outs = set()
        for seed in ("0", "226", "352557", "-1"):
            code, out, err = run_cli(["ord-table", "-m", "4", "--seed", seed])
            assert (code, err) == (0, "")
            outs.add(out)
        [out] = outs
        assert out.splitlines()[:4] == ["ord j=1 = 6 3 1 0 0",
                                        "ord j=2 = 3 1 0 0 1",
                                        "ord j=3 = 1 0 0 1 3",
                                        "ord j=4 = 0 0 1 3 6"]

    def test_lowest_levels_still_run(self):
        code, out, _ = run_cli(["ord-table", "-m", "1"])
        assert (code, out) == (0, "ord j=1 = 0 0\nprinted-quadratic j=1 = 0 0\n")
        code, out, _ = run_cli(["vdm-check", "-m", "2"])
        assert (code, out) == (0, "chain m=2 i=1 sign=-1 OK\n"
                                  "syzygy lower m=2 i=1 j=0 sign=-1 OK\n"
                                  "syzygy lower m=2 i=1 j=1 sign=-1 OK\n"
                                  "syzygy raise m=2 i=2 j=0 sign=-1 OK\n"
                                  "syzygy raise m=2 i=2 j=1 sign=-1 OK\n")
        code, out, _ = run_cli(["chern", "-m", "1"])
        assert (code, out) == (0, "c_0 = 1\nc_1 = q[{1}](L)\nc_2 = 0\n")

    def test_highest_alpha_level_prints(self):
        code, out, err = run_cli(["alpha", str(10**1000)])
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == str(comb(10**1000 + 2, 4))

    def test_cancelling_sum_integrates_to_zero(self):
        code, out, err = run_cli(["integrate", "-m", "4",
                                  "Delta<4>^5 - Delta<4>^5"])
        assert (code, out, err) == (0, "0\n", "")

    def test_unpaired_divisors_exit_cleanly(self):
        # one missing pairing gets one message, whatever the slot order
        for word in ("L(1)*M(2)*Delta<2>", "M(1)*L(2)*Delta<2>"):
            code, out, err = run_cli(["integrate", "-m", "2", word])
            assert (code, out) == (2, ""), word
            assert err == ("error: no pairing registered for divisors"
                           " 'L', 'M'\n"), word


class TestOneSubcommandParser:
    """`main` builds only the named command's subparser, and the whole
    table for help, no command or an unknown one; both parsers answer
    every command line alike."""

    # per command: a valid tail, one with a bad type, one missing an
    # argument
    CASES = {
        "alpha": (["3"], ["x"], []),
        "beta": (["4", "-j", "2"], ["4", "-j", "x"], []),
        "colength": (["3"], ["3.5"], []),
        "vdm-check": (["-m", "2"], ["-m", "x"], ["-m"]),
        "ord-table": (["-m", "2", "--seed", "1"], ["--seed", "x"], ["--seed"]),
        "eta": (["2", "1", "2"], ["2", "x", "1"], ["2", "1"]),
        "normalize": (["-m", "2", "Delta<2>^2"], ["-m", "x", "L(1)"],
                      ["-m", "2"]),
        "integrate": (["-m", "2", "Delta<2>^3"], ["-m", "x", "L(1)"],
                      ["Delta<2>^3"]),
        "chern": (["-m", "2"], ["-m", "x"], []),
        "schubert": (["--box", "2,2", "--factors", "r1,r1,r1,r1"],
                     ["--box", "2,2", "--factors", "x1"], ["--box", "2,2"]),
        "nsec3": ([], ["--breakdown=x"], ["--chars"]),
        "verify-paper": ([], ["--format", "xml"], ["--format"]),
    }

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # help exits from argparse
                code = ("exit", exc.code)
        return code, out.getvalue(), err.getvalue()

    def test_every_command_has_cases(self):
        assert set(self.CASES) == set(cli._COMMANDS)

    @pytest.mark.parametrize("name", list(CASES))
    def test_same_answers_as_the_full_parser(self, name, monkeypatch):
        valid, bad_type, missing = self.CASES[name]
        corpus = [valid, bad_type, missing, valid + ["--bogus"], ["-h"],
                  valid + ["--format", "kv"]]
        argvs = [[name] + tail for tail in corpus]
        one = [self.run(argv) for argv in argvs]
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser",
                            lambda names: full(cli._COMMANDS))
        assert [self.run(argv) for argv in argvs] == one
        codes = [code for code, _, _ in one]
        assert codes[0] == codes[5] == 0 and codes[4] == ("exit", 0)
        assert codes[1] == codes[2] == codes[3] == 1

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["alp", "3"]])
    def test_no_known_command_gets_the_whole_table(self, argv, monkeypatch):
        built = []
        full = cli._build_parser

        def spy(names):
            built.append(list(names))
            return full(names)

        monkeypatch.setattr(cli, "_build_parser", spy)
        code, out, err = self.run(argv)
        assert built == [list(cli._COMMANDS)]
        if argv == ["-h"]:
            assert code == ("exit", 0)
            assert "{" + ",".join(cli._COMMANDS) + "}" in out
        else:
            assert code == 1
            assert err.startswith("error: ")
            if argv:
                assert "invalid choice" in err and "'verify-paper'" in err

    def test_a_command_builds_only_its_own_subparser(self, monkeypatch):
        built = []
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser",
                            lambda names: built.append(names) or full(names))
        assert self.run(["alpha", "3"]) == (0, "5\n", "")
        assert built == [["alpha"]]


class TestCommandImports:
    """A fresh interpreter running one command loads only its modules."""

    CODE = ("import contextlib, io, json, sys\n"
            "from tautcalc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, sorted(n for n in sys.modules"
            " if n.partition('.')[0] == 'tautcalc')]))")

    def loaded(self, argv):
        src = str(Path(cli.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", self.CODE,
                              json.dumps(argv)],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src))
        code, modules = json.loads(out.stdout)
        assert code == 0
        return set(modules)

    @pytest.mark.parametrize("argv", [
        ["alpha", "3"], ["beta", "6"], ["colength", "5"]])
    def test_staircase_commands(self, argv):
        assert self.loaded(argv) == {"tautcalc", "tautcalc.cli",
                                     "tautcalc.staircase"}

    @pytest.mark.parametrize("argv", [
        ["vdm-check", "-m", "3"], ["ord-table", "-m", "3"],
        ["eta", "4", "2", "3"]])
    def test_oracle_commands(self, argv):
        assert self.loaded(argv) == {"tautcalc", "tautcalc.cli",
                                     "tautcalc.polyoracle"}

    def test_the_pieri_fold_loads_no_engine(self):
        argv = ["schubert", "--box", "2,4", "--factors", "r2,r3,r3"]
        assert not self.loaded(argv) & {"tautcalc.tautring",
                                        "tautcalc.exprparse",
                                        "tautcalc.charpoly"}

    def test_the_engine_loads_no_oracle(self):
        argv = ["integrate", "-m", "3", "Delta<3>^4"]
        assert not self.loaded(argv) & {"tautcalc.staircase",
                                        "tautcalc.polyoracle",
                                        "tautcalc.schubert"}

    def test_verify_paper_loads_every_module(self):
        # the only command that loads the checks module
        assert self.loaded(["verify-paper"]) == {
            "tautcalc", "tautcalc.charpoly", "tautcalc.cli",
            "tautcalc.exprparse", "tautcalc.paperchecks",
            "tautcalc.polyoracle", "tautcalc.schubert", "tautcalc.staircase",
            "tautcalc.surface", "tautcalc.tautring"}


class TestVerifyBattery:
    def test_all_checks_consistent(self):
        code, out, _ = run_cli(["verify-paper"])
        lines = out.splitlines()
        assert code == 0
        assert lines[-1] == "OK: all checks consistent"
        for line in lines[:-1]:
            assert line.startswith(("PASS ", "NOTE "))

    def test_transcript_is_pinned(self):
        # every PASS/NOTE line, byte for byte
        code, out, err = run_cli(["verify-paper"])
        assert (code, err) == (0, "")
        assert out == VERIFY_PAPER.read_text(encoding="utf-8")

    def test_a_regressed_check_fails_the_run(self, monkeypatch):
        # one row's expected render no longer matches the engine
        rows = [(cid, status, detail,
                 [(3, "Delta<3>^4", "-2*sigma + 15*omega2")]
                 if cid == "int-delta3-fourth" else cases)
                for cid, status, detail, cases in paperchecks.CHECKS]
        monkeypatch.setattr(paperchecks, "CHECKS", rows)
        code, out, _ = run_cli(["verify-paper"])
        lines = out.splitlines()
        assert code == 3
        assert ("FAIL int-delta3-fourth: fourth power of the top diagonal"
                in lines)
        assert lines[-1] == "FAIL: 1 checks regressed"
