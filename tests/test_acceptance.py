"""Acceptance battery: one test per shipped guarantee, in contract order.

Everything runs in exact arithmetic, so every comparison is equality
with zero tolerance.  Where a printed reference value disagrees with
the engine the printed form is kept as a strict expected failure, and
the adjacent green test pins the computed result.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from tautcalc.charpoly import CharacterPolynomial as CP, symbol
from tautcalc.exprparse import evaluate_integral, evaluate_normal
from tautcalc.polyoracle import (
    arc_valuation,
    check_chain,
    check_syzygy,
    derived_eta_exponent,
    eta_valuation,
    ord_table,
    vdm_det,
)
from tautcalc.schubert import NSEC3_TUPLES, grassmann_integral, nsec3, nsec3_terms
from tautcalc.staircase import alpha, beta, colength, j_m, monomial_poly, printed_alpha_closed_form
from tautcalc.tautring import (
    DiagMonomial,
    NodeClass,
    TautExpr,
    expand_monomial,
    integrate,
    integrate_word,
    mul_class,
    pullback,
    pushforward,
    render_expr,
    unit,
)
from test_polyoracle import t_valuation

sigma = symbol("sigma")
omega2 = symbol("omega2")
omegaL = symbol("omegaL")
L2 = symbol("L2")
dL = symbol("dL")
g2 = symbol("g2")
one = CP.one()


def elapsed(start):
    return time.perf_counter() - start


def test_weight_tables():
    start = time.perf_counter()
    assert beta(2) == (1,)
    assert beta(3) == (3, 3)
    assert beta(4) == (6, 8, 6)
    assert beta(5) == (10, 15, 15, 10)
    assert beta(6) == (15, 24, 27, 24, 15)
    for m in range(2, 9):
        row = beta(m)
        assert row[0] == comb(m, 2)
        assert row == row[::-1]
    assert elapsed(start) < 1.0


def test_colength_formula():
    start = time.perf_counter()
    for m in range(2, 9):
        a = alpha(m)
        assert a == comb(m + 2, 4)
        assert colength([monomial_poly(c) for c in j_m(m)]) == a
    diverging = [m for m in range(2, 9) if printed_alpha_closed_form(m) != alpha(m)]
    assert diverging == [4, 5, 6, 7, 8]
    assert elapsed(start) < 1.0


def test_eta_independence():
    probes = [
        (Fraction(1), Fraction(2)),
        (Fraction(1), Fraction(-3, 5)),
        (Fraction(2), Fraction(-3, 5)),
        (Fraction(1), Fraction(2), Fraction(-3, 5)),
    ]
    for m in range(2, 7):
        rows = {beta(m, etas=etas) for etas in probes}
        assert len(rows) == 1


def test_vandermonde_identities():
    start = time.perf_counter()
    for m in range(2, 6):
        for i in range(1, m):
            assert check_chain(m, i) in (-1, 1)
    for m in range(2, 5):
        for i in range(1, m):
            signs = {check_syzygy(m, i, j, "lower") for j in range(m)}
            assert signs <= {-1, 1} and len(signs) == 1
        for i in range(2, m + 1):
            signs = {check_syzygy(m, i, j, "raise") for j in range(m)}
            assert signs <= {-1, 1} and len(signs) == 1
    assert elapsed(start) < 30.0


def test_valuation_table():
    for m in range(2, 5):
        table = ord_table(m)
        assert set(table) == {(j, size)
                              for j in range(1, m + 1)
                              for size in range(m + 1)}
        assert all(v >= 0 for v in table.values())
        # the order depends on the component only through its size
        for j in range(1, m + 1):
            for size in range(1, m + 1):
                vals = {arc_valuation(m, j, comp)
                        for comp in combinations(range(1, m + 1), size)}
                assert vals == {table[(j, size)]}
            zeros = {size for size in range(m + 1) if table[(j, size)] == 0}
            assert zeros == {m - j, m - j + 1}


@pytest.mark.xfail(strict=True, reason=(
    "the quadratic undercounts the valuation whenever the two row"
    " indices sit at distance two or more; the corrected law is pinned"
    " in the next test"))
def test_eta_exponent_quadratic():
    for m in range(2, 5):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                want = ((i - 1) * (Fraction(m) - Fraction(i, 2))
                        + (j - 1) * (Fraction(m) - Fraction(j, 2)))
                assert eta_valuation(m, i, j) == want


def test_eta_exponent_corrected_law():
    for m in range(2, 5):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                correction = t_valuation(vdm_det(m, i) * vdm_det(m, j))
                assert (eta_valuation(m, i, j)
                        == derived_eta_exponent(m, i, j) + correction)
                assert (correction == 0) == (abs(i - j) <= 1)


def test_intersection_battery():
    start = time.perf_counter()
    ival = evaluate_integral

    # normal forms, rendered verbatim
    assert (render_expr(evaluate_normal("Gamma<2>^3", 2))
            == "omega2*q[{1,2}](pt) - NS(12:)")
    assert (render_expr(evaluate_normal("Delta<2>^2", 2))
            == "-q[{1,2}](omega) + F(12:)")
    assert (render_expr(evaluate_normal("Delta<3>^2", 3))
            == "2*q[{1,2,3}](1) - q[{1,3}](omega) - q[{2,3}](omega)"
               " + F(13:) + F(23:)")

    # divisor against the squared diagonal, halving across levels
    for i in (1, 2):
        assert ival(f"L({i})*Delta<2>^2", 2) == -omegaL
    for i in (1, 2, 3):
        assert ival(f"L({i})*Delta<2>^2*Delta<3>", 3) == -2 * omegaL

    # two divisors against one diagonal
    for i, j in ((1, 1), (1, 2), (2, 2)):
        assert ival(f"L({i})*L({j})*Delta<2>", 2) == L2
    for i, j in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)):
        assert ival(f"L({i})*L({j})*Delta<2>*Delta<3>", 3) == 2 * L2

    # pure divisor words
    assert ival("L(1)*L(2)^2", 2) == dL * L2
    assert ival("L(1)*L(2)*L(3)*Delta<3>", 3) == 2 * dL * L2
    assert ival("L(1)*L(3)^2*Delta<3>", 3) == dL * L2
    assert ival("L(2)*L(3)^2*Delta<3>", 3) == dL * L2

    # diagonal powers
    assert ival("Delta<2>^3", 2) == -sigma + omega2
    assert ival("Delta<2>^3*Delta<3>", 3) == 2 * (-sigma + omega2)
    for i in (1, 2):
        assert ival(f"L(3)*L({i})*Delta<3>^2", 3) == 2 * L2 - dL * omegaL
    assert ival("L(3)^2*Delta<3>^2", 3) == 2 * L2
    for i in (1, 2):
        assert ival(f"L({i})*Delta<2>*Delta<3>^2", 3) == -4 * omegaL
    assert ival("Delta<2>^2*Delta<3>^2", 3) == -2 * sigma + 4 * omega2
    for i in (1, 2):
        assert (ival(f"L({i})*Delta<3>^3", 3)
                == -6 * omegaL - 2 * dL * sigma + dL * omega2)
    assert ival("L(3)*Delta<3>^3", 3) == -6 * omegaL
    assert ival("Delta<2>*Delta<3>^3", 3) == -6 * sigma + 8 * omega2
    assert ival("Delta<3>^4", 3) == -2 * sigma + 14 * omega2

    # small-diagonal squares at level 3
    sd = ("smalldiag",)
    assert (integrate_word([("gamma", 3), ("gamma", 3), sd], 3)
            == -6 * sigma + 9 * omega2)
    assert (integrate_word([("gamma", 3), ("gamma", 2), sd], 3)
            == -2 * sigma + 3 * omega2)
    assert (integrate_word([("gamma", 2), ("gamma", 2), sd], 3)
            == -sigma + omega2)

    # squares against a seeded node scroll
    for i in (1, 2):
        seed = evaluate_normal(f"F({i}3:)", 3)
        assert (integrate_word([("gamma", 3), ("gamma", 3), ("seed", seed)],
                               3) == -2 * sigma)
        assert integrate_word([("gamma", 2), ("gamma", 2), ("seed", seed)],
                              3).is_zero()
    assert elapsed(start) < 5.0


@pytest.mark.xfail(strict=True, reason=(
    "printed reference values for these divisor integrals disagree"
    " with the engine; the computed results are pinned in the battery"
    " test above"))
def test_intersection_battery_printed_signs():
    assert evaluate_integral("L(1)*Delta<2>^2", 2) == omegaL
    assert evaluate_integral("L(1)*Delta<3>^3", 3) == 2 * omegaL


def test_small_diagonal_closure():
    # the big-diagonal weights feed the small-diagonal square
    for m in (2, 3):
        got = integrate_word([("gamma", m), ("gamma", m), ("smalldiag",)], m)
        want = (CP.constant(-sum(beta(m))) * sigma
                + CP.constant(comb(m, 2) ** 2) * omega2)
        assert got == want


def test_fibre_integral_property():
    rng = random.Random(20260825)
    for _ in range(20):
        u = TautExpr(2)
        u.add(DiagMonomial(2, (((1, 2), "pt"),)), omega2 * rng.randint(-4, 4))
        u.add(DiagMonomial(2, (((1, 2), "pt"),)), L2 * rng.randint(-4, 4))
        u.add(DiagMonomial(2, (((1,), "L"), ((2,), "pt"))),
              CP.constant(rng.randint(-4, 4)))
        u.add(DiagMonomial(2, (((1,), "omega"), ((2,), "pt"))),
              CP.constant(rng.randint(-4, 4)))
        u.add(DiagMonomial(2, (((1,), "pt"), ((2,), "pt"))),
              CP.constant(rng.randint(-4, 4)))
        u.add(NodeClass(2, (1, 2), 1, (), (), 1),
              CP.constant(rng.randint(-4, 4)))
        assert (integrate_word([("delta", 3), ("seed", u)], 3)
                == 2 * integrate(u))


def test_grassmann_degrees():
    start = time.perf_counter()
    printed_eight = [t for t in NSEC3_TUPLES
                     if t not in ((3, 0, 1), (2, 0, 2))]
    assert len(printed_eight) == 8
    for t in printed_eight:
        factors = [("row", 4 - j) for j in t]
        assert grassmann_integral((2, 4), factors) == 1
    assert grassmann_integral((2, 2), [("row", 1)] * 4) == 2
    assert elapsed(start) < 1.0


def test_node_section_count():
    terms = nsec3_terms()
    assert set(terms) == set(NSEC3_TUPLES)
    assert len(terms) == 10

    # every surviving tuple carries Grassmannian degree one, and each
    # W-factor re-assembles from the monomial integrals term by term
    for (j1, j2, j3), (g, w) in terms.items():
        assert g == 1
        total = CP.zero()
        for picks in product((0, 1), repeat=j2 + j3):
            parts = ["L(1)"] * j1
            sign = 1
            for k, p in enumerate(picks):
                slot = 2 if k < j2 else 3
                if p:
                    parts.append(f"Delta<{slot}>")
                    sign = -sign
                else:
                    parts.append(f"L({slot})")
            piece = evaluate_integral("*".join(parts), 3)
            total = total + CP.constant(sign) * piece
        assert w == total

    total = nsec3()
    names = {s for mono in total.terms() for s in mono}
    assert names <= {"sigma", "omega2", "omegaL", "L2", "dL", "g2"}
    frozen = (3 * L2 * dL * dL + 6 * dL * sigma - 12 * dL * omegaL
              - 3 * dL * omega2 - 3 * L2 * g2 - 27 * L2 * dL
              - 12 * sigma + 72 * omegaL + 28 * omega2 + 60 * L2)
    assert total == frozen
    assembled = CP.zero()
    for g, w in terms.values():
        assembled = assembled + CP.constant(g) * w
    assert total == assembled


@pytest.mark.xfail(strict=True, reason=(
    "two additional exponent tuples contribute beyond the printed"
    " eight, and one of them is nonzero"))
def test_node_section_printed_tuples():
    printed = {(0, 0, 4), (0, 1, 3), (0, 2, 2), (0, 3, 1),
               (1, 0, 3), (1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert set(nsec3_terms()) == printed


def test_property_suites():
    # grading additivity over random words
    rng = random.Random(7)
    pool = [("gamma", 2), ("gamma", 3), ("delta", 2), ("delta", 3),
            ("class", 1, "L"), ("class", 2, "L"), ("class", 3, "L")]
    for _ in range(30):
        word = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        e = expand_monomial(word, 3)
        if not e.is_zero():
            assert e.codim() == len(word)

    # orthogonality and side-marker saturation
    ns = NodeClass(3, (1, 3), 1, (((2,), "1"),), (), 0)
    assert mul_class(ns, 1, "L").is_zero()
    assert not mul_class(ns, 2, "L").is_zero()
    marked = NodeClass(3, (1, 3), 1, (((2,), "omega"),), (), 0)
    assert mul_class(marked, 2, "L").is_zero()

    # parser round-trip on rendered normal forms
    for text, m in (("Delta<3>^2", 3), ("Delta<3>^3", 3), ("Gamma<2>^3", 2),
                    ("Gamma<3>^4", 3), ("L(3)*Delta<3>^2", 3)):
        e = evaluate_normal(text, m)
        assert evaluate_normal(render_expr(e), m) == e

    # push/pull adjunction: the pulled-back unit integrates to zero,
    # and a fibre divisor inserts its fibre degree
    u = TautExpr(2)
    u.add(DiagMonomial(2, (((1, 2), "omega"),)), one)
    u.add(DiagMonomial(2, (((1,), "L"),)), CP.constant(3))
    assert pushforward(pullback(u)).is_zero()
    lifted = TautExpr(3)
    for gen, c in pullback(u).terms.items():
        for gen2, c2 in mul_class(gen, 3, "L").terms.items():
            lifted.add(gen2, c * c2)
    assert pushforward(lifted) == TautExpr(
        2, {gen: c * dL for gen, c in u.terms.items()})
