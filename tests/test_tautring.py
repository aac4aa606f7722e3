from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path

import pytest

from tautcalc import tautring
from tautcalc.charpoly import CharacterPolynomial as CP, symbol
from tautcalc.exprparse import evaluate_integral, evaluate_normal, parse, to_words
from tautcalc.schubert import NSEC3_TUPLES
from tautcalc.staircase import beta
from tautcalc.tautring import (
    DiagMonomial,
    DimensionError,
    NodeClass,
    TautExpr,
    UnsupportedProductError,
    chern_taut,
    expand_monomial,
    integrate,
    integrate_word,
    mul_class,
    mul_gamma,
    pullback,
    pushforward,
    render_expr,
    unit,
)

sigma = symbol("sigma")
omega2 = symbol("omega2")
omegaL = symbol("omegaL")
L2 = symbol("L2")
dL = symbol("dL")
one = CP.one()


def expr(m, terms):
    e = TautExpr(m)
    for gen, c in terms:
        e.add(gen, c)
    return e


def q(m, *blocks):
    return DiagMonomial(m, blocks)


def F(m, I, split, j=(), k=()):
    return NodeClass(m, I, split, j, k, 0)


def NS(m, I, split, j=(), k=()):
    return NodeClass(m, I, split, j, k, 1)


def G(k):
    return ("gamma", k)


def D(k):
    return ("delta", k)


def L(i):
    return ("class", i, "L")


def O(i):
    return ("class", i, "omega")


def ffill(m, I):
    """The terms of the sum of all complete unit fillings of a two-slot
    profile."""
    others = tuple(s for s in range(1, m + 1) if s not in I)
    out = []
    for mask in range(1 << len(others)):
        j = tuple(((s,), "1") for t, s in enumerate(others) if not mask >> t & 1)
        k = tuple(((s,), "1") for t, s in enumerate(others) if mask >> t & 1)
        out.append((NodeClass(m, I, 1, j, k, 0), one))
    return out


def scaled_sum(m, pieces):
    """The sum at level m of (coefficient, expression) pieces."""
    out = TautExpr(m)
    for c, e in pieces:
        for gen, coeff in e.terms.items():
            out.add(gen, coeff * c)
    return out


class TestGeneratorBasics:
    def test_diag_drops_unit_singletons(self):
        assert q(2, ((1,), "1"), ((2,), "L")) == q(2, ((2,), "L"))

    def test_diag_codim(self):
        assert q(3, ((1, 2, 3), "1")).codim() == 2
        assert q(3, ((1, 2), "omega")).codim() == 2
        assert q(3, ((1, 3), "pt")).codim() == 3

    def test_node_dims(self):
        def dim(node):
            return node.m + 1 - node.codim()

        f = F(3, (1, 2), 1, j=(((3,), "1"),))
        assert dim(f) == 2 and f.codim() == 2
        ns = NS(3, (1, 2), 1, j=(((3,), "1"),))
        assert dim(ns) == 1 and ns.codim() == 3

    def test_node_profile_must_cover(self):
        with pytest.raises(ValueError):
            NodeClass(3, (1, 2), 1)

    def test_render_profile(self):
        assert F(3, (1, 2), 1, j=(((3,), "1"),)).render() == "F(1|2:{3}|)"
        assert F(3, (1, 2, 3), 2).render() == "F(12|3:|)"
        assert NS(3, (1, 3), 1, j=(((2,), "omega"),)).render() == "NS(1|3:{2}(omega)|)"

    def test_mixed_codim_rejected(self):
        e = expr(2, [(q(2, ((1, 2), "1")), one), (q(2, ((1, 2), "pt")), one)])
        with pytest.raises(DimensionError):
            e.codim()

    def test_overdimensional_atoms_dropped(self):
        e = TautExpr(2)
        e.add(q(2, ((1, 2), "pt")), omega2)
        assert not e.is_zero()  # codim 3 = dim of the level-2 space: kept
        e2 = TautExpr(2)
        e2.add(q(2, ((1,), "pt"), ((2,), "pt")), one)
        assert e2.is_zero()  # codim 4 exceeds it: dropped


class TestGammaChainLevelTwo:
    def test_first_power(self):
        assert mul_gamma(unit(2)) == expr(2, [(q(2, ((1, 2), "1")), one)])

    def test_second_power(self):
        got = mul_gamma(mul_gamma(unit(2)))
        want = expr(2, [
            (F(2, (1, 2), 1), one),
            (q(2, ((1, 2), "omega")), -one),
        ])
        assert got == want

    def test_third_power(self):
        got = mul_gamma(mul_gamma(mul_gamma(unit(2))))
        want = expr(2, [
            (NS(2, (1, 2), 1), -one),
            (q(2, ((1, 2), "pt")), omega2),
        ])
        assert got == want
        assert integrate(got) == -sigma + omega2

    def test_fourth_power_vanishes(self):
        e = unit(2)
        for _ in range(4):
            e = mul_gamma(e)
        assert e.is_zero()


class TestGammaStepsLevelThree:
    def test_gamma_on_unit(self):
        assert mul_gamma(unit(3)) == expr(3, [
            (q(3, ((1, 2), "1")), one),
            (q(3, ((1, 3), "1")), one),
            (q(3, ((2, 3), "1")), one),
        ])

    def test_gamma_on_pair(self):
        got = mul_gamma(expr(3, [(q(3, ((1, 2), "1")), one)]))
        want = expr(3, [
            (q(3, ((1, 2, 3), "1")), CP.constant(2)),
            (q(3, ((1, 2), "omega")), -one),
        ] + ffill(3, (1, 2)))
        assert got == want

    def test_gamma_on_triple(self):
        got = mul_gamma(expr(3, [(q(3, ((1, 2, 3), "1")), one)]))
        want = expr(3, [
            (F(3, (1, 2, 3), 1), CP.constant(3)),
            (F(3, (1, 2, 3), 2), CP.constant(3)),
            (q(3, ((1, 2, 3), "omega")), CP.constant(-3)),
        ])
        assert got == want

    def test_gamma_on_decorated_triple(self):
        got = mul_gamma(expr(3, [(q(3, ((1, 2, 3), "omega")), one)]))
        want = expr(3, [(q(3, ((1, 2, 3), "pt")), CP.constant(-3) * omega2)])
        assert got == want

    def test_gamma_on_point_block(self):
        got = mul_gamma(expr(3, [(q(3, ((1, 2), "pt")), one)]))
        assert got == expr(3, [(q(3, ((1, 2, 3), "pt")), CP.constant(2))])

    def test_gamma_on_scroll_gives_minus_section(self):
        got = mul_gamma(expr(3, ffill(3, (1, 2))))
        want = expr(3, [
            (NS(3, (1, 2), 1, j=(((3,), "1"),)), -one),
            (NS(3, (1, 2), 1, k=(((3,), "1"),)), -one),
        ])
        assert got == want

    def test_gamma_on_section_distinguishes_top_slot(self):
        # the free block {3} carries the top slot: twist weight 3 per side
        got = mul_gamma(expr(3, [
            (NS(3, (1, 2), 1, j=(((3,), "1"),)), one),
            (NS(3, (1, 2), 1, k=(((3,), "1"),)), one),
        ]))
        want = expr(3, [
            (NS(3, (1, 2, 3), 2), CP.constant(3)),
            (NS(3, (1, 2, 3), 1), CP.constant(3)),
        ])
        assert got == want

    def test_gamma_on_section_lower_free_slot(self):
        # the free block {2} does not carry the top slot: weight 1
        for I in ((1, 3), (2, 3)):
            other = ({1, 2, 3} - set(I)).pop()
            got = mul_gamma(expr(3, [
                (NS(3, I, 1, j=((((other,)), "1"),)), one),
                (NS(3, I, 1, k=((((other,)), "1"),)), one),
            ]))
            want = expr(3, [
                (NS(3, (1, 2, 3), 2), one),
                (NS(3, (1, 2, 3), 1), one),
            ])
            assert got == want

    def test_gamma_kills_saturated_sections(self):
        got = mul_gamma(expr(3, [
            (NS(3, (1, 2, 3), 1), one),
            (NS(3, (1, 2, 3), 2), one),
        ]))
        assert got.is_zero()

    def test_integrals_of_points(self):
        assert integrate(expr(3, [(NS(3, (1, 2, 3), 1), one)])) == sigma
        assert integrate(expr(3, [(q(3, ((1, 2, 3), "pt")), omega2)])) == omega2


class TestNormalForms:
    def test_delta3_squared(self):
        got = expand_monomial([D(3), D(3)], 3)
        want = expr(3, [
            (q(3, ((1, 2, 3), "1")), CP.constant(2)),
            (q(3, ((1, 3), "omega")), -one),
            (q(3, ((2, 3), "omega")), -one),
        ] + ffill(3, (1, 3)) + ffill(3, (2, 3)))
        assert got == want

    def test_delta3_squared_render(self):
        got = render_expr(expand_monomial([D(3), D(3)], 3))
        want = ("2*q[{1,2,3}](1) - q[{1,3}](omega) - q[{2,3}](omega)"
                " + F(13:) + F(23:)")
        assert got == want

    def test_delta3_cubed(self):
        got = expand_monomial([D(3)] * 3, 3)
        want = expr(3, [
            (F(3, (1, 2, 3), 1), CP.constant(2)),
            (F(3, (1, 2, 3), 2), CP.constant(2)),
            (q(3, ((1, 2, 3), "omega")), CP.constant(-6)),
            (NS(3, (1, 3), 1, j=(((2,), "1"),)), -one),
            (NS(3, (1, 3), 1, k=(((2,), "1"),)), -one),
            (NS(3, (2, 3), 1, j=(((1,), "1"),)), -one),
            (NS(3, (2, 3), 1, k=(((1,), "1"),)), -one),
            (q(3, ((1, 3), "pt")), omega2),
            (q(3, ((2, 3), "pt")), omega2),
        ])
        assert got == want

    def test_gamma3_fourth_power(self):
        got = expand_monomial([G(3)] * 4, 3)
        want = expr(3, [
            (NS(3, (1, 2, 3), 1), CP.constant(-23)),
            (NS(3, (1, 2, 3), 2), CP.constant(-23)),
            (q(3, ((1, 2, 3), "pt")), CP.constant(78) * omega2),
        ])
        assert got == want

    def test_lclass_times_delta3_squared(self):
        got = expand_monomial([L(3), D(3), D(3)], 3)
        want = expr(3, [
            (q(3, ((1, 2, 3), "L")), CP.constant(2)),
            (q(3, ((1, 3), "pt")), -omegaL),
            (q(3, ((2, 3), "pt")), -omegaL),
        ])
        assert got == want


class TestIntegrals:
    def test_pure_gamma_words(self):
        assert integrate_word([G(3)] * 4, 3) == -46 * sigma + 78 * omega2
        assert integrate_word([G(3)] * 3 + [G(2)], 3) == -18 * sigma + 26 * omega2
        assert integrate_word([G(3)] * 2 + [G(2)] * 2, 3) == -6 * sigma + 8 * omega2
        assert integrate_word([G(3)] + [G(2)] * 3, 3) == -2 * sigma + 2 * omega2
        assert integrate_word([G(2)] * 4, 3) == CP.zero()

    def test_delta_words(self):
        assert integrate_word([D(3), D(3), D(2), D(2)], 3) == -2 * sigma + 4 * omega2
        assert integrate_word([D(3)] * 3 + [D(2)], 3) == -6 * sigma + 8 * omega2
        assert integrate_word([D(3)] * 4, 3) == -2 * sigma + 14 * omega2

    def test_delta_at_level_one_kills_word(self):
        assert integrate_word([D(1), D(2), D(2)], 2) == CP.zero()

    def test_wrong_codimension_raises(self):
        with pytest.raises(DimensionError):
            integrate_word([D(3)] * 3, 3)
        with pytest.raises(DimensionError):
            integrate(expand_monomial([D(3), D(3)], 3))


class TestSmallDiagonal:
    def test_level_three_facts(self):
        assert (integrate_word([G(3), G(3), ("smalldiag",)], 3)
                == -6 * sigma + 9 * omega2)
        assert (integrate_word([G(3), G(2), ("smalldiag",)], 3)
                == -2 * sigma + 3 * omega2)
        assert (integrate_word([G(2), G(2), ("smalldiag",)], 3)
                == -sigma + omega2)

    def test_closure_against_weights(self):
        # two independent code paths: the rewriting engine versus the
        # staircase colength weights
        for m in (2, 3):
            got = integrate_word([G(m), G(m), ("smalldiag",)], m)
            bm = sum(beta(m))
            want = CP.constant(-bm) * sigma + CP.constant(
                Fraction(m * (m - 1) // 2) ** 2) * omega2
            assert got == want


def gamma_words(word):
    """The 2^d explicit Gamma words of a word with d Delta factors.

    Delta<k> = Gamma<k> - Gamma<k-1>, written out one factor at a time
    and never merged; the Gamma<1> words are left for the engine to
    kill.
    """
    combos = [(1, [])]
    for f in word:
        alts = [(1, f)]
        if f[0] == "delta":
            alts = [(1, G(f[1])), (-1, G(f[1] - 1))]
        combos = [(c * s, w + [g]) for c, w in combos for s, g in alts]
    return combos


def level_atoms(m):
    return ([D(k) for k in range(2, m + 1)]
            + [L(i) for i in range(1, m + 1)]
            + [O(i) for i in range(1, m + 1)])


class TestSingleExpansion:
    def test_top_degree_integrals_match_gamma_words(self):
        for word in combinations_with_replacement(level_atoms(3), 4):
            if not any(f[0] == "delta" for f in word):
                continue
            want = CP.zero()
            for sign, gword in gamma_words(word):
                want = want + sign * integrate_word(gword, 3)
            assert integrate_word(list(word), 3) == want, word

    def test_degree_two_normal_forms_match_gamma_words(self):
        for m in (2, 3):
            for word in combinations_with_replacement(level_atoms(m), 2):
                want = scaled_sum(m, [(sign, expand_monomial(gword, m))
                                      for sign, gword in gamma_words(word)])
                assert expand_monomial(list(word), m) == want, word

    def test_small_diagonal_is_scaled_delta_product(self):
        for m in (2, 3):
            deltas = [D(k) for k in range(2, m + 1)]
            scale = Fraction(1, factorial(m - 1))
            assert (expand_monomial([("smalldiag",)], m)
                    == scaled_sum(m, [(scale, expand_monomial(deltas, m))]))
            for low in range(2, m + 1):
                word = [G(m), G(low)]
                assert (integrate_word(word + [("smalldiag",)], m)
                        == scale * integrate_word(word + deltas, m))

    def test_level_one_factors_kill_words(self):
        # integrate_word kills before its codimension check
        for m in (2, 3):
            assert integrate_word([G(1)], m) == CP.zero()
            assert integrate_word([D(1)], m) == CP.zero()
            assert integrate_word([G(1)] + [G(m)] * m, m) == CP.zero()
        # expand_monomial checks the codimension before Gamma<1> kills,
        # while Delta<1> kills as the factors are read
        assert expand_monomial([G(1), G(2)], 3).is_zero()
        with pytest.raises(DimensionError):
            expand_monomial([G(1)] * 5, 3)
        assert expand_monomial([D(1)] * 5, 3).is_zero()
        # factors after Delta<1> are never read; those before it are
        assert integrate_word([D(1), D(4)], 3) == CP.zero()
        with pytest.raises(ValueError):
            integrate_word([D(4), D(1)], 3)

    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_gamma_index_outside_the_level_refused(self, k):
        # the parser refuses these first; the word API does as well
        message = rf"^Gamma index {k} outside level 3$"
        with pytest.raises(ValueError, match=message):
            integrate_word([G(3)] * 3 + [G(k)], 3)
        with pytest.raises(ValueError, match=message):
            expand_monomial([G(k)], 3)

    def test_codimension_is_checked_before_expanding(self, monkeypatch):
        def no_expand(*_args):
            raise AssertionError("_expand called")

        monkeypatch.setattr(tautring, "_expand", no_expand)
        with pytest.raises(DimensionError, match=r"^word has codimension 1000,"
                           r" integration needs 4$"):
            evaluate_integral("Delta<3>^1000", 3)
        with pytest.raises(DimensionError,
                           match=r"^word exceeds the dimension of the level$"):
            evaluate_normal("Delta<3>^1000", 3)


def seeded_sums(m, count, degree, seed):
    """Sums of two to four scaled words, repeats and sign flips included."""
    rng = random.Random(seed)
    atoms = ([f"Delta<{k}>" for k in range(2, m + 1)] + [f"Gamma<{m}>"]
             + [f"L({i})" for i in range(1, m + 1)] + [f"omega({m})"])
    coeffs = ["", "2*", "1/3*", "sigma*", "(dL - 1)*"]
    out = []
    for _ in range(count):
        words = ["*".join(rng.choice(atoms) for _ in range(degree))
                 for _ in range(rng.randint(1, 3))]
        words.append(rng.choice(words))
        terms = [rng.choice(coeffs) + w for w in words]
        out.append(" - ".join(terms) if rng.random() < 0.3 else " + ".join(terms))
    return out


def flat(word):
    """The flat factor list of a parser word's (factor, power) pairs."""
    return [f for f, n in word for _ in range(n)]


class TestMergedEvaluation:
    """An expression's words are merged before evaluation; the value is
    the sum of the words evaluated one by one."""

    CASES = ([(f"L(1)^{j1}*(L(2)-Delta<2>)^{j2}*(L(3)-Delta<3>)^{j3}", 3)
              for j1, j2, j3 in NSEC3_TUPLES]
             + [(t, 2) for t in seeded_sums(2, 15, 3, 11)]
             + [(t, 3) for t in seeded_sums(3, 15, 4, 12)])

    @pytest.mark.parametrize("text,m", CASES)
    def test_integral_is_the_sum_over_words(self, text, m):
        want = CP.zero()
        for coeff, word in to_words(parse(text, m), m):
            want = want + coeff * integrate_word(flat(word), m)
        assert evaluate_integral(text, m) == want

    @pytest.mark.parametrize("text,m", [(t, 2) for t in seeded_sums(2, 10, 2, 13)]
                             + [(t, 3) for t in seeded_sums(3, 10, 3, 14)]
                             + [("sigma + 2*Delta<2> - L(1)", 2)])
    def test_normal_form_is_the_sum_over_words(self, text, m):
        want = scaled_sum(m, [(coeff, expand_monomial(flat(word), m))
                              for coeff, word in to_words(parse(text, m), m)])
        assert evaluate_normal(text, m) == want

    def test_one_over_codimension_word_raises(self):
        with pytest.raises(DimensionError):
            evaluate_integral("Delta<3>^4 + L(1)*Delta<3>^4", 3)
        with pytest.raises(DimensionError):
            evaluate_normal("Delta<3>^2 + Gamma<3>^5", 3)

    def test_cancelling_sum_is_zero(self):
        # the words are merged before evaluation, so Delta<4>^5, which
        # the engine cannot evaluate yet, is never reached
        assert evaluate_integral("Delta<4>^5 - Delta<4>^5", 4) == CP.zero()
        assert evaluate_integral("2*Delta<3>^4 - Delta<3>^4*2", 3) == CP.zero()
        assert evaluate_normal("Delta<3>^2 - Delta<3>^2", 3).is_zero()


class TestNodeSeeds:
    def test_scroll_seed_integrals(self):
        seed = expr(3, ffill(3, (1, 3)))
        assert integrate_word([G(3), G(3)], 3, seed=seed) == -2 * sigma
        assert integrate_word([G(2), G(2)], 3, seed=seed) == CP.zero()

    def test_gammas_below_seed_level_need_integration(self):
        # a normal form cannot host a gamma factor from below the
        # seeded level; the integral pipeline pushes down instead
        seed = expr(3, ffill(3, (1, 3)))
        with pytest.raises(UnsupportedProductError):
            expand_monomial([G(2)], 3, seed=seed)
        assert integrate_word([G(2), G(2)], 3, seed=seed) == CP.zero()

    def test_zero_seed_gives_zero(self):
        # a seed with no terms kills the word, as a Delta^(1) factor
        # does, whatever the word's length
        zero = TautExpr(3)
        for n in (1, 4, 5):
            assert integrate_word([G(3)] * n, 3, seed=zero) == CP.zero()
            assert expand_monomial([G(3)] * n, 3, seed=zero).is_zero()

    def test_two_seeds_rejected(self):
        seed = expr(3, [(q(3, ((1, 2), "1")), one)])
        with pytest.raises(UnsupportedProductError):
            integrate_word([("seed", seed), ("seed", seed),
                            G(3), G(3)], 3)


class TestPushPull:
    def test_pull_of_section_adds_pins_and_merges(self):
        got = pullback(expr(2, [(NS(2, (1, 2), 1), one)]))
        want = expr(3, [
            (NS(3, (1, 2), 1, j=(((3,), "1"),)), one),
            (NS(3, (1, 2), 1, k=(((3,), "1"),)), one),
            (F(3, (1, 2, 3), 1), CP.constant(2)),
            (F(3, (1, 2, 3), 2), CP.constant(2)),
        ])
        assert got == want

    def test_push_pull_vanishes(self):
        u = expr(2, [
            (q(2, ((1, 2), "omega")), one),
            (q(2, ((1,), "L")), CP.constant(3)),
        ])
        assert pushforward(pullback(u)).is_zero()

    def test_projection_formula_divisor(self):
        u = expr(2, [
            (q(2, ((1, 2), "omega")), one),
            (q(2, ((1,), "L")), CP.constant(3)),
        ])
        pu = pullback(u)
        lifted = TautExpr(3)
        for gen, c in pu.terms.items():
            for gen2, c2 in mul_class(gen, 3, "L").terms.items():
                lifted.add(gen2, c * c2)
        assert pushforward(lifted) == scaled_sum(2, [(dL, u)])

    def test_projection_formula_point(self):
        u = expr(2, [
            (q(2, ((1, 2), "omega")), one),
            (q(2, ((1,), "L")), CP.constant(3)),
        ])
        pu = pullback(u)
        lifted = TautExpr(3)
        for gen, c in pu.terms.items():
            for gen2, c2 in mul_class(gen, 3, "pt").terms.items():
                lifted.add(gen2, c * c2)
        want = TautExpr(2)
        for gen, c in u.terms.items():
            for gen2, c2 in mul_class(gen, 1, "f").terms.items():
                want.add(gen2, c * c2)
        assert pushforward(lifted) == want

    def test_push_after_merging_top_slot(self):
        u = expr(2, [
            (q(2, ((1, 2), "omega")), one),
            (q(2, ((1,), "L")), CP.constant(3)),
        ])
        joined = TautExpr(3)
        for gen, c in pullback(u).terms.items():
            bi = gen.block_of(1)
            if bi is None:
                blocks = gen.blocks + (((1, 3), "1"),)
            else:
                slots, key = gen.blocks[bi]
                blocks = list(gen.blocks)
                blocks[bi] = (tuple(sorted(slots + (3,))), key)
            joined.add(DiagMonomial(3, blocks), c)
        assert pushforward(joined) == u

    def test_push_of_pin_unsupported(self):
        e = expr(2, [(q(2, ((2,), "pin")), one)])
        with pytest.raises(UnsupportedProductError):
            pushforward(e)


class TestFibreIntegralProperty:
    def test_delta_descends_to_double_integral(self):
        rng = random.Random(20260825)
        for _ in range(20):
            u = TautExpr(2)
            u.add(q(2, ((1, 2), "pt")), omega2 * rng.randint(-4, 4))
            u.add(q(2, ((1, 2), "pt")), L2 * rng.randint(-4, 4))
            u.add(q(2, ((1,), "L"), ((2,), "pt")), CP.constant(rng.randint(-4, 4)))
            u.add(q(2, ((1,), "omega"), ((2,), "pt")), CP.constant(rng.randint(-4, 4)))
            u.add(q(2, ((1,), "pt"), ((2,), "pt")), CP.constant(rng.randint(-4, 4)))
            u.add(NS(2, (1, 2), 1), CP.constant(rng.randint(-4, 4)))
            lhs = integrate_word([D(3)], 3, seed=u)
            assert lhs == 2 * integrate(u)


class TestChern:
    def test_degree_one_piece(self):
        pieces = chern_taut(2)
        want = expr(2, [
            (q(2, ((1,), "L")), one),
            (q(2, ((2,), "L")), one),
            (q(2, ((1, 2), "1")), -one),
        ])
        assert pieces[1] == want

    def test_piece_count_and_grading(self):
        for m in (2, 3):
            pieces = chern_taut(m)
            assert len(pieces) == m + 2
            assert pieces[0] == unit(m)
            for d, piece in enumerate(pieces):
                if not piece.is_zero():
                    assert piece.codim() == d

    def test_top_piece_vanishes(self):
        assert chern_taut(3)[4].is_zero()


class TestRuleHygiene:
    def test_orthogonality(self):
        # a positive-degree class at a colliding or side slot kills a
        # node generator
        ns = F(3, (1, 3), 1, j=(((2,), "1"),))
        assert mul_class(ns, 1, "L").is_zero()
        got = mul_class(ns, 2, "L")
        assert not got.is_zero()  # side slots accept one marker

    def test_side_marker_saturation(self):
        marked = NodeClass(3, (1, 3), 1, (((2,), "omega"),), (), 0)
        assert mul_class(marked, 2, "L").is_zero()

    def test_scroll_coefficients_match_weights(self):
        # F-coefficients produced by the square of the big diagonal at
        # each level equal the staircase weights entrywise
        for m in (2, 3, 4, 5):
            e = unit(m)
            blocks = ((tuple(range(1, m + 1)), "1"),)
            word = expr(m, [(DiagMonomial(m, blocks), one)])
            stepped = mul_gamma(word)
            row = beta(m)
            for split in range(1, m):
                found = stepped.terms.get(NodeClass(m, tuple(range(1, m + 1)),
                                                    split, (), (), 0))
                assert found == CP.constant(row[split - 1])

    def test_gamma_raises_codim_by_one(self):
        for seed_blocks in (((1, 2), "1"),), (((1, 2, 3), "1"),):
            e = expr(3, [(q(3, *seed_blocks), one)])
            before = e.codim()
            after = mul_gamma(e)
            if not after.is_zero():
                assert after.codim() == before + 1

    def test_class_commutes_with_gamma(self):
        # applying a slot class before or after a top-level gamma step
        # gives the same expression
        for blocks in ((((1,), "L"),), (((1, 2), "1"),), ()):
            e = expr(3, [(q(3, *blocks), one)]) if blocks else unit(3)
            for slot in (1, 2, 3):
                left = TautExpr(3)
                for gen, c in mul_gamma(e).terms.items():
                    for gen2, c2 in mul_class(gen, slot, "L").terms.items():
                        left.add(gen2, c * c2)
                mid = TautExpr(3)
                for gen, c in e.terms.items():
                    for gen2, c2 in mul_class(gen, slot, "L").terms.items():
                        mid.add(gen2, c * c2)
                right = mul_gamma(mid)
                assert left == right

    def test_pullback_preserves_codim(self):
        u = expr(2, [(q(2, ((1, 2), "omega")), one)])
        assert pullback(u).codim() == u.codim()

    def test_node_scroll_builder(self):
        # by default a node class is a scroll
        built = NodeClass(3, (1, 3), 1, jblocks=(((2,), "1"),))
        assert built == F(3, (1, 3), 1, j=(((2,), "1"),))


class TestCanonicalCoefficients:
    # a coefficient has one form: a number, an int when integral, until
    # a character enters it; then a non-constant polynomial

    def test_equal_numbers_make_one_expression(self):
        g = q(2, ((1, 2), "1"))
        forms = [TautExpr(2, {g: c})
                 for c in (CP.constant(3), Fraction(6, 2), 3)]
        for e in forms:
            assert e.terms == {g: 3} and type(e.terms[g]) is int
            assert e == forms[0] and hash(e) == hash(forms[0])
            assert render_expr(e) == "3*q[{1,2}](1)"
        half = TautExpr(2, {g: CP.constant(Fraction(1, 2))})
        assert half.terms == {g: Fraction(1, 2)}
        assert render_expr(half) == "1/2*q[{1,2}](1)"

    def test_a_sum_that_loses_its_characters_is_a_number(self):
        g = q(2, ((1, 2), "1"))
        e = expr(2, [(g, sigma + 3), (g, -sigma)])
        assert e.terms == {g: 3} and type(e.terms[g]) is int
        assert e == TautExpr(2, {g: 3}) and hash(e) == hash(TautExpr(2, {g: 3}))

    def test_zero_polynomial_coefficient_is_dropped(self):
        g = q(2, ((1, 2), "1"))
        assert TautExpr(2, {g: CP.zero()}).terms == {}
        assert expr(2, [(g, sigma + 1), (g, -sigma - 1)]).terms == {}
        assert expr(2, [(g, 2), (g, CP.constant(-2))]).terms == {}

    def test_equal_seeds_hash_equal(self):
        pairs = [
            ("F(13:)", "F(1|3:{2}|) + F(1|3:|{2})"),
            ("(sigma + 2)*Delta<3>^2 - sigma*Delta<3>^2", "2*Delta<3>^2"),
            ("2*sigma*Delta<3>^2 - (sigma - 1)*Delta<3>^2",
             "(sigma + 1)*Delta<3>^2"),
            ("1/2*Delta<3>^2 + 1/2*Delta<3>^2", "Delta<3>^2"),
        ]
        for left, right in pairs:
            a, b = evaluate_normal(left, 3), evaluate_normal(right, 3)
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            assert render_expr(a) == render_expr(b)
        assert all(type(c) is int
                   for c in evaluate_normal(pairs[1][0], 3).terms.values())

    def test_equal_expressions_render_alike(self):
        # the bare F(13:) sorts at its filling with every free slot on
        # J, whichever filling was added first
        a = evaluate_normal("F(13:)+F(1|3:|{2}(L))", 3)
        b = evaluate_normal("F(1|3:|{2})+F(1|3:|{2}(L))+F(1|3:{2}|)", 3)
        assert a == b and hash(a) == hash(b)
        assert list(a.terms) != list(b.terms)
        assert render_expr(a) == render_expr(b) == "F(1|3:|{2}(L)) + F(13:)"


def test_importing_the_engine_loads_no_oracle_or_parser():
    # the package re-exports nothing, so the engine loads only its own
    # imports; a fresh interpreter shows what one import brings in
    code = ("import sys, tautcalc.tautring; print(' '.join(sorted("
            "n for n in sys.modules if n.startswith('tautcalc'))))")
    src = str(Path(tautring.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["tautcalc", "tautcalc.charpoly",
                                  "tautcalc.surface", "tautcalc.tautring"]
