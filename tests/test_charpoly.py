from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautcalc import tautring
from tautcalc.charpoly import CHARACTERS, CharacterPolynomial, symbol
from tautcalc.exprparse import ParseError, evaluate_integral, evaluate_normal
from tautcalc.schubert import nsec3, nsec3_terms
from test_golden import cases


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def random_poly(rng: random.Random) -> CharacterPolynomial:
    syms = ["sigma", "omega2", "omegaL", "L2", "dL", "g2"]
    p = CharacterPolynomial.zero()
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.choice(syms) for _ in range(rng.randint(0, 2)))
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + CharacterPolynomial({mono: coeff})
    return p


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + CharacterPolynomial.zero() == a
        assert a * CharacterPolynomial.one() == a
        assert a - a == CharacterPolynomial.zero()


def test_scalar_coercion():
    s = symbol("sigma")
    assert 2 * s == s + s
    assert s * Fraction(1, 2) + s * Fraction(1, 2) == s
    assert (s + 3) - 3 == s
    assert 0 * s == CharacterPolynomial.zero()


def test_power():
    w = symbol("omega2")
    assert w ** 3 == w * w * w
    assert w ** 0 == CharacterPolynomial.one()
    p = w - 2 * symbol("sigma") + Fraction(1, 3)
    product = CharacterPolynomial.one()
    for n in range(12):
        assert p ** n == product
        product = product * p
    with pytest.raises(ValueError):
        w ** -1


def test_evaluate_full_and_partial():
    s, w = symbol("sigma"), symbol("omega2")
    p = -2 * s + 14 * w
    v = p.evaluate({"sigma": Fraction(12), "omega2": Fraction(0)})
    assert v.is_constant()
    assert v.constant_value() == Fraction(-24)
    partial = p.evaluate({"sigma": Fraction(1)})
    assert partial == 14 * w - 2
    assert p.evaluate({}) == p


def test_render_canonical():
    s, w = symbol("sigma"), symbol("omega2")
    assert (-2 * s + 14 * w).render() == "-2*sigma + 14*omega2"
    assert (s - w).render() == "sigma - omega2"
    assert CharacterPolynomial.zero().render() == "0"
    assert CharacterPolynomial.constant(Fraction(-24)).render() == "-24"
    assert (Fraction(3, 2) * w).render() == "3/2*omega2"
    assert (s * s).render() == "sigma^2"
    ol, dl = symbol("omegaL"), symbol("dL")
    assert (dl * ol).render() == "dL*omegaL"
    # higher degree renders before lower, constants last
    assert (s * s + s + 1).render() == "sigma^2 + sigma + 1"


def test_fixed_characters_and_names():
    assert CHARACTERS == {"sigma", "omega2", "omegaL", "L2", "dL", "g2",
                          "g2J", "g2K"}
    assert isinstance(CHARACTERS, frozenset)
    for name in CHARACTERS:
        assert (symbol(name) * 2).render() == f"2*{name}"
        assert tautring.render_expr(evaluate_normal(f"2*{name}", 2)) == f"2*{name}"
    for name in ("kappa_1", "3bad", ""):
        with pytest.raises(ValueError, match="unknown character"):
            symbol(name)
    # an unknown name is refused where it stands, and stays unknown
    for _ in range(2):
        with pytest.raises(ParseError, match="unknown character 'kappa_1'"
                           " at line 1, column 3") as info:
            evaluate_normal("2*kappa_1", 2)
        assert info.value.pos == 2
    assert "kappa_1" not in CHARACTERS


def test_parse_rational():
    assert parse_rational("-3/5") == Fraction(-3, 5)
    assert parse_rational(" 7 ") == Fraction(7)


def test_hash_consistency():
    a = symbol("sigma") + 1
    b = 1 + symbol("sigma")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# -- the normal form survives every operation ---------------------------

SYMS = ("sigma", "omega2", "omegaL", "L2", "dL")
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
polys = st.dictionaries(
    st.lists(st.sampled_from(SYMS), max_size=3).map(tuple),
    rationals | st.integers(-4, 4), max_size=4,
).map(CharacterPolynomial)
operands = polys | st.integers(-3, 3) | rationals


def coefficient(p: CharacterPolynomial, mono: tuple) -> Fraction:
    """The coefficient of a monomial whose symbols come in any order."""
    return p.terms().get(tuple(sorted(mono)), Fraction(0))


def assert_int_first(p: CharacterPolynomial):
    """Each stored coefficient is an int exactly when it is integral."""
    for coeff in p._terms.values():
        assert type(coeff) in (int, Fraction)
        assert (type(coeff) is int) == (coeff.denominator == 1)


def assert_normal(p: CharacterPolynomial):
    assert_int_first(p)
    terms = p.terms()
    assert terms == CharacterPolynomial(terms).terms()
    for mono, coeff in terms.items():
        assert type(mono) is tuple and mono == tuple(sorted(mono))
        assert type(coeff) is Fraction and coeff != 0
        assert type(coefficient(p, mono[::-1])) is Fraction
    assert type(coefficient(p, ("sigma",) * 5)) is Fraction
    if p.is_constant():
        assert type(p.constant_value()) is Fraction


def value_at(p, point):
    if not isinstance(p, CharacterPolynomial):
        return Fraction(p)
    return p.evaluate(point).constant_value()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polys, operands, st.integers(0, 3),
       st.lists(rationals, min_size=len(SYMS), max_size=len(SYMS)))
def test_operations_keep_the_normal_form(a, b, n, values):
    point = dict(zip(SYMS, values))
    va, vb = value_at(a, point), value_at(b, point)
    results = [
        (a + b, va + vb), (b + a, va + vb),
        (a - b, va - vb), (b - a, vb - va),
        (a * b, va * vb), (b * a, va * vb),
        (-a, -va), (a ** n, va ** n),
    ]
    for got, want in results:
        assert isinstance(got, CharacterPolynomial)
        assert_normal(got)
        assert value_at(got, point) == want


# -- integral coefficients are stored as int ------------------------------


def test_golden_and_nsec3_coefficients_are_int_first():
    polys, coeffs = [], []
    for m, kind, text in cases():
        try:
            if kind == "int":
                polys.append(evaluate_integral(text, m))
            else:
                coeffs.extend(evaluate_normal(text, m).terms.values())
        except (ValueError, KeyError):
            continue  # refused inputs are pinned by test_golden
    for _g, w in nsec3_terms().values():
        polys.append(w)
    polys.append(nsec3())
    assert len(polys) > 1000 and len(coeffs) > 100
    # the golden normal forms are integral; a typed fraction is not
    coeffs.extend(evaluate_normal("1/2*Delta<3>^2", 3).terms.values())
    # a normal-form coefficient is a number until a character enters it:
    # an int when integral, else a Fraction, else a non-constant
    # polynomial; never a constant polynomial
    kinds = set()
    for c in coeffs:
        kinds.add(type(c))
        if type(c) is Fraction:
            assert c.denominator != 1
        else:
            assert type(c) in (int, CharacterPolynomial) and c != 0
        if type(c) is CharacterPolynomial:
            assert not c.is_constant()
            polys.append(c)
    assert kinds == {int, Fraction, CharacterPolynomial}
    # an integral is always a polynomial
    for p in polys:
        assert type(p) is CharacterPolynomial
        assert_int_first(p)
        assert all(type(c) is Fraction for c in p.terms().values())


def test_public_values_are_fractions():
    p = 2 * symbol("sigma") - 3
    assert all(type(c) is Fraction for c in p.terms().values())
    assert type(CharacterPolynomial.constant(4).constant_value()) is Fraction
    assert type(CharacterPolynomial.zero().constant_value()) is Fraction
    # nsec3 prints constant_value() / 6, which must stay a Fraction
    assert str(CharacterPolynomial.constant(9).constant_value() / 6) == "3/2"


def test_int_and_integral_fraction_build_the_same_polynomial():
    s = symbol("sigma")
    pairs = [
        (CharacterPolynomial.constant(2), CharacterPolynomial.constant(Fraction(2))),
        (CharacterPolynomial({("sigma",): 2}),
         CharacterPolynomial({("sigma",): Fraction(4, 2)})),
        (2 * s, Fraction(2) * s),
        (s + 2, s + Fraction(2)),
        (Fraction(1, 2) * s + Fraction(3, 2) * s, 2 * s),
        # a number operand scales or shifts the terms, and demotes
        (Fraction(1, 2) * s * 2, s),
        (2 * (Fraction(1, 2) * s), s),
        (s + Fraction(1, 2) + Fraction(1, 2), s + 1),
        (Fraction(1, 2) + (s + Fraction(3, 2)), s + 2),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and a.render() == b.render()
        assert a._terms == b._terms
        assert_int_first(a)
        assert_int_first(b)


def test_non_integral_coefficients_keep_their_fractions():
    half = evaluate_integral("1/2*Delta<2>^3", 2)
    assert half.render() == "-1/2*sigma + 1/2*omega2"
    assert half._terms == {("sigma",): Fraction(-1, 2),
                           ("omega2",): Fraction(1, 2)}
    # the small diagonal is (1/(m-1)!) Delta<2>...Delta<m>; its square
    # at level 3 keeps a half on sigma
    square = tautring.integrate_word([("smalldiag",), ("smalldiag",)], 3)
    assert square.render() == "-1/2*sigma + omega2"
    assert type(square._terms[("sigma",)]) is Fraction
    assert type(square._terms[("omega2",)]) is int
    for p in (half, square):
        assert_int_first(p)
