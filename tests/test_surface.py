from __future__ import annotations

from fractions import Fraction

import pytest

from tautcalc.charpoly import CharacterPolynomial, symbol
from tautcalc.surface import (
    FIBRE,
    LCLASS,
    OMEGA,
    POINT,
    UNIT,
    SurfaceClass,
    SurfaceGeometry,
    class_mul,
    default_geometry,
    fibre_degree,
    parse_character_config,
)


def test_pairing_table():
    geo = default_geometry()
    assert class_mul(OMEGA, OMEGA, geo).deg2 == symbol("omega2")
    assert class_mul(OMEGA, LCLASS, geo).deg2 == symbol("omegaL")
    assert class_mul(LCLASS, LCLASS, geo).deg2 == symbol("L2")
    assert class_mul(FIBRE, FIBRE, geo).is_zero()
    assert class_mul(OMEGA, FIBRE, geo).deg2 == symbol("g2")
    assert class_mul(LCLASS, FIBRE, geo).deg2 == symbol("dL")


def test_truncation_above_points():
    geo = default_geometry()
    assert class_mul(POINT, OMEGA, geo).is_zero()
    assert class_mul(POINT, POINT, geo).is_zero()
    p = class_mul(UNIT, POINT, geo)
    assert p == POINT


def test_bilinearity():
    geo = default_geometry()
    a = OMEGA + 2 * LCLASS
    b = LCLASS - FIBRE
    lhs = class_mul(a, b, geo)
    rhs = (
        class_mul(OMEGA, LCLASS, geo)
        + 2 * class_mul(LCLASS, LCLASS, geo)
        - class_mul(OMEGA, FIBRE, geo)
        - 2 * class_mul(LCLASS, FIBRE, geo)
    )
    assert lhs == rhs


def test_fibre_degrees():
    geo = default_geometry()
    assert fibre_degree(OMEGA, geo) == symbol("g2")
    assert fibre_degree(LCLASS, geo) == symbol("dL")
    assert fibre_degree(FIBRE, geo).is_zero()
    combo = fibre_degree(OMEGA + 3 * LCLASS, geo)
    assert combo == symbol("g2") + 3 * symbol("dL")
    with pytest.raises(ValueError):
        fibre_degree(UNIT, geo)
    with pytest.raises(ValueError):
        fibre_degree(POINT + OMEGA, geo)


def test_pairing_against_fibre_matches_fibre_degree():
    # any divisor paired with f must reproduce its fibre degree
    geo = default_geometry()
    for d in (OMEGA, LCLASS, FIBRE):
        assert class_mul(d, FIBRE, geo).deg2 == fibre_degree(d, geo)


def integrate_on_X(c: SurfaceClass):
    """Integral over the surface: reads off the point part."""
    return c.deg2


def test_integrate_on_X():
    geo = default_geometry()
    assert integrate_on_X(class_mul(OMEGA, OMEGA, geo)) == symbol("omega2")
    assert integrate_on_X(OMEGA).is_zero()
    assert integrate_on_X(SurfaceClass.point(symbol("sigma"))) == symbol("sigma")


def test_pure_degree_and_basis_terms():
    mixed = UNIT + OMEGA
    with pytest.raises(ValueError):
        mixed.pure_degree()
    assert OMEGA.pure_degree() == 1
    terms = list((2 * OMEGA - LCLASS + POINT).basis_terms())
    assert (Fraction(2), "omega") in terms
    assert (Fraction(-1), "L") in terms
    assert (CharacterPolynomial.one(), "pt") in terms


def test_user_divisor():
    geo = SurfaceGeometry(
        pairing={("E", "E"): CharacterPolynomial.constant(-1),
                 ("E", "omega"): 1, ("E", "L"): 0, ("E", "f"): 0},
        fibre_degrees={"E": 0},
    )
    e = SurfaceClass.divisor("E")
    assert class_mul(e, e, geo).deg2 == CharacterPolynomial.constant(-1)
    assert class_mul(e, OMEGA, geo).deg2 == CharacterPolynomial.one()
    assert fibre_degree(e, geo).is_zero()


def test_unregistered_pairing_rejected():
    geo = SurfaceGeometry()
    stranger = SurfaceClass.divisor("Z")
    with pytest.raises(KeyError):
        class_mul(stranger, OMEGA, geo)


def test_node_flavors():
    geo = default_geometry()
    assert geo.node_count("reducible") == symbol("sigma")
    with pytest.raises(KeyError):
        geo.node_count("irreducible")
    mixed = SurfaceGeometry(
        node_flavors=(("reducible", symbol("sigma")), ("irreducible", 2))
    )
    assert mixed.node_count("irreducible") == CharacterPolynomial.constant(2)


def test_character_config_parsing():
    text = """
    # sample assignments
    sigma = 12
    omega2 = 0
    dL = -3/2
    g2 = sym
    """
    values = parse_character_config(text)
    assert values == {"sigma": Fraction(12), "omega2": Fraction(0), "dL": Fraction(-3, 2)}
    with pytest.raises(ValueError):
        parse_character_config("nope = 1")
    with pytest.raises(ValueError):
        parse_character_config("sigma : 1")
    with pytest.raises(ValueError):
        parse_character_config("sigma = x")
