from __future__ import annotations

from fractions import Fraction

import pytest

from tautcalc.charpoly import CharacterPolynomial, symbol
from tautcalc.surface import (
    SurfaceGeometry,
    default_geometry,
    parse_character_config,
)


def test_pairing_table():
    geo = default_geometry()
    assert geo.pair("omega", "omega") == symbol("omega2")
    assert geo.pair("omega", "L") == symbol("omegaL")
    assert geo.pair("L", "omega") == symbol("omegaL")
    assert geo.pair("L", "L") == symbol("L2")
    assert geo.pair("f", "f").is_zero()
    assert geo.pair("omega", "f") == symbol("g2")
    assert geo.pair("L", "f") == symbol("dL")


def test_fibre_degrees():
    geo = default_geometry()
    assert geo.fibre_degrees["omega"] == symbol("g2")
    assert geo.fibre_degrees["L"] == symbol("dL")
    assert geo.fibre_degrees["f"].is_zero()


def test_pairing_against_fibre_matches_fibre_degree():
    # any divisor paired with f must reproduce its fibre degree
    geo = default_geometry()
    for d in ("omega", "L", "f"):
        assert geo.pair(d, "f") == geo.fibre_degrees[d]


def test_user_divisor():
    geo = SurfaceGeometry(
        pairing={("E", "E"): CharacterPolynomial.constant(-1),
                 ("E", "omega"): 1, ("E", "L"): 0, ("E", "f"): 0},
        fibre_degrees={"E": 0},
    )
    assert geo.pair("E", "E") == CharacterPolynomial.constant(-1)
    assert geo.pair("E", "omega") == CharacterPolynomial.one()
    assert geo.pair("omega", "E") == CharacterPolynomial.one()
    assert geo.fibre_degrees["E"].is_zero()


def test_unregistered_pairing_rejected():
    geo = SurfaceGeometry()
    with pytest.raises(KeyError):
        geo.pair("Z", "omega")


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
