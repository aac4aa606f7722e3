from __future__ import annotations

from fractions import Fraction

import pytest

from tautcalc.charpoly import symbol
from tautcalc.surface import GEOMETRY, parse_character_config


def test_pairing_table():
    geo = GEOMETRY
    assert geo.pair("omega", "omega") == symbol("omega2")
    assert geo.pair("omega", "L") == symbol("omegaL")
    assert geo.pair("L", "omega") == symbol("omegaL")
    assert geo.pair("L", "L") == symbol("L2")
    # a value with no character is a plain number
    assert geo.pair("f", "f") == 0 and type(geo.pair("f", "f")) is int
    assert geo.pair("omega", "f") == symbol("g2")
    assert geo.pair("L", "f") == symbol("dL")


def test_fibre_degrees():
    geo = GEOMETRY
    assert geo.fibre_degrees["omega"] == symbol("g2")
    assert geo.fibre_degrees["L"] == symbol("dL")
    assert geo.fibre_degrees["f"] == 0 and type(geo.fibre_degrees["f"]) is int


def test_pairing_against_fibre_matches_fibre_degree():
    # any divisor paired with f must reproduce its fibre degree
    geo = GEOMETRY
    for d in ("omega", "L", "f"):
        assert geo.pair(d, "f") == geo.fibre_degrees[d]


def test_unregistered_pairing_rejected():
    with pytest.raises(KeyError):
        GEOMETRY.pair("Z", "omega")


def test_node_count():
    # every node joins the two components of a reducible fibre
    assert GEOMETRY.node_count == symbol("sigma")


def test_character_config_parsing():
    text = """
    # sample assignments
    sigma = 12
    omega2 = 0
    dL = -3/2
    g2 = sym
    g2J = 1/2
    g2K = sym
    """
    values = parse_character_config(text)
    assert values == {"sigma": Fraction(12), "omega2": Fraction(0), "dL": Fraction(-3, 2),
                      "g2J": Fraction(1, 2)}
    with pytest.raises(ValueError):
        parse_character_config("nope = 1")
    with pytest.raises(ValueError):
        parse_character_config("sigma : 1")
    with pytest.raises(ValueError):
        parse_character_config("sigma = x")
    with pytest.raises(ValueError,
                       match="^line 2: character 'sigma' assigned twice$"):
        parse_character_config("sigma = 2\nsigma = 3\n")
