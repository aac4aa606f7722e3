"""Intersection data of the fibred surface and the `--chars` parser.

A slot class is named by its block key (see `tautring`): "omega", "L"
and "f" are the base divisors, "pt" the point class, and any other name
a divisor registered in a `SurfaceGeometry`.
"""
from __future__ import annotations

from fractions import Fraction

from .charpoly import CharacterPolynomial, Rational, symbol


class SurfaceGeometry:
    """Intersection data of the fibred surface.

    Holds the divisor pairing table, fibre degrees, the node count per
    singular-fibre flavor, and the omega-degrees on the two sides of a
    generic node (needed when a node class self-intersects).
    """

    def __init__(self, pairing=None, fibre_degrees=None, node_flavors=None):
        sigma = symbol("sigma")
        g2 = symbol("g2")
        dL = symbol("dL")
        default_pairing = {
            ("omega", "omega"): symbol("omega2"),
            ("L", "omega"): symbol("omegaL"),
            ("L", "L"): symbol("L2"),
            ("f", "f"): CharacterPolynomial.zero(),
            ("f", "omega"): g2,
            ("L", "f"): dL,
        }
        self.pairing = dict(default_pairing)
        if pairing:
            for (a, b), value in pairing.items():
                self.pairing[tuple(sorted((a, b)))] = _as_poly(value)
        self.fibre_degrees = {"omega": g2, "L": dL, "f": CharacterPolynomial.zero()}
        if fibre_degrees:
            for name, value in fibre_degrees.items():
                self.fibre_degrees[name] = _as_poly(value)
        if node_flavors is None:
            node_flavors = (("reducible", sigma),)
        self.node_flavors = tuple((name, _as_poly(count)) for name, count in node_flavors)
        for name, _ in self.node_flavors:
            if name not in ("reducible", "irreducible"):
                raise ValueError(f"unknown node flavor {name!r}")
        self.side_degrees = {"J": symbol("g2J"), "K": symbol("g2K")}

    def pair(self, a: str, b: str) -> CharacterPolynomial:
        key = tuple(sorted((a, b)))
        if key not in self.pairing:
            raise KeyError(f"no pairing registered for divisors {a!r}, {b!r}")
        return self.pairing[key]

    def node_count(self, flavor: str) -> CharacterPolynomial:
        for name, count in self.node_flavors:
            if name == flavor:
                return count
        raise KeyError(f"geometry has no {flavor!r} nodes")

    def side_omega_degree(self, side: str) -> CharacterPolynomial:
        return self.side_degrees[side]


def _as_poly(value) -> CharacterPolynomial:
    if isinstance(value, CharacterPolynomial):
        return value
    return CharacterPolynomial.constant(value)


_DEFAULT = None


def default_geometry() -> SurfaceGeometry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SurfaceGeometry()
    return _DEFAULT


def parse_character_config(text: str) -> dict[str, Rational]:
    """Parse `key = value` assignments for the six standard characters.

    Values are rationals; the literal `sym` leaves a character symbolic
    (the key is simply skipped).  Unknown keys are rejected.
    """
    allowed = {"sigma", "omega2", "omegaL", "L2", "dL", "g2"}
    out: dict[str, Rational] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise ValueError(f"line {lineno}: unknown character {key!r}")
        if value == "sym":
            continue
        try:
            out[key] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational {value!r}") from exc
    return out
