"""Intersection data of the fibred surface and the `--chars` parser.

The calculator works on one fixed surface, `GEOMETRY`: its numbers are
the characters `sigma` (the nodes, each joining the two components of a
reducible fibre; the surface has no other kind), `omega2`, `omegaL`,
`L2`, `dL` and `g2`, and the side degrees `g2J`, `g2K` of those two
components.  A slot class is named by its block key (see `tautring`):
"omega", "L" and "f" are the divisors the surface pairs, "pt" the
point class.  A divisor of any other name has no pairing and no fibre
degree.  A normal form may carry it; an integral is refused (`KeyError`)
only when one of its pieces reaches the missing pairing or fibre
degree.  A piece that an integral skips by the grading (see `tautring`)
reaches neither: at level 3, `M(1)*L(1)*Delta<2>^2` and
`M(1)*L(2)*Delta<2>^2` integrate to 0, while `M(1)*Delta<3>^3` is
refused.
"""
from __future__ import annotations

from fractions import Fraction

from .charpoly import CHARACTERS, CharacterPolynomial, Rational, symbol


class SurfaceGeometry:
    """Intersection data of the fibred surface.

    Holds the divisor pairing table, fibre degrees, the node count
    `sigma`, and the omega-degrees on the two sides of a generic node
    (needed when a node class self-intersects).  A value that carries
    no character, f.f and the fibre degree of f, is the int 0.
    """

    def __init__(self):
        g2 = symbol("g2")
        dL = symbol("dL")
        self.pairing = {
            ("omega", "omega"): symbol("omega2"),
            ("L", "omega"): symbol("omegaL"),
            ("L", "L"): symbol("L2"),
            ("f", "f"): 0,
            ("f", "omega"): g2,
            ("L", "f"): dL,
        }
        self.fibre_degrees = {"omega": g2, "L": dL, "f": 0}
        self.node_count = symbol("sigma")
        self.side_degrees = (symbol("g2J"), symbol("g2K"))

    def pair(self, a: str, b: str) -> CharacterPolynomial | int:
        key = tuple(sorted((a, b)))
        if key not in self.pairing:
            # named in sorted order, so one pairing gets one message
            raise KeyError("no pairing registered for divisors %r, %r" % key)
        return self.pairing[key]


# the surface; look `GEOMETRY.pair` up when it is called, never bind it
# once, so a wrapper put on the class method later still sees every call
GEOMETRY = SurfaceGeometry()


def parse_character_config(text: str) -> dict[str, Rational]:
    """Parse `key = value` assignments for the characters of the
    surface, `charpoly.CHARACTERS`: the six pairing characters and the
    side degrees `g2J`, `g2K`.

    Values are rationals; the literal `sym` leaves a character symbolic
    (the key is simply skipped).  Unknown keys, and a key assigned on two
    lines, are rejected.
    """
    out: dict[str, Rational] = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CHARACTERS:
            raise ValueError(f"line {lineno}: unknown character {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: character {key!r} assigned twice")
        seen.add(key)
        if value == "sym":
            continue
        try:
            out[key] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational {value!r}") from exc
    return out
