"""Classes on the fibred surface and the symbolic intersection pairing.

A class is stored by degree: a rational multiple of the fundamental
class, a divisor part spanned by named divisors (omega, L, f, plus any
user-registered ones), and a point part whose coefficient is a
character polynomial.  All products are truncated above degree 2.
"""
from __future__ import annotations

from fractions import Fraction

from .charpoly import CharacterPolynomial, Rational, symbol

BASE_DIVISORS = ("omega", "L", "f")


class SurfaceClass:
    __slots__ = ("deg0", "div", "deg2")

    def __init__(self, deg0=0, div=None, deg2=None):
        self.deg0 = Fraction(deg0)
        self.div = {}
        if div:
            for name, coeff in div.items():
                c = Fraction(coeff)
                if c:
                    self.div[name] = c
        if deg2 is None:
            deg2 = CharacterPolynomial.zero()
        elif not isinstance(deg2, CharacterPolynomial):
            deg2 = CharacterPolynomial.constant(deg2)
        self.deg2 = deg2

    # -- constructors ---------------------------------------------------

    @classmethod
    def unit(cls) -> "SurfaceClass":
        return cls(deg0=1)

    @classmethod
    def divisor(cls, name: str) -> "SurfaceClass":
        return cls(div={name: 1})

    @classmethod
    def point(cls, coeff=1) -> "SurfaceClass":
        return cls(deg2=coeff)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.deg0 and not self.div and self.deg2.is_zero()

    def degrees(self) -> set[int]:
        out = set()
        if self.deg0:
            out.add(0)
        if self.div:
            out.add(1)
        if not self.deg2.is_zero():
            out.add(2)
        return out

    def pure_degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"class is not of pure degree: {self}")
        return degs.pop()

    def basis_terms(self):
        """Yield (coefficient, basis key) pairs.

        Basis keys are "1", divisor names, and "pt".  Coefficients are
        rationals except for "pt", whose coefficient is a character
        polynomial.
        """
        if self.deg0:
            yield self.deg0, "1"
        for name in sorted(self.div):
            yield self.div[name], name
        if not self.deg2.is_zero():
            yield self.deg2, "pt"

    # -- linear operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SurfaceClass):
            return NotImplemented
        div = dict(self.div)
        for name, c in other.div.items():
            div[name] = div.get(name, Fraction(0)) + c
        return SurfaceClass(self.deg0 + other.deg0, div, self.deg2 + other.deg2)

    def __neg__(self):
        return SurfaceClass(-self.deg0, {k: -v for k, v in self.div.items()}, -self.deg2)

    def __sub__(self, other):
        if not isinstance(other, SurfaceClass):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff) -> "SurfaceClass":
        if isinstance(coeff, CharacterPolynomial):
            if not self.deg0 and not self.div:
                return SurfaceClass(0, None, coeff * self.deg2)
            raise ValueError("character coefficients only scale point classes")
        c = Fraction(coeff)
        return SurfaceClass(
            self.deg0 * c, {k: v * c for k, v in self.div.items()}, c * self.deg2
        )

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def __eq__(self, other):
        if not isinstance(other, SurfaceClass):
            return NotImplemented
        return (
            self.deg0 == other.deg0 and self.div == other.div and self.deg2 == other.deg2
        )

    def __hash__(self):
        return hash((self.deg0, frozenset(self.div.items()), self.deg2))

    def render(self) -> str:
        parts = []
        if self.deg0:
            parts.append(str(self.deg0))
        for name in sorted(self.div):
            c = self.div[name]
            parts.append(name if c == 1 else f"{c}*{name}")
        if not self.deg2.is_zero():
            coeff = self.deg2.render()
            parts.append("pt" if coeff == "1" else f"({coeff})*pt")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"SurfaceClass({self.render()})"


UNIT = SurfaceClass.unit()
OMEGA = SurfaceClass.divisor("omega")
LCLASS = SurfaceClass.divisor("L")
FIBRE = SurfaceClass.divisor("f")
POINT = SurfaceClass.point()


class SurfaceGeometry:
    """Intersection data of the fibred surface.

    Holds the divisor pairing table, fibre degrees, the node count per
    singular-fibre flavor, and the omega-degrees on the two sides of a
    generic node (needed when a node class self-intersects).
    """

    def __init__(self, pairing=None, fibre_degrees=None, node_flavors=None,
                 side_degrees=None):
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
        if side_degrees:
            for side, value in side_degrees.items():
                self.side_degrees[side] = _as_poly(value)

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


def class_mul(a: SurfaceClass, b: SurfaceClass, geo: SurfaceGeometry | None = None) -> SurfaceClass:
    """Product of two classes, truncated above point degree."""
    geo = geo or default_geometry()
    out = SurfaceClass()
    if a.deg0:
        out = out + a.deg0 * b
    if b.deg0:
        out = out + b.deg0 * SurfaceClass(0, a.div, a.deg2)
    deg2 = CharacterPolynomial.zero()
    for da, ca in a.div.items():
        for db, cb in b.div.items():
            deg2 = deg2 + (ca * cb) * geo.pair(da, db)
    if not deg2.is_zero():
        out = out + SurfaceClass(deg2=deg2)
    return out


def fibre_degree(c: SurfaceClass, geo: SurfaceGeometry | None = None) -> CharacterPolynomial:
    """Degree of a divisor class on a general fibre."""
    geo = geo or default_geometry()
    if c.pure_degree() != 1:
        raise ValueError(f"fibre degree needs a divisor class, got {c!r}")
    total = CharacterPolynomial.zero()
    for name, coeff in c.div.items():
        if name not in geo.fibre_degrees:
            raise KeyError(f"no fibre degree registered for divisor {name!r}")
        total = total + coeff * geo.fibre_degrees[name]
    return total


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
