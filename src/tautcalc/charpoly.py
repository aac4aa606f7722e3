"""Exact polynomials in named numerical characters.

Integrals computed by the engine are not plain numbers: they are
polynomials with rational coefficients in a handful of named characters
of the fibration (node count, self-intersections of distinguished
divisors, fibre degrees).  This module provides that coefficient ring.

Coefficients are int first: almost every coefficient the engine makes
is an integer (weights, binomials, signs, counts of moves), so an
integral coefficient is stored as an int and only a non-integral one
as a Fraction.  Values do not depend on this: `terms` and
`constant_value` return Fractions, and since hash(2) == hash(Fraction(2))
equality, hashes and renders are those of all-Fraction arithmetic.
Every division goes through Fraction(a, b), never int / int.

The rewrite engine holds a number as a plain int or Fraction until a
character enters it (`as_coefficient` gives that form), so a
polynomial meets numbers far more often than polynomials: adding or
multiplying by an int or Fraction shifts or scales the terms directly,
without building a constant polynomial.
"""
from __future__ import annotations

from fractions import Fraction

Rational = Fraction

# The characters of the surface.  g2 stores the fibre degree of
# the relative dualizing class, i.e. 2g-2 for fibre genus g; g2J and g2K
# are the analogous degrees on the two sides of a generic node.
CHARACTERS = frozenset(
    ("sigma", "omega2", "omegaL", "L2", "dL", "g2", "g2J", "g2K"))


class CharacterPolynomial:
    """Polynomial over Q in the characters of the surface.

    Internally a map from monomials to coefficients, where a monomial is
    the tuple of its symbol names sorted ascending (with multiplicity)
    and every coefficient is nonzero: an int when it is integral, a
    Fraction otherwise.  Immutable: operations never change an operand,
    though they may return one unchanged.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[str, ...], Rational] | None = None):
        cleaned: dict[tuple[str, ...], Rational] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(sorted(mono))
                cleaned[mono] = cleaned.get(mono, 0) + _coefficient(coeff)
        self._terms = {k: _demote(v) for k, v in cleaned.items() if v}

    @classmethod
    def _from_normal(cls, terms: dict) -> "CharacterPolynomial":
        # terms must already be normal: sorted monomials, nonzero
        # coefficients, each an int when integral
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "CharacterPolynomial":
        return cls._from_normal({})

    @classmethod
    def one(cls) -> "CharacterPolynomial":
        return cls._from_normal({(): 1})

    @classmethod
    def constant(cls, value) -> "CharacterPolynomial":
        c = _demote(_coefficient(value))
        return cls._from_normal({(): c} if c else {})

    @classmethod
    def symbol(cls, name: str) -> "CharacterPolynomial":
        if name not in CHARACTERS:
            raise ValueError(f"unknown character {name!r}")
        return cls._from_normal({(name,): 1})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    def constant_value(self) -> Rational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._terms.get((), 0))

    def terms(self) -> dict[tuple[str, ...], Rational]:
        return {m: Fraction(c) for m, c in self._terms.items()}

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a number shifts the constant term
            if not other:
                return self
            out = dict(self._terms)
            c = _demote(out.get((), 0) + other)
            if c:
                out[()] = c
            else:
                del out[()]
            return CharacterPolynomial._from_normal(out)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for m, c in other._terms.items():
            c = _demote(c + out.get(m, 0))
            if c:
                out[m] = c
            else:
                del out[m]
        return CharacterPolynomial._from_normal(out)

    __radd__ = __add__

    def __neg__(self):
        return CharacterPolynomial._from_normal(
            {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a number scales the coefficients and keeps the monomials
            if not other:
                return ZERO
            return CharacterPolynomial._from_normal(
                {m: _demote(c * other) for m, c in self._terms.items()})
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(b) == 1 and () in b:
            a, b = b, a
        if len(a) == 1 and () in a:
            # a constant factor scales the coefficients and keeps the monomials
            c = a[()]
            return CharacterPolynomial._from_normal(
                {m: _demote(c * v) for m, v in b.items()})
        out: dict[tuple[str, ...], Rational] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return CharacterPolynomial._from_normal(
            {m: _demote(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        # repeated squaring: about 2 log2(n) products, not n
        result, square = CharacterPolynomial.one(), self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def evaluate(self, assignment: dict[str, Rational]) -> "CharacterPolynomial":
        """Substitute rational values for some symbols.

        Symbols absent from the assignment stay symbolic, so partial
        evaluation is fine.
        """
        out: dict[tuple[str, ...], Rational] = {}
        for mono, coeff in self._terms.items():
            c = coeff
            rest = []
            for sym in mono:
                if sym in assignment:
                    c *= Fraction(assignment[sym])
                else:
                    rest.append(sym)
            if c:
                key = tuple(rest)
                out[key] = out.get(key, 0) + c
        return CharacterPolynomial(out)

    # -- comparison / rendering ---------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms, key=lambda m: (len(m), m), reverse=True):
            coeff = self._terms[mono]
            body = _render_monomial(mono)
            if body is None:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"CharacterPolynomial({self.render()})"


def _render_monomial(mono: tuple[str, ...]) -> str | None:
    if not mono:
        return None
    pieces = []
    i = 0
    while i < len(mono):
        j = i
        while j < len(mono) and mono[j] == mono[i]:
            j += 1
        pieces.append(mono[i] if j - i == 1 else f"{mono[i]}^{j - i}")
        i = j
    return "*".join(pieces)


def _coefficient(value) -> int | Fraction:
    """An exact coefficient: an int stays an int, anything else becomes
    a Fraction (a float by its exact binary value)."""
    return int(value) if isinstance(value, int) else Fraction(value)


def _demote(c):
    """c as an int when it is an integral Fraction, else c unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def as_coefficient(value):
    """value in the canonical form of a coefficient outside this ring.

    A number is an int when integral and a Fraction otherwise; a
    constant polynomial becomes that number; any other polynomial stays
    as it is.  So a value has one form, and equal values hash equal.
    """
    if isinstance(value, CharacterPolynomial):
        terms = value._terms
        if not terms:
            return 0
        if len(terms) == 1 and () in terms:
            return terms[()]
        return value
    return _demote(_coefficient(value))


def _coerce(value):
    if isinstance(value, CharacterPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return CharacterPolynomial.constant(value)
    return NotImplemented


ZERO = CharacterPolynomial.zero()


def symbol(name: str) -> CharacterPolynomial:
    return CharacterPolynomial.symbol(name)
