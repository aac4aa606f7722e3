"""Pieri calculus on a boxed Grassmannian, and the node-section count.

Schur classes live inside a fixed a x b bounding box (the Grassmannian
of a-planes in a+b space).  A class is its partition padded to a rows,
a tuple of a weakly decreasing ints at most b; a combination of classes
is a dict {rows: int}.  Only special classes are ever multiplied, so
the Pieri rule is the whole ring structure we need, and every
coefficient it makes is a count of strips, an int.  The final consumer
is nsec3, which assembles the count of 3-node sections of a line
bundle from Grassmannian degrees and fibre-power integrals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import shares_work

if TYPE_CHECKING:
    from .charpoly import CharacterPolynomial

__all__ = [
    "pieri_mul",
    "grassmann_integral",
    "nsec3",
    "nsec3_terms",
    "NSEC3_TUPLES",
]


def _strips(lam, b, j, kind):
    """The rows mu in the len(lam) x b box that add a strip of j boxes
    to lam, as a list.  A row strip adds at most lam[i-1] - lam[i] boxes
    to row i; a column strip adds at most one box to each row and keeps
    the rows weakly decreasing.  Row 0 never passes b."""
    a = len(lam)
    row = kind == "row"
    out = []

    def extend(i, left, mu):
        if i == a:
            if not left:
                out.append(mu)
            return
        low = lam[i]
        top = b if i == 0 else lam[i - 1] if row else mu[i - 1]
        # the rows below take at most lam[i] - lam[-1] more boxes of a
        # row strip, and one each of a column strip
        room = low - lam[-1] if row else a - 1 - i
        first = low + left - room if left > room else low
        for r in range(first, min(top, low + (left if row else min(left, 1))) + 1):
            extend(i + 1, left - (r - low), mu + (r,))

    extend(0, j, ())
    return out


def pieri_mul(terms: dict, box, special) -> dict:
    """Multiply {rows: coefficient} in the box by a special Schur class,
    ("row", j) or ("column", j)."""
    kind, j = special
    if j < 0 or j > max(box):
        raise ValueError(f"special class size {j} outside box {tuple(box)}")
    if kind not in ("row", "column"):
        raise ValueError(f"unknown special kind {kind!r}")
    out = {}
    for lam, coeff in terms.items():
        for mu in _strips(lam, box[1], j, kind):
            out[mu] = out.get(mu, 0) + coeff
    return out


def grassmann_integral(box, factors) -> int:
    """Coefficient of the full box after folding the special factors.

    Each Pieri step adds its size to the weight, so factors whose sizes
    do not sum to a*b give 0.
    """
    a, b = box
    terms = {(0,) * a: 1}
    for factor in factors:
        terms = pieri_mul(terms, box, factor)
    return terms.get((b,) * a, 0)


# -- node-section count for m = 3 ---------------------------------------

# all exponent tuples with j1+j2+j3 = 4 and j3 > 0; the factor for a
# slot with j_i = 0 is the unit, and any tuple with j3 = 0 integrates
# to zero since nothing touches the last slot
NSEC3_TUPLES = tuple(
    (j1, j2, j3)
    for j1 in range(5) for j2 in range(5) for j3 in range(1, 5)
    if j1 + j2 + j3 == 4
)


def _w_integral(j1: int, j2: int, j3: int) -> CharacterPolynomial:
    """Integral over W^3 of (L1)^j1 (L2 - D2)^j2 (L3 - D3)^j3."""
    # the engine loads only here, so the Pieri fold runs without it
    from .exprparse import evaluate_integral
    return evaluate_integral(
        f"L(1)^{j1}*(L(2)-Delta<2>)^{j2}*(L(3)-Delta<3>)^{j3}", 3)


@shares_work
def nsec3_terms():
    """Per-tuple (Grassmannian degree, fibre-power integral) breakdown."""
    out = {}
    for (j1, j2, j3) in NSEC3_TUPLES:
        g = grassmann_integral((2, 4), [("row", 4 - j1), ("row", 4 - j2),
                                        ("row", 4 - j3)])
        w = _w_integral(j1, j2, j3)
        out[(j1, j2, j3)] = (g, w)
    return out


def nsec3() -> CharacterPolynomial:
    """3! times the virtual count of 3-node curves in the family.

    Assembles sum over exponent tuples of (Grassmannian degree) times
    (fibre-power integral); divide by 6 for the count itself.
    """
    return _nsec3_sum(nsec3_terms())


def _nsec3_sum(terms) -> CharacterPolynomial:
    """Assemble 3! N3 from an nsec3_terms breakdown."""
    from .charpoly import CharacterPolynomial
    total = CharacterPolynomial.zero()
    for g, w in terms.values():
        total = total + g * w
    return total
