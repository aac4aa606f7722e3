"""Pieri calculus on a boxed Grassmannian, and the node-section count.

Schur classes live inside a fixed a x b bounding box (the Grassmannian
of a-planes in a+b space).  Only special classes are ever multiplied,
so the Pieri rule is the whole ring structure we need.  The final
consumer is nsec3, which assembles the count of 3-node sections of a
line bundle from Grassmannian degrees and fibre-power integrals.
"""

from __future__ import annotations

from fractions import Fraction

from . import shares_work
from .charpoly import CharacterPolynomial
from .exprparse import evaluate_integral

__all__ = [
    "BoxPartition",
    "SchurExpr",
    "pieri_mul",
    "grassmann_integral",
    "nsec3",
    "nsec3_terms",
    "NSEC3_TUPLES",
]


class BoxPartition:
    """Weakly decreasing rows inside an a x b box."""

    __slots__ = ("rows", "box")

    def __init__(self, rows, box):
        a, b = box
        rows = tuple(r for r in rows if r)
        if len(rows) > a or any(r > b for r in rows):
            raise ValueError(f"partition {rows} exceeds box {box}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"rows not weakly decreasing: {rows}")
        if any(r < 0 for r in rows):
            raise ValueError(f"negative row in {rows}")
        self.rows = rows
        self.box = (a, b)

    def padded(self):
        return self.rows + (0,) * (self.box[0] - len(self.rows))

    def conjugate(self) -> "BoxPartition":
        a, b = self.box
        rows = self.padded()
        cols = tuple(sum(1 for r in rows if r > j) for j in range(b))
        return BoxPartition(cols, (b, a))

    def __eq__(self, other):
        return (isinstance(other, BoxPartition)
                and self.rows == other.rows and self.box == other.box)

    def __hash__(self):
        return hash((self.rows, self.box))

    def __repr__(self):
        return f"BoxPartition({self.rows}, box={self.box})"


class SchurExpr:
    """Rational combination of box partitions, all in one box."""

    __slots__ = ("box", "terms")

    def __init__(self, box, terms=None):
        self.box = tuple(box)
        self.terms = {}
        if terms:
            for part, coeff in terms.items():
                self.add(part, coeff)

    @classmethod
    def unit(cls, box) -> "SchurExpr":
        return cls(box, {BoxPartition((), box): Fraction(1)})

    def add(self, part: BoxPartition, coeff):
        if part.box != self.box:
            raise ValueError("box mismatch")
        c = Fraction(coeff)
        if not c:
            return
        total = self.terms.get(part, Fraction(0)) + c
        if total:
            self.terms[part] = total
        else:
            self.terms.pop(part, None)

    def coefficient(self, part: BoxPartition) -> Fraction:
        return self.terms.get(part, Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, SchurExpr) and self.box == other.box
                and self.terms == other.terms)

    def __repr__(self):
        body = " + ".join(f"{c}*s{p.rows}" for p, c in sorted(
            self.terms.items(), key=lambda t: t[0].rows))
        return f"SchurExpr({body or '0'})"


def _row_strips(part: BoxPartition, j: int):
    """Partitions obtained by adding a horizontal strip of size j."""
    a, b = part.box
    lam = part.padded()

    def rec(i, remaining, prev_mu, acc):
        if i == a:
            if remaining == 0:
                yield BoxPartition(tuple(acc), part.box)
            return
        # horizontal strip: lam[i] <= mu[i] <= min(prev row's mu, box
        # width) and mu[i+1] may not exceed lam[i]
        hi = min(b if i == 0 else prev_mu, lam[i] + remaining)
        if i > 0:
            hi = min(hi, lam[i - 1])
        for mu_i in range(lam[i], hi + 1):
            yield from rec(i + 1, remaining - (mu_i - lam[i]), mu_i,
                           acc + [mu_i])

    yield from rec(0, j, b, [])


def _column_strips(part: BoxPartition, j: int):
    """Partitions obtained by adding a vertical strip of size j: the
    conjugates of the row-strip additions to the conjugate."""
    for mu in _row_strips(part.conjugate(), j):
        yield mu.conjugate()


def pieri_mul(e: SchurExpr, special) -> SchurExpr:
    """Multiply by a special Schur class (single row or column)."""
    kind, j = special
    if j < 0 or j > max(e.box):
        raise ValueError(f"special class size {j} outside box {e.box}")
    out = SchurExpr(e.box)
    if j == 0:
        for part, coeff in e.terms.items():
            out.add(part, coeff)
        return out
    strips = _row_strips if kind == "row" else _column_strips
    if kind not in ("row", "column"):
        raise ValueError(f"unknown special kind {kind!r}")
    for part, coeff in e.terms.items():
        for mu in strips(part, j):
            out.add(mu, coeff)
    return out


def grassmann_integral(box, factors) -> Fraction:
    """Coefficient of the full box after folding the special factors.

    Each Pieri step adds its size to the weight, so factors whose sizes
    do not sum to a*b give 0.
    """
    a, b = box
    e = SchurExpr.unit(box)
    for factor in factors:
        e = pieri_mul(e, factor)
    return e.coefficient(BoxPartition((b,) * a, box))


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
    total = CharacterPolynomial.zero()
    for g, w in terms.values():
        total = total + g * w
    return total
