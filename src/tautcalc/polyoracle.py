"""Exact arithmetic in Q[x_1..x_m, y_1..y_m, t] modulo (x_i*y_i - t).

The local model of the punctual locus lives in this quotient ring.  Its
distinguished generators G_i are signed determinants of mixed
Vandermonde matrices.  Every matrix entry is a single monomial, so each
determinant is its Leibniz expansion: one +-1 term per permutation.  The
chain and syzygy identities the G_i satisfy, and the t-adic valuations
of their restrictions to coordinate arcs, are the ground truth that the
intersection calculus is checked against.

Monomials x^a y^b t^e with some min(a_i, b_i) > 0 are reduced by
x_i y_i -> t.  Reduced monomials stay reduced under multiplication by
t, so the minimal t-exponent of a normal form is the exact t-adic
valuation.  A product adds the exponents and reduces x_i y_i -> t in
one pass.

The t-adic orders of `arc_valuation` and `eta_valuation` are read off
the terms, with no cancellation to look for.  A reduced monomial
x^a y^b t^e has min(a_i, b_i) = 0 in every slot, so its vector
(a - b, |b| + e) in Z^(m+1) determines it, and the reduction
x_i y_i -> t keeps that vector.  So:

- multiplying by a monomial adds a fixed vector and sends distinct
  reduced monomials to distinct ones: no two terms cancel;
- on a coordinate arc (x_i = c_i, y_i = t/c_i on the component,
  x_i = t/c_i, y_i = c_i off it) a term is +-c^(+-(a - b)) times a
  power of t, so two distinct terms at the same t-power have distinct
  a - b and carry distinct monomials in the constants c_i: for generic
  constants no two cancel.

Either way the order is the least t-exponent over the terms.

Inside a shared-work scope (`tautcalc.shares_work`, opened by every
`taut-calc` command) each generator G_i, and G_1^2, is built once.  This
module opens no scope itself: called directly, every function builds
its generators afresh.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add

from . import shared_table

Coeff = int | Fraction


class QuotPoly:
    """Element of the quotient ring at level m, kept in normal form.

    Keys are integer tuples (x_1..x_m, y_1..y_m, t).  Integer
    coefficients stay int; any other coefficient becomes a Fraction.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        raw = terms or {}
        out: dict[tuple, Coeff] = {}
        for mono, coeff in raw.items():
            c = coeff if isinstance(coeff, int) else Fraction(coeff)
            if not c:
                continue
            key = _reduce_mono(m, mono)
            out[key] = out.get(key, 0) + c
        self.terms = {k: v for k, v in out.items() if v}

    @classmethod
    def _from_normal(cls, m: int, terms: dict) -> "QuotPoly":
        # terms must already be normal: reduced keys, nonzero coefficients
        poly = object.__new__(cls)
        poly.m = m
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, m: int, value) -> "QuotPoly":
        return cls(m, {(0,) * (2 * m + 1): value})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        assert self.m == other.m
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return QuotPoly._from_normal(self.m, out)

    def __neg__(self):
        return QuotPoly._from_normal(self.m, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        m = self.m
        if isinstance(other, (int, Fraction)):
            if not other:
                return QuotPoly._from_normal(m, {})
            return QuotPoly._from_normal(
                m, {k: v * other for k, v in self.terms.items()}
            )
        assert m == other.m
        n = 2 * m
        out: dict[tuple, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # both factors are reduced, so only a slot where one brings
                # x_i and the other y_i needs x_i y_i -> t
                mono = list(map(add, m1, m2))
                for i in range(m):
                    a = mono[i]
                    if a:
                        b = mono[m + i]
                        if b:
                            k = a if a < b else b
                            mono[i] = a - k
                            mono[m + i] = b - k
                            mono[n] += k
                key = tuple(mono)
                out[key] = out.get(key, 0) + c1 * c2
        return QuotPoly._from_normal(m, {k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, QuotPoly) and self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __repr__(self):
        return f"QuotPoly(m={self.m}, {len(self.terms)} terms)"


def _reduce_mono(m: int, mono) -> tuple:
    mono = list(mono)
    for i in range(m):
        k = min(mono[i], mono[m + i])
        if k:
            mono[i] -= k
            mono[m + i] -= k
            mono[2 * m] += k
    return tuple(mono)


# -- the generators G_i ------------------------------------------------


def vdm_det(m: int, i: int) -> QuotPoly:
    """Mixed Vandermonde generator G_i as a normalized quotient element.

    Row degrees are 1, x, ..., x^(m-i), y, ..., y^(i-1); column k uses
    the variables x_k, y_k.  Every entry is a single monomial and every
    row a different variable power, so the Leibniz expansion over the
    permutations of the columns gives m! distinct monomials with
    coefficients +-1 and nothing cancels.  The sign is fixed so the
    lexicographically leading monomial is positive.
    """
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range for level {m}")
    # (exponent offset, power) per row: x-powers sit at offset 0, y at m
    rows = [(0, p) for p in range(m - i + 1)] + [(m, p) for p in range(1, i)]
    det: dict[tuple, int] = {}
    mono = [0] * (2 * m + 1)

    def place(r: int, free: list, sign: int) -> None:
        # row r takes a free column; the one at position pos passes over
        # pos smaller free columns, which is pos inversions
        if r == m:
            det[tuple(mono)] = sign
            return
        offset, power = rows[r]
        for pos, col in enumerate(free):
            mono[offset + col] = power
            place(r + 1, free[:pos] + free[pos + 1:], -sign if pos & 1 else sign)
            mono[offset + col] = 0

    place(0, list(range(m)), 1)
    if det[max(det)] < 0:
        det = {k: -v for k, v in det.items()}
    # one row per column, so no slot carries both x_k and y_k: reduced
    return QuotPoly._from_normal(m, det)


def _generator(m: int, i: int) -> QuotPoly:
    """vdm_det(m, i), built once per shared-work scope."""
    table = shared_table("vdm")
    g = table.get((m, i))
    if g is None:
        g = table[(m, i)] = vdm_det(m, i)
    return g


def elementary_symmetric(m: int, k: int, variable: str) -> QuotPoly:
    """e_k in the x- or y-variables at level m."""
    if not 0 <= k <= m:
        raise ValueError(f"symmetric degree {k} out of range")
    offset = 0 if variable == "x" else m
    terms = {}
    for subset in combinations(range(m), k):
        mono = [0] * (2 * m + 1)
        for idx in subset:
            mono[offset + idx] = 1
        terms[tuple(mono)] = 1
    return QuotPoly(m, terms)


def _t_power(m: int, e: int) -> QuotPoly:
    mono = [0] * (2 * m + 1)
    mono[2 * m] = e
    return QuotPoly(m, {tuple(mono): 1})


def _match_up_to_sign(lhs: QuotPoly, rhs: QuotPoly) -> int:
    if lhs == rhs:
        return 1
    if lhs == -rhs:
        return -1
    raise AssertionError("sides differ beyond a global sign")


def check_chain(m: int, i: int) -> int:
    """Verify t^(m-i) * G_(i+1) = +- e_m(y) * G_i; returns the sign."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"chain index {i} out of range for level {m}")
    lhs = _t_power(m, m - i) * _generator(m, i + 1)
    rhs = elementary_symmetric(m, m, "y") * _generator(m, i)
    return _match_up_to_sign(lhs, rhs)


def check_syzygy(m: int, i: int, j: int, kind: str = "lower") -> int:
    """Verify the two syzygy families on the generators, up to sign.

    kind "lower": e_(m-j)(y) * G_i = t^(m-j-i) * e_j(x) * G_(i+1),
    for 1 <= i <= m-1, 0 <= j <= m-1.
    kind "raise": e_(m-j)(x) * G_i = t^(i-j-1) * e_j(y) * G_(i-1),
    for 2 <= i <= m, 0 <= j <= m-1.

    The raise family is the x<->y mirror of the lower family under
    G_i -> G_(m-i+1); only the exponent i-j-1 is degree-consistent
    (t carries bidegree (1, 1)).

    A negative t-exponent is checked as the equivalent divisibility
    statement with the power moved to the other side.
    """
    if kind == "lower":
        if not (1 <= i <= m - 1 and 0 <= j <= m - 1):
            raise ValueError(f"syzygy indices ({i}, {j}) out of range")
        left = elementary_symmetric(m, m - j, "y") * _generator(m, i)
        right = elementary_symmetric(m, j, "x") * _generator(m, i + 1)
        e = m - j - i
    elif kind == "raise":
        if not (2 <= i <= m and 0 <= j <= m - 1):
            raise ValueError(f"syzygy indices ({i}, {j}) out of range")
        left = elementary_symmetric(m, m - j, "x") * _generator(m, i)
        right = elementary_symmetric(m, j, "y") * _generator(m, i - 1)
        e = i - j - 1
    else:
        raise ValueError(f"unknown syzygy kind {kind!r}")
    if e >= 0:
        right = _t_power(m, e) * right
    else:
        left = _t_power(m, -e) * left
    return _match_up_to_sign(left, right)


# -- arc valuations ----------------------------------------------------


def arc_valuation(m: int, j: int, component) -> int:
    """t-adic order of G_j along an arc through the stratum `component`.

    `component` is the set of slots whose x-coordinate stays generic
    (x_i = c_i, y_i = t/c_i); the remaining slots have y generic
    (x_i = t/c_i, y_i = c_i).  A term x^a y^b t^e then has t-order
    e + sum of b_i on the component + sum of a_i off it, and for generic
    constants the order of G_j is the least of these (see the module
    docstring).
    """
    I = frozenset(component)
    if not I <= set(range(1, m + 1)):
        raise ValueError(f"component {sorted(I)} not within [1, {m}]")
    # the exponent offset in a monomial of each slot's t-carrying variable
    offsets = [m + i - 1 if i in I else i - 1 for i in range(1, m + 1)]
    return min(mono[2 * m] + sum(mono[k] for k in offsets)
               for mono in _generator(m, j).terms)


def ord_table(m: int, seed: int = 0) -> dict[tuple[int, int], int]:
    """Arc valuations of every G_j on every stratum size.

    The valuation only depends on |component|; this is verified on two
    distinct components per size where possible.  Keys are (j, size).
    The order is exact, so `seed` is accepted and changes nothing.
    """
    table: dict[tuple[int, int], int] = {}
    for j in range(1, m + 1):
        for size in range(m + 1):
            first = frozenset(range(1, size + 1))
            value = arc_valuation(m, j, first)
            if 0 < size < m:
                second = frozenset(range(m - size + 1, m + 1))
                other = arc_valuation(m, j, second)
                if other != value:
                    raise AssertionError(
                        f"valuation depends on the component, not just its size: "
                        f"G_{j} on {sorted(first)} vs {sorted(second)}"
                    )
            table[(j, size)] = value
    return table


def printed_ord_formula(k: int, j: int) -> int:
    # reference quadratic; twice the computed order, in the complement count
    return (k - j) ** 2 + (k - j)


def eta_valuation(m: int, i: int, j: int) -> int:
    """t-adic valuation of e_m(y)^(i+j-2) * G_1^2.

    e_m(y)^k is the single monomial (y_1...y_m)^k.  Times a reduced
    monomial x^a y^b t^e it reduces to t-exponent e + sum_l min(a_l, k),
    since b_l = 0 wherever a_l > 0.  Multiplying by a monomial cancels
    no term (see the module docstring), so the valuation is the least of
    these exponents over the terms of G_1^2.
    """
    if not (1 <= i <= m and 1 <= j <= m):
        raise ValueError(f"indices ({i}, {j}) out of range for level {m}")
    squares = shared_table("G_1^2")
    g1_squared = squares.get(m)
    if g1_squared is None:
        g1 = _generator(m, 1)
        g1_squared = squares[m] = g1 * g1
    k = i + j - 2
    return min(mono[2 * m] + sum(a if a < k else k for a in mono[:m])
               for mono in g1_squared.terms)


def derived_eta_exponent(m: int, i: int, j: int) -> int:
    value = (i - 1) * (Fraction(2 * m - i, 2)) + (j - 1) * (Fraction(2 * m - j, 2))
    assert value.denominator == 1
    return int(value)


def printed_eta_exponent(m: int, i: int, j: int) -> int:
    return (i - 1) * (m - i) + (j - 1) * (m - j)
