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
valuation.

A reduced monomial x^a y^b t^e has min(a_i, b_i) = 0 in every slot, so
its vector (a - b, |b| + e) in Z^(m+1) determines it, and the reduction
x_i y_i -> t keeps that vector: the normal form of a product of two
monomials is the monomial of the sum of their vectors.  A product of
two elements therefore packs each term's vector into one int, one
signed field per slot below the field of |b| + e, adds the ints of
every term pair in one dict and decodes only the terms that survive.
The fields are wide enough for the sum of the operands' largest
exponents, so no sum spills into its neighbour.

Each generator is built by one walk over the permutations of the
columns, which feeds one of two views of its terms: keyed by monomial
tuples (`vdm_det`, `arc_valuation`), or keyed by packed vectors and
built directly at the one field width `_width(2 * m)` per level, which
holds every exponent of G_1^2 and of every e_k * G_i.  `check_syzygy`
multiplies and compares its two sides in the packed view, with e_k
packed as sums of slot weights, and `eta_valuation` squares G_1 in it;
neither builds a monomial tuple.

The t-adic orders of `arc_valuation` and `eta_valuation` are read off
the terms, with no cancellation to look for:

- multiplying by a monomial adds a fixed vector and sends distinct
  reduced monomials to distinct ones: no two terms cancel;
- on a coordinate arc (x_i = c_i, y_i = t/c_i on the component,
  x_i = t/c_i, y_i = c_i off it) a term is +-c^(+-(a - b)) times a
  power of t, so two distinct terms at the same t-power have distinct
  a - b and carry distinct monomials in the constants c_i: for generic
  constants no two cancel.

Either way the order is the least t-exponent over the terms.

Inside a shared-work scope (`tautcalc.shares_work`, opened by every
`taut-calc` command) each view of each generator G_i, and the decoded
vectors of G_1^2, are built once for the checks and valuations.
`ord_table` opens one for its own call when none is open, so it builds
each G_j once; called directly, every other function builds its
generators afresh, and `vdm_det` always does, so its caller owns the
terms it gets.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, repeat
from operator import itemgetter, mul, sub

from . import shared_table, shares_work

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
        width = _width(_degree(self) + _degree(other))
        product = _packed_product(_pack(self, width), _pack(other, width))
        return QuotPoly._from_normal(m, _unpack(m, product, width))

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


# -- packed vectors ----------------------------------------------------


def _degree(p: QuotPoly) -> int:
    """The largest exponent in p, which bounds every |a_i - b_i|."""
    return max(map(max, p.terms), default=0)


def _width(degree: int) -> int:
    """Bits per field that hold every a_i - b_i of absolute value <= degree."""
    return degree.bit_length() + 1


def _pack(p: QuotPoly, width: int) -> dict[int, Coeff]:
    """The terms of p keyed by their vectors (a - b, |b| + e), one int each.

    Slot i is the signed field at bit width * i and |b| + e the field
    above slot m - 1, so adding two keys adds the vectors field by field.
    The key is linear in the exponents: x_i weighs 2^(width*i), t weighs
    2^(width*m) and y_i the difference, so x_i y_i and t weigh the same.
    """
    xs, ys = _slot_weights(p.m, width)
    weights = xs + ys + [1 << (width * p.m)]
    return {sum(map(mul, mono, weights)): c for mono, c in p.terms.items()}


def _slot_weights(m: int, width: int) -> tuple[list[int], list[int]]:
    """The packed weights of x_1..x_m and of y_1..y_m (see `_pack`)."""
    top = 1 << (width * m)
    xs = [1 << (width * k) for k in range(m)]
    return xs, [top - x for x in xs]


def _packed_product(p: dict, q: dict) -> dict[int, Coeff]:
    """Packed p * q."""
    out: dict[int, Coeff] = {}
    get = out.get
    pairs = q.items()
    for k1, c1 in p.items():
        for k2, c2 in pairs:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _vectors(keys, m: int, width: int):
    """The vector [a_1 - b_1, ..., a_m - b_m, |b| + e] of each packed key.

    Adding half a field's range to every slot field makes each one a
    plain unsigned digit, so a field is read by one shift and one mask.
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    offset = sum(half << (width * k) for k in range(m))
    shifts = [width * k for k in range(m)]
    top = width * m
    for key in keys:
        key += offset
        vector = [(key >> shift & mask) - half for shift in shifts]
        vector.append(key >> top)
        yield vector


def _unpack(m: int, packed: dict, width: int) -> dict[tuple, Coeff]:
    """The terms of a packed element, keyed by reduced monomials."""
    terms = {}
    for (*d, s), c in zip(_vectors(packed, m, width), packed.values()):
        b = [-x if x < 0 else 0 for x in d]
        terms[tuple([x if x > 0 else 0 for x in d] + b + [s - sum(b)])] = c
    return terms


# -- the generators G_i ------------------------------------------------


def _build(view: str, m: int, i: int) -> dict:
    """One view of the terms of G_i: "terms" keys them by monomials,
    "packed" by their packed keys at width `_width(2 * m)`.

    Both views come from one walk over the permutations of the columns
    in lexicographic order.  A permutation hands each column one row,
    and the term is the product of those entries; `permutations(xs)`
    lists, in the order of `permutations(range(m))`, the x-power each
    column receives, and `permutations(ys)` the y-power in step.  The
    rows run in leading order: x^(m-i) down to x^1, then y^(i-1) down
    to y^1, then 1.  So the identity comes first, gives the
    lexicographically leading monomial and, being even, the sign +1.
    A permutation's sign is -1 to the sum of its Lehmer code, and in
    this order the codes run through range(m) x range(m-1) x ... x
    range(1) in order too.  So the first digit splits the walk into m
    blocks, and the signs of each block are those of a walk over one
    column less, flipped in every other block.
    """
    # the x- and y-power of each row; the last row, 1, has neither
    xs = (*range(m - i, 0, -1),) + (0,) * i
    ys = (0,) * (m - i) + (*range(i - 1, 0, -1), 0)
    signs = [1]
    for k in range(2, m + 1):
        flipped = [-s for s in signs]
        signs = (signs + flipped) * (k // 2) + (signs if k & 1 else [])
    if view == "terms":
        # each column holds one row, so no slot carries both x_k and y_k
        return {x + y + (0,): s
                for x, y, s in zip(permutations(xs), permutations(ys), signs)}
    # a column's field holds x_k - y_k, and the top field the sum of all
    # y-powers, which is the same for every term
    width = _width(2 * m)
    slots = _slot_weights(m, width)[0]
    top = sum(ys) << (width * m)
    keys = map(sum, map(partial(map, mul, slots), permutations(map(sub, xs, ys))),
               repeat(top))
    return dict(zip(keys, signs))


def _view(view: str, m: int, i: int) -> dict:
    """_build(view, m, i), built once per shared-work scope."""
    table = shared_table("vdm")
    terms = table.get((view, m, i))
    if terms is None:
        terms = table[view, m, i] = _build(view, m, i)
    return terms


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
    return QuotPoly._from_normal(m, _build("terms", m, i))


def check_chain(m: int, i: int) -> int:
    """Verify t^(m-i) * G_(i+1) = +- e_m(y) * G_i; returns the sign.

    This is the lower syzygy at j = 0.
    """
    if not 1 <= i <= m - 1:
        raise ValueError(f"chain index {i} out of range for level {m}")
    return check_syzygy(m, i, 0, "lower")


def check_syzygy(m: int, i: int, j: int, kind: str = "lower") -> int:
    """Verify the two syzygy families on the generators, up to sign.

    kind "lower": e_(m-j)(y) * G_i = t^(m-j-i) * e_j(x) * G_(i+1),
    for 1 <= i <= m-1, 0 <= j <= m-1.
    kind "raise": e_(m-j)(x) * G_i = t^(i-j-1) * e_j(y) * G_(i-1),
    for 2 <= i <= m, 0 <= j <= m-1.

    The raise family is the x<->y mirror of the lower family under
    G_i -> G_(m-i+1); only the exponent i-j-1 is degree-consistent
    (t carries bidegree (1, 1)).

    Both sides are compared in packed form, never decoded.  There t^e
    adds e to the top field of each key, so a negative exponent checks
    the equivalent divisibility statement with t^(-e) on the left.
    """
    # a field of _width(2 * m) holds every exponent of e_k * G_i
    width = _width(2 * m)
    xs, ys = _slot_weights(m, width)
    if kind == "lower":
        if not (1 <= i <= m - 1 and 0 <= j <= m - 1):
            raise ValueError(f"syzygy indices ({i}, {j}) out of range")
        left, right, other, e = ys, xs, i + 1, m - j - i
    elif kind == "raise":
        if not (2 <= i <= m and 0 <= j <= m - 1):
            raise ValueError(f"syzygy indices ({i}, {j}) out of range")
        left, right, other, e = xs, ys, i - 1, i - j - 1
    else:
        raise ValueError(f"unknown syzygy kind {kind!r}")
    lhs = _packed_product(_packed_symmetric(left, m - j), _view("packed", m, i))
    rhs = _packed_product(_packed_symmetric(right, j), _view("packed", m, other))
    # t^e adds e to the top field of every key
    shift = e << (width * m)
    rhs = {k + shift: c for k, c in rhs.items()}
    if lhs == rhs:
        return 1
    if lhs == {k: -c for k, c in rhs.items()}:
        return -1
    raise AssertionError("sides differ beyond a global sign")


def _packed_symmetric(weights: list[int], k: int) -> dict[int, int]:
    """Packed e_k in the variables of the given slot weights."""
    return dict.fromkeys(map(sum, combinations(weights, k)), 1)


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
    return min(map(sum, map(itemgetter(2 * m, *offsets), _view("terms", m, j))))


@shares_work
def ord_table(m: int, seed: int = 0) -> dict[tuple[int, int], int]:
    """Arc valuations of every G_j on every stratum size.

    The valuation only depends on |component|; this is verified on two
    distinct components per size where possible.  Keys are (j, size).
    The order is exact, so `seed` is accepted and changes nothing.  Each
    G_j is built once per call, or once per scope when one is open.
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

    e_m(y)^k is the single monomial (y_1...y_m)^k, of vector
    (-k, ..., -k, mk).  Times a reduced monomial of vector (d, s) it
    gives the reduced monomial of vector (d - k, s + mk), whose
    t-exponent is s + sum_l min(d_l, k).  Multiplying by a monomial
    cancels no term (see the module docstring), so the valuation is the
    least of these exponents over the terms of G_1^2.  The square is
    taken packed, and each key's vector is read with no monomial built,
    once per shared-work scope.
    """
    if not (1 <= i <= m and 1 <= j <= m):
        raise ValueError(f"indices ({i}, {j}) out of range for level {m}")
    squares = shared_table("G_1^2")
    square = squares.get(m)
    if square is None:
        packed = _view("packed", m, 1)
        product = _packed_product(packed, packed)
        square = squares[m] = [(s, d) for *d, s in
                               _vectors(product, m, _width(2 * m))]
    k = i + j - 2
    return min(s + sum(x if x < k else k for x in d) for s, d in square)


def derived_eta_exponent(m: int, i: int, j: int) -> int:
    value = (i - 1) * (Fraction(2 * m - i, 2)) + (j - 1) * (Fraction(2 * m - j, 2))
    assert value.denominator == 1
    return int(value)


def printed_eta_exponent(m: int, i: int, j: int) -> int:
    return (i - 1) * (m - i) + (j - 1) * (m - j)
