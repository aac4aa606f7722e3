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

The kernels work in Python ints wherever the values are integers.  A
product adds the exponents and reduces x_i y_i -> t in one pass.  An
arc restriction multiplies every term by the same nonzero product of
powers of its constants, which makes every power of a constant a
non-negative int power; a common nonzero factor cannot change which
t-powers cancel, so the valuation is the same as over Q.

Inside a shared-work scope (`tautcalc.shares_work`, opened by every
`taut-calc` command) each generator G_i, and G_1^2, is built once.  This
module opens no scope itself: called directly, every function builds
its generators afresh.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from operator import add

from . import shared_table

Coeff = int | Fraction


class ValuationInstabilityError(RuntimeError):
    """Arc valuations kept disagreeing, or vanishing, across random
    parameter draws."""


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

    def __pow__(self, n: int):
        result = QuotPoly.constant(self.m, 1)
        for _ in range(n):
            result = result * self
        return result

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


def arc_valuation(m: int, j: int, component, seed: int = 0) -> int:
    """t-adic order of G_j along an arc through the stratum `component`.

    `component` is the set of slots whose x-coordinate stays generic
    (x_i = c_i, y_i = t/c_i); the remaining slots have y generic.  Two
    independent random draws of the constants must agree; a draw whose
    restriction vanishes, or two draws that disagree, are accidental
    cancellations and trigger a retry, up to 5 attempts, then an error.
    """
    I = frozenset(component)
    if not I <= set(range(1, m + 1)):
        raise ValueError(f"component {sorted(I)} not within [1, {m}]")
    g = _generator(m, j)
    attempts = []
    for attempt in range(5):
        vals = []
        for sub in range(2):
            rng = random.Random(hash((seed, attempt, sub, m, j, tuple(sorted(I)))))
            consts = [rng.randint(2, 10 ** 6) for _ in range(m)]
            vals.append(_substituted_valuation(g, m, I, consts))
        if vals[0] is not None and vals[0] == vals[1]:
            return vals[0]
        attempts.append(tuple(vals))
    raise ValuationInstabilityError(
        f"valuation of G_{j} on {sorted(I)} unstable after 5 draws"
        f" (None: the restriction vanished): {attempts}"
    )


def _substituted_valuation(g: QuotPoly, m: int, I: frozenset, consts) -> int | None:
    """t-order of g at x_i = c_i, y_i = t/c_i for i in I and at
    x_i = t/c_i, y_i = c_i off I, or None if the restriction vanishes.

    `consts` lists the nonzero int constants c_1..c_m.  Every term is
    multiplied by the same prod c_i^(-d_i), with d_i the lowest exponent
    of c_i over all terms or 0 if none is negative, so every power is a
    non-negative int power.
    """
    on = [i + 1 in I for i in range(m)]
    n = 2 * m
    rows = []
    low = [0] * m
    for mono, coeff in g.terms.items():
        t_exp = mono[n]
        exps = []
        for i in range(m):
            xe, ye = mono[i], mono[m + i]
            if on[i]:
                t_exp += ye
                e = xe - ye
            else:
                t_exp += xe
                e = ye - xe
            if e < low[i]:
                low[i] = e
            exps.append(e)
        rows.append((t_exp, coeff, exps))
    by_exponent: dict[int, Coeff] = {}
    for t_exp, scale, exps in rows:
        for c, e, d in zip(consts, exps, low):
            if e != d:
                scale *= c ** (e - d)
        by_exponent[t_exp] = by_exponent.get(t_exp, 0) + scale
    orders = [e for e, s in by_exponent.items() if s]
    return min(orders) if orders else None


def ord_table(m: int, seed: int = 0) -> dict[tuple[int, int], int]:
    """Arc valuations of every G_j on every stratum size.

    The valuation only depends on |component|; this is verified on two
    distinct components per size where possible.  Keys are (j, size).
    """
    table: dict[tuple[int, int], int] = {}
    for j in range(1, m + 1):
        for size in range(m + 1):
            first = frozenset(range(1, size + 1))
            value = arc_valuation(m, j, first, seed)
            if 0 < size < m:
                second = frozenset(range(m - size + 1, m + 1))
                other = arc_valuation(m, j, second, seed)
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
    since b_l = 0 wherever a_l > 0.  Multiplying by a monomial sends
    distinct reduced monomials to distinct ones (x^a y^b t^e has the
    exponent vector (a - b, |b| + e) in Z^(m+1), and the product adds
    vectors), so no term cancels: the valuation is the least of these
    exponents over the terms of G_1^2.
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
