from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from tautcalc import shares_work
from tautcalc.polyoracle import (
    QuotPoly,
    arc_valuation,
    check_chain,
    check_syzygy,
    derived_eta_exponent,
    eta_valuation,
    ord_table,
    printed_eta_exponent,
    printed_ord_formula,
    vdm_det,
)


def elementary_symmetric(m: int, k: int, variable: str) -> QuotPoly:
    """e_k in the x- or y-variables at level m: the reference symmetric
    functions the syzygy checks multiply by."""
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


def derived_ord_formula(m: int, j: int, size: int) -> int:
    """Closed form matching the computed table: C(k'-j+1, 2) with
    k' = m - size counting slots off the component."""
    k = m - size
    return (k - j) * (k - j + 1) // 2


def _variable(m, index):
    # the generator at position index of the keys (x_1..x_m, y_1..y_m, t)
    mono = [0] * (2 * m + 1)
    mono[index] = 1
    return QuotPoly(m, {tuple(mono): 1})


def x(m, i):
    return _variable(m, i - 1)


def y(m, i):
    return _variable(m, m + i - 1)


def t(m):
    return _variable(m, 2 * m)


def power(p, n):
    """p^n as n products."""
    result = QuotPoly.constant(p.m, 1)
    for _ in range(n):
        result = result * p
    return result


def t_valuation(p):
    """Exact t-adic valuation of a nonzero element."""
    assert p.terms, "zero element has no valuation"
    return min(mono[2 * p.m] for mono in p.terms)


def test_normal_form_basic():
    m = 2
    assert x(m, 1) * y(m, 1) == t(m)
    assert x(m, 1) * y(m, 2) != t(m)
    p = power(x(m, 1), 2) * y(m, 1)
    assert p == x(m, 1) * t(m)


def test_normal_form_confluent_randomized():
    # multiplying in any order must land on the same normal form
    m = 3
    rng = random.Random(7)
    gens = [x(m, i) for i in (1, 2, 3)] + [y(m, i) for i in (1, 2, 3)] + [t(m)]
    for _ in range(30):
        factors = [rng.choice(gens) for _ in range(6)]
        left = QuotPoly.constant(m, 1)
        for f in factors:
            left = left * f
        right = QuotPoly.constant(m, 1)
        for f in reversed(factors):
            right = f * right
        assert left == right


def test_integer_coefficients_stay_int():
    m = 3
    p = (x(m, 1) - 2 * y(m, 2)) * vdm_det(m, 2)
    assert all(type(c) is int for c in p.terms.values())
    half = QuotPoly.constant(m, Fraction(1, 2))
    assert half * 2 == QuotPoly.constant(m, 1)
    three_quarters = QuotPoly.constant(m, Fraction(3, 4))
    assert QuotPoly(m, {(0,) * 7: "3/4"}) == three_quarters


def test_reduced_monomials_stay_reduced_under_t():
    m = 2
    p = x(m, 1) * y(m, 2) - 3 * y(m, 1) * y(m, 2)
    q = t(m) * p
    assert t_valuation(q) == t_valuation(p) + 1
    assert len(q.terms) == len(p.terms)


def test_vdm_small():
    # G_1 at m=2 is x_1 - x_2 after sign normalization
    m = 2
    g1 = vdm_det(m, 1)
    assert g1 == x(m, 1) - x(m, 2)
    g2 = vdm_det(m, 2)
    assert g2 == y(m, 1) - y(m, 2)


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _det_cofactor(matrix):
    """Laplace expansion along the rows, memoized on column subsets."""
    n = len(matrix)
    cache = {}

    def minor(row, cols):
        if row == n - 1:
            return matrix[row][cols[0]]
        if (row, cols) not in cache:
            total = {}
            for pos, col in enumerate(cols):
                piece = _poly_mul(matrix[row][col],
                                  minor(row + 1, cols[:pos] + cols[pos + 1:]))
                for mono, c in piece.items():
                    total[mono] = total.get(mono, 0) + (-c if pos % 2 else c)
            cache[(row, cols)] = {k: v for k, v in total.items() if v}
        return cache[(row, cols)]

    return minor(0, tuple(range(n)))


def test_vdm_matches_laplace():
    # the Leibniz expansion in vdm_det against an independent Laplace
    # expansion of the same free-ring matrix
    for m in range(1, 6):
        width = 2 * m + 1

        def entry(var, k, p):
            mono = [0] * width
            if p:
                mono[k - 1 if var == "x" else m + k - 1] = p
            return {tuple(mono): 1}

        for i in range(1, m + 1):
            rows = [
                [entry("x", k, p) for k in range(1, m + 1)]
                for p in range(m - i + 1)
            ] + [
                [entry("y", k, p) for k in range(1, m + 1)]
                for p in range(1, i)
            ]
            laplace = QuotPoly(m, _det_cofactor(rows))
            g = vdm_det(m, i)
            assert g in (laplace, -laplace)
            assert len(g.terms) == factorial(m)


def test_chain_identities():
    signs = {}
    for m in range(2, 6):
        for i in range(1, m):
            signs[(m, i)] = check_chain(m, i)
    assert signs[(2, 1)] == -1
    # every chain step holds up to sign; that is the assertion of check_chain


def test_syzygy_identities():
    for m in range(2, 5):
        for i in range(1, m):
            for j in range(m):
                check_syzygy(m, i, j, kind="lower")
        for i in range(2, m + 1):
            for j in range(m):
                check_syzygy(m, i, j, kind="raise")


def test_syzygy_range_validation():
    with pytest.raises(ValueError):
        check_syzygy(3, 3, 0, kind="lower")
    with pytest.raises(ValueError):
        check_syzygy(3, 1, 0, kind="raise")
    with pytest.raises(ValueError):
        check_syzygy(3, 2, 0, kind="sideways")


def test_arc_valuation_m2():
    # frozen by direct expansion of G_1 = x_1 - x_2 and G_2 = y_1 - y_2
    assert arc_valuation(2, 1, {1, 2}) == 0
    assert arc_valuation(2, 1, {1}) == 0
    assert arc_valuation(2, 1, set()) == 1
    assert arc_valuation(2, 2, {1, 2}) == 1
    assert arc_valuation(2, 2, {1}) == 0
    assert arc_valuation(2, 2, set()) == 0


def test_ord_table_matches_derived_formula():
    for m in (2, 3, 4):
        table = ord_table(m)
        for (j, size), value in table.items():
            assert value >= 0
            assert value == derived_ord_formula(m, j, size)
            zero_sizes = {s for s in range(m + 1) if table[(j, s)] == 0}
            assert zero_sizes == {m - j, m - j + 1} & set(range(m + 1))


@shares_work
def test_arc_valuation_on_every_component_matches_derived_formula():
    # one scope, so each G_j is built once
    for m in range(1, 7):
        for j in range(1, m + 1):
            for size in range(m + 1):
                want = derived_ord_formula(m, j, size)
                for component in combinations(range(1, m + 1), size):
                    assert arc_valuation(m, j, component) == want


def test_ord_table_at_the_seeds_that_once_drew_vanishing_constants():
    # at these seeds the sampled order once drew two equal constants on
    # the same side of the component, so a restriction vanished
    for seed in (226, 352557):
        assert ord_table(4, seed) == {(j, size): derived_ord_formula(4, j, size)
                                      for j in range(1, 5) for size in range(5)}


def test_arc_valuation_refuses_a_slot_outside_the_level():
    with pytest.raises(ValueError, match=r"component \[0, 2\] not within \[1, 3\]"):
        arc_valuation(3, 1, {0, 2})


def test_printed_ord_formula_is_doubled_complement_count():
    # reference quadratic equals twice the computed order once the size
    # argument is read as the complement count
    for m in (2, 3, 4):
        for j in range(1, m + 1):
            for size in range(m + 1):
                assert printed_ord_formula(m - size, j) == 2 * derived_ord_formula(
                    m, j, size
                )


def test_eta_valuation():
    assert eta_valuation(2, 1, 2) == 1
    assert eta_valuation(3, 2, 2) == 4
    # the quadratic exponent is exact iff G_i*G_j carries no extra
    # t-order, which happens precisely for |i-j| <= 1
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                correction = t_valuation(vdm_det(m, i) * vdm_det(m, j))
                assert (correction == 0) == (abs(i - j) <= 1)
                expected = derived_eta_exponent(m, i, j) + correction
                assert eta_valuation(m, i, j) == expected


def test_eta_valuation_reads_the_product_off_g1_squared():
    # the product itself is the reference for the exponent read-off
    for m in (1, 2, 3, 4, 5):
        g1 = vdm_det(m, 1)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                product = power(elementary_symmetric(m, m, "y"),
                                i + j - 2) * g1 * g1
                assert eta_valuation(m, i, j) == t_valuation(product)


def test_eta_valuation_extreme_pair():
    # slot supports of the two factors must overlap, forcing one
    # reduction: x1^2 y3^2 t^4 realizes the minimum
    assert eta_valuation(3, 1, 3) == 4
    assert derived_eta_exponent(3, 1, 3) == 3


def test_printed_eta_exponent_differs():
    assert printed_eta_exponent(2, 1, 2) == 0 != derived_eta_exponent(2, 1, 2)
    diffs = [
        (m, i, j)
        for m in (2, 3)
        for i in range(1, m + 1)
        for j in range(1, m + 1)
        if printed_eta_exponent(m, i, j) != derived_eta_exponent(m, i, j)
    ]
    assert diffs, "reference exponent should not match the computed one everywhere"


def diagonal_vanish(m: int, i: int) -> bool:
    """G_i dies when slots 1 and 2 collide."""
    g = vdm_det(m, i)
    folded = {}
    for mono, coeff in g.terms.items():
        merged = list(mono)
        merged[0] += merged[1]
        merged[1] = 0
        merged[m] += merged[m + 1]
        merged[m + 1] = 0
        key = tuple(merged)
        s = folded.get(key, 0) + coeff
        if s:
            folded[key] = s
        else:
            folded.pop(key, None)
    return QuotPoly(m, folded).is_zero()


def test_diagonal_vanish():
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            assert diagonal_vanish(m, i)


def test_elementary_symmetric():
    m = 3
    e2 = elementary_symmetric(m, 2, "x")
    assert len(e2.terms) == 3
    assert elementary_symmetric(m, 0, "y") == QuotPoly.constant(m, 1)
    with pytest.raises(ValueError):
        elementary_symmetric(m, 4, "x")
