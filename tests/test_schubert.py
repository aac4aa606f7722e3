from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from tautcalc.charpoly import CharacterPolynomial as CP, symbol
from tautcalc.schubert import (
    NSEC3_TUPLES,
    BoxPartition,
    SchurExpr,
    _column_strips,
    grassmann_integral,
    nsec3,
    nsec3_terms,
    pieri_mul,
)

sigma = symbol("sigma")
omega2 = symbol("omega2")
omegaL = symbol("omegaL")
L2 = symbol("L2")
dL = symbol("dL")
g2 = symbol("g2")


def column_strips_by_bumps(part: BoxPartition, j: int):
    """Vertical strips of size j, found by walking every 0/1 vector of
    row bumps: the reference enumerator for `_column_strips`."""
    a, b = part.box
    lam = part.padded()
    for bumps in product((0, 1), repeat=a):
        if sum(bumps) != j:
            continue
        mu = tuple(l + e for l, e in zip(lam, bumps))
        if any(mu[i] < mu[i + 1] for i in range(a - 1)):
            continue
        if mu[0] > b:
            continue
        yield BoxPartition(mu, part.box)


def box_partitions(a: int, b: int):
    for rows in combinations_with_replacement(range(b, -1, -1), a):
        yield BoxPartition(rows, (a, b))


class TestBoxPartition:
    def test_zero_rows_dropped(self):
        assert BoxPartition((3, 1, 0), (3, 4)).rows == (3, 1)

    def test_box_limits(self):
        with pytest.raises(ValueError):
            BoxPartition((5,), (2, 4))
        with pytest.raises(ValueError):
            BoxPartition((1, 1, 1), (2, 4))
        with pytest.raises(ValueError):
            BoxPartition((1, 2), (2, 4))

    def test_conjugate(self):
        p = BoxPartition((3, 1), (2, 4))
        assert p.conjugate() == BoxPartition((2, 1, 1), (4, 2))
        assert p.conjugate().conjugate() == p


class TestPieri:
    def test_unit_times_row(self):
        e = pieri_mul(SchurExpr.unit((2, 2)), ("row", 1))
        assert e == SchurExpr((2, 2), {BoxPartition((1,), (2, 2)): Fraction(1)})

    def test_row_strip_enumeration(self):
        e = SchurExpr((2, 4), {BoxPartition((3,), (2, 4)): Fraction(1)})
        got = pieri_mul(e, ("row", 3))
        want = SchurExpr((2, 4), {
            BoxPartition((4, 2), (2, 4)): Fraction(1),
            BoxPartition((3, 3), (2, 4)): Fraction(1),
        })
        assert got == want

    def test_column_strips_match_the_bump_vectors(self):
        # every partition in every box up to 6 x 6, every strip size that
        # pieri_mul passes on (it answers size 0 itself)
        cases = 0
        for a, b in product(range(7), repeat=2):
            for part in box_partitions(a, b):
                for j in range(1, max(a, b) + 1):
                    got = sorted(p.rows for p in _column_strips(part, j))
                    want = sorted(p.rows
                                  for p in column_strips_by_bumps(part, j))
                    assert got == want, (part, j)
                    cases += 1
        assert cases == 19318

    def test_size_zero_is_identity(self):
        e = SchurExpr((2, 4), {BoxPartition((2, 1), (2, 4)): Fraction(5)})
        assert pieri_mul(e, ("row", 0)) == e
        assert pieri_mul(e, ("column", 0)) == e

    def test_commutativity(self):
        rng = random.Random(11)
        for _ in range(10):
            factors = [(rng.choice(("row", "column")), rng.randint(1, 3))
                       for _ in range(4)]
            perm = factors[:]
            rng.shuffle(perm)
            a = SchurExpr.unit((3, 3))
            b = SchurExpr.unit((3, 3))
            for f in factors:
                a = pieri_mul(a, f)
            for f in perm:
                b = pieri_mul(b, f)
            assert a == b

    def test_transpose_duality(self):
        factors = [("row", 2), ("row", 3), ("row", 3)]
        a = SchurExpr.unit((2, 4))
        for f in factors:
            a = pieri_mul(a, f)
        b = SchurExpr.unit((4, 2))
        for kind, j in factors:
            b = pieri_mul(b, ("column", j))
        conj = SchurExpr((4, 2),
                         {p.conjugate(): c for p, c in a.terms.items()})
        assert b == conj


class TestGrassmannIntegral:
    def test_projective_line(self):
        assert grassmann_integral((1, 1), [("row", 1)]) == 1

    def test_classical_degree(self):
        # degree of the Plucker quadric: four general translates of a
        # hyperplane class meet in 2 points
        assert grassmann_integral((2, 2), [("row", 1)] * 4) == 2

    def test_size_mismatch_vanishes(self):
        assert grassmann_integral((2, 4), [("row", 3), ("row", 3)]) == 0

    def test_factor_order_symmetry(self):
        factors = [("row", 2), ("row", 3), ("row", 3)]
        vals = {grassmann_integral((2, 4), perm)
                for perm in ([factors[i] for i in order]
                             for order in ((0, 1, 2), (1, 0, 2), (2, 1, 0)))}
        assert vals == {Fraction(1)}

    def test_column_convention_matches_transpose(self):
        v_row = grassmann_integral((2, 4), [("row", 2), ("row", 3), ("row", 3)])
        v_col = grassmann_integral((4, 2),
                                   [("column", 2), ("column", 3), ("column", 3)])
        assert v_row == v_col == 1


class TestNodeSectionCount:
    def test_tuple_enumeration(self):
        assert len(NSEC3_TUPLES) == 10
        assert all(j1 + j2 + j3 == 4 and j3 > 0 for j1, j2, j3 in NSEC3_TUPLES)
        assert (3, 0, 1) in NSEC3_TUPLES
        assert (2, 0, 2) in NSEC3_TUPLES

    def test_all_grassmann_factors_are_one(self):
        for (j1, j2, j3), (g, _w) in nsec3_terms().items():
            assert g == 1, (j1, j2, j3)

    def test_frozen_w_integrals(self):
        want = {
            (3, 0, 1): CP.zero(),
            (2, 1, 1): L2 * dL * dL - 3 * L2 * dL + 2 * L2,
            (2, 0, 2): -L2 * g2 - 2 * L2 * dL + 2 * L2,
            (1, 2, 1): (L2 * dL * dL - dL * omegaL - 4 * L2 * dL
                        + 2 * omegaL + 4 * L2),
            (1, 1, 2): (L2 * dL * dL - 2 * dL * omegaL - 5 * L2 * dL
                        + 4 * omegaL + 6 * L2),
            (1, 0, 3): (2 * dL * sigma - 3 * dL * omegaL - dL * omega2
                        - 3 * L2 * dL + 6 * omegaL + 6 * L2),
            (0, 3, 1): (2 * dL * sigma - 3 * dL * omegaL - dL * omega2
                        - 3 * L2 * dL - 2 * sigma + 6 * omegaL
                        + 2 * omega2 + 6 * L2),
            (0, 2, 2): (-2 * L2 * g2 - 4 * L2 * dL - 2 * sigma
                        + 12 * omegaL + 4 * omega2 + 10 * L2),
            (0, 1, 3): (2 * dL * sigma - 3 * dL * omegaL - dL * omega2
                        - 3 * L2 * dL - 6 * sigma + 18 * omegaL
                        + 8 * omega2 + 12 * L2),
            (0, 0, 4): -2 * sigma + 24 * omegaL + 14 * omega2 + 12 * L2,
        }
        terms = nsec3_terms()
        for t, w_expected in want.items():
            assert terms[t][1] == w_expected, t

    def test_total_is_sum_of_terms(self):
        total = nsec3()
        acc = CP.zero()
        for g, w in nsec3_terms().values():
            acc = acc + CP.constant(g) * w
        assert total == acc

    def test_total_renders(self):
        text = nsec3().render()
        assert "sigma" in text and "omega2" in text
