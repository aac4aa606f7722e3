from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from math import factorial, prod

import pytest

from tautcalc.charpoly import CharacterPolynomial as CP, symbol
from tautcalc.schubert import (
    NSEC3_TUPLES,
    _strips,
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


def box_partitions(a: int, b: int):
    """Every partition in the a x b box, padded to a rows."""
    return combinations_with_replacement(range(b, -1, -1), a)


def column_strips_by_bumps(lam, b: int, j: int):
    """Vertical strips of size j, found by walking every 0/1 vector of
    row bumps: the reference enumerator for column strips."""
    a = len(lam)
    for bumps in product((0, 1), repeat=a):
        if sum(bumps) != j:
            continue
        mu = tuple(l + e for l, e in zip(lam, bumps))
        if any(mu[i] < mu[i + 1] for i in range(a - 1)):
            continue
        if mu[0] > b:
            continue
        yield mu


def row_strips_by_interlacing(lam, b: int, j: int):
    """Horizontal strips of size j, found by walking every partition mu
    in the box: mu1 >= lam1 >= mu2 >= lam2 >= ... and |mu| - |lam| = j.
    The reference enumerator for row strips."""
    a = len(lam)
    for mu in box_partitions(a, b):
        if sum(mu) - sum(lam) != j:
            continue
        if all(mu[i] >= lam[i] for i in range(a)) and all(
                lam[i] >= mu[i + 1] for i in range(a - 1)):
            yield mu


def strip_cases(kind, reference) -> int:
    """Compare `_strips` of one kind with its reference on every
    partition in every box up to 6 x 6 and every nonzero strip size that
    fits the box; return the number of cases."""
    cases = 0
    for a, b in product(range(7), repeat=2):
        for lam in box_partitions(a, b):
            for j in range(1, max(a, b) + 1):
                got = sorted(_strips(lam, b, j, kind))
                want = sorted(reference(lam, b, j))
                assert got == want, (lam, b, j)
                cases += 1
    return cases


def conjugate(rows, b: int):
    """The conjugate of a padded partition in an a x b box, padded to b
    rows."""
    return tuple(sum(1 for r in rows if r > k) for k in range(b))


def fold(box, factors):
    terms = {(0,) * box[0]: 1}
    for f in factors:
        terms = pieri_mul(terms, box, f)
    return terms


def hook_length_count(a: int, b: int) -> int:
    """Standard Young tableaux of the a x b rectangle, by the hook-length
    formula: (ab)! over the product of the hooks (a-i) + (b-k) - 1."""
    hooks = prod(a - i + b - k - 1 for i in range(a) for k in range(b))
    return factorial(a * b) // hooks


class TestPieri:
    def test_unit_times_row(self):
        assert pieri_mul({(0, 0): 1}, (2, 2), ("row", 1)) == {(1, 0): 1}

    def test_row_strip_enumeration(self):
        got = pieri_mul({(3, 0): 1}, (2, 4), ("row", 3))
        assert got == {(4, 2): 1, (3, 3): 1}

    def test_column_strips_match_the_bump_vectors(self):
        assert strip_cases("column", column_strips_by_bumps) == 19318

    def test_row_strips_match_the_interlacing(self):
        assert strip_cases("row", row_strips_by_interlacing) == 19318

    def test_size_zero_is_identity(self):
        terms = {(2, 1): 5}
        assert pieri_mul(terms, (2, 4), ("row", 0)) == terms
        assert pieri_mul(terms, (2, 4), ("column", 0)) == terms

    def test_refusals(self):
        with pytest.raises(ValueError, match="unknown special kind 'diag'"):
            pieri_mul({(0, 0): 1}, (2, 4), ("diag", 1))
        with pytest.raises(ValueError,
                           match=r"special class size 5 outside box \(2, 4\)"):
            pieri_mul({(0, 0): 1}, (2, 4), ("row", 5))
        with pytest.raises(ValueError, match="size -1 outside"):
            pieri_mul({(0, 0): 1}, (2, 4), ("column", -1))

    def test_commutativity(self):
        rng = random.Random(11)
        for _ in range(10):
            factors = [(rng.choice(("row", "column")), rng.randint(1, 3))
                       for _ in range(4)]
            perm = factors[:]
            rng.shuffle(perm)
            assert fold((3, 3), factors) == fold((3, 3), perm)

    def test_transpose_duality(self):
        # rows in the a x b box are columns in the b x a box, for every
        # box up to 4 x 4
        rng = random.Random(7)
        for a, b in product(range(5), repeat=2):
            for _ in range(6):
                sizes = [rng.randint(0, max(a, b))
                         for _ in range(rng.randint(1, 5))]
                rows = fold((a, b), [("row", j) for j in sizes])
                cols = fold((b, a), [("column", j) for j in sizes])
                assert cols == {conjugate(p, b): c
                                for p, c in rows.items()}, (a, b, sizes)


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
        assert vals == {1}

    def test_column_convention_matches_transpose(self):
        v_row = grassmann_integral((2, 4), [("row", 2), ("row", 3), ("row", 3)])
        v_col = grassmann_integral((4, 2),
                                   [("column", 2), ("column", 3), ("column", 3)])
        assert v_row == v_col == 1

    def test_hyperplane_powers_count_the_tableaux(self):
        # the degree of the a x b Grassmannian, a*b factors r1, is the
        # number of standard tableaux of the rectangle
        for a, b in product(range(11), repeat=2):
            if a + b > 10:
                continue
            got = grassmann_integral((a, b), [("row", 1)] * (a * b))
            assert type(got) is int
            assert got == hook_length_count(a, b), (a, b)


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
