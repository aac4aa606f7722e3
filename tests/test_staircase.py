from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from tautcalc import shares_work, staircase
from tautcalc.staircase import (
    _reduce,
    GenericityError,
    InfiniteColengthError,
    alpha,
    beta,
    buchberger,
    colength,
    j_m,
    leading_monomial,
    minimalize,
    monomial_poly,
    printed_alpha_closed_form,
)


def normal_form(p, basis):
    """Fully reduce p against the basis."""
    return _reduce(p, basis, [leading_monomial(g) for g in basis])


def beta_total(m: int, etas=(Fraction(1), Fraction(2))) -> int:
    return sum(beta(m, etas=etas))


def printed_polygon_region(m: int, j: int):
    """Area of the literal polygon-union construction for beta(m, j).

    Returns (area, agrees) where agrees compares against the colength
    value.  The construction reads: take the staircase region, its
    translate by (-j, m+1-j), and the half plane y >= j; the area of
    the complement should be the weight.  It matches only for j = 1.
    """
    base = j_m(m)
    quadrants = set(base)
    for gx, gy in base:
        quadrants.add((max(gx - j, 0), gy + m + 1 - j))
    quadrants.add((0, j))
    corners = minimalize(quadrants)
    if not any(b == 0 for _, b in corners) or not any(a == 0 for a, _ in corners):
        raise InfiniteColengthError(f"unbounded complement for ({m}, {j})")
    height = min(b for a, b in corners if a == 0)
    area = sum(min(a for a, bb in corners if bb <= b) for b in range(height))
    return area, area == beta(m, j)


def printed_elimination_count(m: int, i: int) -> int:
    """Size of the cobasis produced by the literal elimination recipe.

    Start from the standard monomials of the basic ideal, drop all
    monomials with y-exponent >= i, then for every j with C(j,2) >= i
    drop multiples of x^(C(m+1-j,2)+m+1-i) * y^(C(j,2)-i).  Undercounts
    the true eliminations, e.g. it keeps x^2 at (m, i) = (3, 2).
    """
    corners = j_m(m)
    height = max(b for _, b in corners)
    standard = [
        (a, b)
        for b in range(height)
        for a in range(min(x for x, y in corners if y <= b))
    ]
    kept = [(a, b) for a, b in standard if b < i]
    for j in range(1, m + 1):
        if comb(j, 2) >= i:
            bound = (comb(m + 1 - j, 2) + m + 1 - i, comb(j, 2) - i)
            kept = [p for p in kept
                    if not (bound[0] <= p[0] and bound[1] <= p[1])]
    return len(kept)


def test_minimalize():
    assert minimalize([(3, 0), (1, 1), (0, 3), (2, 1), (3, 3)]) == ((0, 3), (1, 1), (3, 0))
    assert minimalize([(0, 0), (5, 5)]) == ((0, 0),)


def test_j_m_staircases():
    assert j_m(2) == ((0, 1), (1, 0))
    assert j_m(3) == ((0, 3), (1, 1), (3, 0))
    assert j_m(4) == ((0, 6), (1, 3), (3, 1), (6, 0))
    # generators are exactly the triangular-number corners, minimalized
    for m in range(2, 8):
        raw = {(comb(m - i + 1, 2), comb(i, 2)) for i in range(1, m + 1)}
        assert set(j_m(m)) <= raw


def test_alpha_values_and_identity():
    assert [alpha(m) for m in range(2, 8)] == [1, 5, 15, 35, 70, 126]
    for m in range(2, 12):
        assert alpha(m) == comb(m + 2, 4)
        assert alpha(m) == colength([monomial_poly(c) for c in j_m(m)])


def test_alpha_closed_form_matches_the_rectangle_sum():
    # the rectangle decomposition of the staircase region, summed
    for m in range(0, 501):
        assert alpha(m) == sum(i * comb(m + 1 - i, 2) for i in range(1, m))


def test_printed_alpha_closed_form_diverges():
    # agrees through m = 3, then drifts
    assert printed_alpha_closed_form(2) == alpha(2)
    assert printed_alpha_closed_form(3) == alpha(3)
    assert printed_alpha_closed_form(4) == 18 and alpha(4) == 15


def test_degrevlex_leading_terms():
    p = {(2, 0): Fraction(1), (1, 1): Fraction(5), (0, 2): Fraction(-1)}
    assert leading_monomial(p) == (2, 0)
    q = {(1, 1): Fraction(2), (0, 3): Fraction(1)}
    assert leading_monomial(q) == (0, 3)


def test_normal_form_and_groebner_completion():
    # x^2 - a*y^2 against the level-3 staircase needs the S-pair x^2*y
    gens = [monomial_poly(c) for c in j_m(3)]
    f = {(2, 0): Fraction(1), (0, 2): Fraction(-2)}
    basis = buchberger(gens + [f])
    corners = minimalize(leading_monomial(g) for g in basis)
    assert (2, 0) in corners
    assert normal_form(monomial_poly((5, 5)), basis) == {}


def _s_polynomial(p, q):
    lp, lq = leading_monomial(p), leading_monomial(q)
    lcm = (max(lp[0], lq[0]), max(lp[1], lq[1]))
    out = {}
    for g, lg, sign in ((p, lp, 1), (q, lq, -1)):
        scale = Fraction(sign) / g[lg]
        for (a, b), c in g.items():
            key = (a + lcm[0] - lg[0], b + lcm[1] - lg[1])
            out[key] = out.get(key, 0) + c * scale
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("eta",
                         [Fraction(1), Fraction(-3, 5), Fraction(97, 31)])
def test_buchberger_criterion_on_staircase_binomials(eta):
    # every S-pair of the returned basis reduces to zero, whatever order
    # the pairs were processed in
    for m in range(2, 9):
        for j in range(1, m):
            gens = [monomial_poly(c) for c in j_m(m)]
            gens.append({(0, j): Fraction(1), (m - j, 0): eta})
            basis = buchberger(gens)
            for a in range(len(basis)):
                for b in range(a):
                    s = _s_polynomial(basis[a], basis[b])
                    assert normal_form(s, basis) == {}, (m, j, a, b)


@pytest.mark.parametrize("etas", [(1, 2), (Fraction(-3, 5), Fraction(97, 31))])
def test_beta_closed_form(etas):
    for m in range(2, 13):
        assert beta(m, etas=etas) == tuple(
            m * j * (m - j) // 2 for j in range(1, m))


def test_beta_colengths_shared_within_one_scope_only(monkeypatch):
    computed = []
    single = staircase._beta_single

    def counted(m, j, eta):
        computed.append((m, j, eta))
        return single(m, j, eta)
    monkeypatch.setattr(staircase, "_beta_single", counted)

    # with no scope open nothing survives from one call to the next
    assert beta(4) == beta(4) == (6, 8, 6)
    assert len(computed) == 12

    @shares_work
    def rows():
        return [beta(4), beta(4, 2), beta(4, etas=(1, 2, Fraction(-3, 5)))]

    # one scope computes each (m, j, eta) once: the third eta is new
    for _ in range(2):
        computed.clear()
        assert rows() == [(6, 8, 6), 8, (6, 8, 6)]
        assert sorted(computed) == sorted(
            (4, j, Fraction(e)) for j in (1, 2, 3)
            for e in (1, 2, Fraction(-3, 5)))


def test_colength_infinite_detection():
    with pytest.raises(InfiniteColengthError):
        colength([monomial_poly((1, 1))])
    with pytest.raises(InfiniteColengthError):
        colength([monomial_poly((0, 2))])


def test_beta_tables():
    assert beta(2) == (1,)
    assert beta(3) == (3, 3)
    assert beta(4) == (6, 8, 6)
    assert beta(5) == (10, 15, 15, 10)
    assert beta(6) == (15, 24, 27, 24, 15)
    assert beta_total(3) == 6
    assert beta_total(5) == 50


def test_beta_first_column_and_symmetry():
    for m in range(2, 9):
        row = beta(m)
        assert row[0] == comb(m, 2)
        assert row == row[::-1]


def test_beta_eta_independence():
    for eta in (Fraction(1), Fraction(2), Fraction(-3, 5)):
        assert beta(4, 2, etas=(eta, eta + 7)) == 8
    with pytest.raises(ValueError):
        beta(4, 2, etas=(Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        beta(4, 2, etas=(Fraction(1), Fraction(1)))


def test_beta_degenerate_binomial_not_generic():
    # a square binomial slope breaks genericity: y^2 + eta*x^2 at m = 4
    # has eta-dependent colength only for special eta, which the pair
    # check must catch if it ever happens; here we spot-check that the
    # generic value is stable across several eta
    values = {beta(4, 2, etas=(Fraction(e), Fraction(e) + 1)) for e in (1, 3, 5)}
    assert values == {8}


def test_printed_polygon_region():
    area1, ok1 = printed_polygon_region(3, 1)
    assert area1 == 3 and ok1
    area2, ok2 = printed_polygon_region(3, 2)
    assert area2 == 4 and not ok2
    for m in range(2, 7):
        area, ok = printed_polygon_region(m, 1)
        assert ok and area == comb(m, 2)


def test_printed_elimination_count():
    # the literal recipe keeps x^2 at (3, 2), overcounting the cobasis
    assert printed_elimination_count(3, 2) == 4
    assert beta(3, 2) == 3
    assert printed_elimination_count(3, 1) == 3


def test_genericity_guard_fires_on_rigged_input():
    # directly exercise the disagreement path with a fake eta pair that
    # collides with a staircase corner: y + eta*x at level 2 has
    # colength 1 for all eta != 0, so instead check the guard wiring by
    # ensuring distinct etas is enforced upstream
    with pytest.raises(ValueError):
        beta(2, 1, etas=(Fraction(2), Fraction(2)))
    assert beta(2, 1) == 1
