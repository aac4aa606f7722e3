"""The checks that `taut-calc verify-paper` replays, one row each.

A row is (id, status, detail, cases).  PASS: the engine agrees with the
printed value; NOTE: the frozen engine value disagrees with it; a check
that no longer holds prints FAIL.  A case is (level, input, expected
render): the input an expression to integrate, "normalize " and an
expression, or a factor list for `integrate_word`; the expected value
the exact string `render()` or `render_expr` gives.  A row with no
cases is computed by `loop_checks`.
"""

from fractions import Fraction
from math import comb

from .charpoly import CharacterPolynomial
from .exprparse import evaluate_integral, evaluate_normal
from .polyoracle import (check_chain, check_syzygy, derived_eta_exponent,
                         eta_valuation, ord_table, printed_ord_formula)
from .schubert import (NSEC3_TUPLES, _nsec3_sum, grassmann_integral,
                       nsec3_terms)
from .staircase import (alpha, beta, colength, j_m, monomial_poly,
                        printed_alpha_closed_form)
from .tautring import integrate_word, render_expr

_SMALLDIAG = ("smalldiag",)

# inputs are %-formatted: Python 3.11 parses each f-string apart, a cost
# that every verify-paper run pays when it imports this module
CHECKS = [
    ("beta-rows", "PASS", "rows m=2..6 match the printed tables", []),
    ("beta-symmetry", "PASS",
     "first entry C(m,2), palindromic rows, m<=8", []),
    ("beta-eta-independence", "PASS", "rows agree at eta = 1, 2, -3/5", []),
    ("alpha-colength", "PASS", "alpha = colength = C(m+2,4) for m=2..8", []),
    ("alpha-closed-form", "NOTE",
     "printed closed form diverges from the table for every m >= 4", []),
    ("vdm-chain", "PASS", "t^(m-i) G_(i+1) = +-e_m(y) G_i for m<=5", []),
    ("vdm-syzygy-lower", "PASS", "lower family holds up to sign for m<=4",
     []),
    ("vdm-syzygy-raise", "NOTE",
     "raise family holds with t-exponent i-j-1; the printed exponent"
     " m-j-i is not degree-consistent", []),
    ("ord-nonnegative", "PASS", "arc valuations have no poles for m<=4", []),
    ("ord-zero-set", "PASS",
     "order vanishes exactly on two adjacent component sizes", []),
    ("ord-quadratic", "NOTE", "printed quadratic is twice the computed order",
     []),
    ("eta-exponent-near", "PASS",
     "quadratic exponent exact whenever |i-j| <= 1, m<=4", []),
    ("eta-exponent-far", "NOTE",
     "eight pairs with |i-j| >= 2 exceed the quadratic; printed"
     " exponent misses the correction", []),
    ("nf-pair-diagonal-cube", "PASS", "third power of the level-2 diagonal",
     [(2, "normalize Gamma<2>^3", "omega2*q[{1,2}](pt) - NS(12:)")]),
    ("nf-pair-diagonal-square", "NOTE",
     "engine carries -omega on the diagonal term; the printed form"
     " shows +omega, inconsistent with its own later normal forms",
     [(2, "normalize Delta<2>^2", "-q[{1,2}](omega) + F(12:)")]),
    ("nf-top-diagonal-square", "PASS",
     "printed normal form reproduced verbatim",
     [(3, "normalize Delta<3>^2", "2*q[{1,2,3}](1) - q[{1,3}](omega)"
       " - q[{2,3}](omega) + F(13:) + F(23:)")]),
    ("int-lclass-delta2-squared", "NOTE", "engine gives -omegaL (twice that"
     " at level 3); printed value is +omegaL",
     [(2, "L(%d)*Delta<2>^2" % i, "-omegaL") for i in (1, 2)]
     + [(3, "L(%d)*Delta<2>^2*Delta<3>" % i, "-2*omegaL") for i in (1, 2, 3)]),
    ("int-lclass-pair-delta2", "PASS",
     "L.L.Delta integrals equal L2, doubling at level 3",
     [(2, "L(%d)*L(%d)*Delta<2>" % ij, "L2")
      for ij in ((1, 1), (1, 2), (2, 2))]
     + [(3, "L(%d)*L(%d)*Delta<2>*Delta<3>" % ij, "2*L2")
        for ij in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))]),
    ("int-lclass-triple", "PASS", "pure L-words with one fibre direction free",
     [(2, "L(1)*L(2)^2", "L2*dL"), (3, "L(1)*L(2)*L(3)*Delta<3>", "2*L2*dL")]
     + [(3, "L(%d)*L(3)^2*Delta<3>" % i, "L2*dL") for i in (1, 2)]),
    ("int-delta2-cubed", "PASS", "cube of the level-2 diagonal",
     [(2, "Delta<2>^3", "-sigma + omega2"),
      (3, "Delta<2>^3*Delta<3>", "-2*sigma + 2*omega2")]),
    ("int-lclass3-delta3-squared", "PASS", "the slot-3 polarized square",
     [(3, "L(3)*L(%d)*Delta<3>^2" % i, "-dL*omegaL + 2*L2") for i in (1, 2)]
     + [(3, "L(3)^2*Delta<3>^2", "2*L2")]),
    ("int-lclass-delta2-delta3sq", "PASS",
     "mixed divisor word gives -4 omegaL",
     [(3, "L(%d)*Delta<2>*Delta<3>^2" % i, "-4*omegaL") for i in (1, 2)]),
    ("int-delta2sq-delta3sq", "PASS", "squares of both diagonals",
     [(3, "Delta<2>^2*Delta<3>^2", "-2*sigma + 4*omega2")]),
    ("int-lclass-delta3-cubed", "NOTE",
     "engine result disagrees with the printed 2*omegaL",
     [(3, "L(%d)*Delta<3>^3" % i, "-2*dL*sigma + dL*omega2 - 6*omegaL")
      for i in (1, 2)] + [(3, "L(3)*Delta<3>^3", "-6*omegaL")]),
    ("int-delta2-delta3-cubed", "PASS",
     "one low diagonal against the top cube",
     [(3, "Delta<2>*Delta<3>^3", "-6*sigma + 8*omega2")]),
    ("int-delta3-fourth", "PASS", "fourth power of the top diagonal",
     [(3, "Delta<3>^4", "-2*sigma + 14*omega2")]),
    # the small diagonal stays a word factor: as the seed q[{1,2,3}](1)
    # a Gamma below its level would take the push-down path instead
    ("small-diagonal-facts", "PASS",
     "the three small-diagonal squares at level 3",
     [(3, [("gamma", 3), ("gamma", 3), _SMALLDIAG], "-6*sigma + 9*omega2"),
      (3, [("gamma", 3), ("gamma", 2), _SMALLDIAG], "-2*sigma + 3*omega2"),
      (3, [("gamma", 2), ("gamma", 2), _SMALLDIAG], "-sigma + omega2")]),
    ("node-scroll-integrals", "NOTE",
     "top-square -2 sigma, low-square 0; the printed mixed product"
     " lands outside the generator basis and is not evaluated",
     [(3, "F(%d3:)*Gamma<%d>^2" % (i, k), want) for i in (1, 2)
      for k, want in ((3, "-2*sigma"), (2, "0"))]),
    ("closure-weights", "PASS",
     "small-diagonal square equals -sigma beta_m + C(m,2)^2 omega2", []),
    ("grassmann-degrees", "PASS",
     "all box-(2,4) factors give 1; the classical quadric degree is 2", []),
    ("nsec3-tuple-list", "NOTE",
     "ten exponent tuples contribute; the printed list omits (3,0,1),"
     " which vanishes, and (2,0,2), which does not", []),
    ("nsec3-assembly", "PASS",
     "assembled 3!N3 matches the frozen engine polynomial", []),
]

def _render(m: int, given) -> str:
    """The render of one case's input at level m."""
    if isinstance(given, list):
        return integrate_word(given, m).render()
    if given.startswith("normalize "):
        return render_expr(evaluate_normal(given.split(" ", 1)[1], m))
    return evaluate_integral(given, m).render()


def loop_checks() -> dict:
    """{id: holds} for every row with no cases; each input that several
    checks read (arc orders, eta valuations, nsec3 terms) is made once."""
    etas = (Fraction(1), Fraction(2), Fraction(-3, 5))
    ords = {m: ord_table(m) for m in (2, 3, 4)}
    eta = {(m, i, j): eta_valuation(m, i, j) for m in (2, 3, 4)
           for i in range(1, m + 1) for j in range(1, m + 1)}
    far = [(m, i, j) for (m, i, j), value in eta.items()
           if value != derived_eta_exponent(m, i, j)]
    terms = nsec3_terms()
    return {
        "beta-rows": [beta(m) for m in range(2, 7)] == [
            (1,), (3, 3), (6, 8, 6), (10, 15, 15, 10), (15, 24, 27, 24, 15)],
        "beta-symmetry": all(beta(m, 1) == comb(m, 2)
                             and beta(m) == beta(m)[::-1]
                             for m in range(2, 9)),
        "beta-eta-independence": all(beta(m, etas=etas) == beta(m)
                                     for m in range(2, 7)),
        "alpha-colength": all(
            alpha(m) == colength([monomial_poly(c) for c in j_m(m)])
            == comb(m + 2, 4) for m in range(2, 9)),
        "alpha-closed-form": all((printed_alpha_closed_form(m) != alpha(m))
                                 == (m >= 4) for m in range(2, 9)),
        "vdm-chain": all(check_chain(m, i) in (-1, 1)
                         for m in range(2, 6) for i in range(1, m)),
        "vdm-syzygy-lower": all(check_syzygy(m, i, j, "lower") in (-1, 1)
                                for m in range(2, 5)
                                for i in range(1, m) for j in range(m)),
        "vdm-syzygy-raise": all(check_syzygy(m, i, j, "raise") in (-1, 1)
                                for m in range(2, 5)
                                for i in range(2, m + 1) for j in range(m)),
        "ord-nonnegative": all(min(t.values()) >= 0 for t in ords.values()),
        "ord-zero-set": all(
            {s for s in range(m + 1) if table[(j, s)] == 0}
            == {s for s in (m - j, m - j + 1) if 0 <= s <= m}
            for m, table in ords.items() for j in range(1, m + 1)),
        "ord-quadratic": all(printed_ord_formula(k, 1)
                             == 2 * ((k - 1) * k // 2) for k in range(1, 5)),
        "eta-exponent-near": all(value == derived_eta_exponent(m, i, j)
                                 for (m, i, j), value in eta.items()
                                 if abs(i - j) <= 1),
        "eta-exponent-far": len(far) == 8
        and all(abs(i - j) >= 2 for _, i, j in far),
        "closure-weights": all(
            integrate_word([("gamma", m), ("gamma", m), _SMALLDIAG], m)
            == CharacterPolynomial({("sigma",): -sum(beta(m)),
                                    ("omega2",): comb(m, 2) ** 2})
            for m in (2, 3)),
        "grassmann-degrees": grassmann_integral((2, 2), [("row", 1)] * 4) == 2
        and all(grassmann_integral((2, 4), [("row", 4 - j) for j in t]) == 1
                for t in NSEC3_TUPLES),
        "nsec3-tuple-list": len(terms) == 10 and terms[(3, 0, 1)][1].is_zero()
        and not terms[(2, 0, 2)][1].is_zero(),
        "nsec3-assembly": _nsec3_sum(terms).render() == (
            "3*L2*dL^2 + 6*dL*sigma - 12*dL*omegaL - 3*dL*omega2 - 3*L2*g2"
            " - 27*L2*dL - 12*sigma + 72*omegaL + 28*omega2 + 60*L2"),
    }


def run_checks() -> list:
    """(id, status, detail) per row by id; FAIL where a check fails."""
    loops = loop_checks()
    results = []
    for cid, status, detail, cases in CHECKS:
        ok = (all(_render(m, given) == want for m, given, want in cases)
              if cases else loops[cid])
        results.append((cid, status if ok else "FAIL", detail))
    return sorted(results)
