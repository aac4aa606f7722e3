"""Independent references the benchmark checks tautcalc's answers against.

Nothing here imports tautcalc.  Every reference is either a closed form
(beta weights, colengths, the small-diagonal closure, the eta quadratic,
the hook-length count), a direct computation by other means (Fraction
elimination for determinants, tableau counting for Pieri products, the
class-only integral formula), or a value printed in the paper and marked
PASS by `taut-calc verify-paper`.

Character polynomials are plain dicts {sorted tuple of names: Fraction}
so that comparisons with the program go through its `terms()` output,
never through its own arithmetic.

Run `python3 bench/refs.py` for the self-test.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

# -- character polynomials -------------------------------------------------


def poly_const(c) -> dict:
    c = Fraction(c)
    return {(): c} if c else {}


def poly_sym(name: str) -> dict:
    return {(name,): Fraction(1)}


def poly_add(*ps) -> dict:
    out: dict = {}
    for p in ps:
        for mono, c in p.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(sorted(m1 + m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def poly_scale(p: dict, c) -> dict:
    return poly_mul(p, poly_const(c))


def poly_eval(p: dict, values: dict) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        for name in mono:
            c *= values[name]
        total += c
    return total


def from_program(cp) -> dict:
    """A CharacterPolynomial's terms, as a reference polynomial."""
    return {tuple(sorted(m)): Fraction(c) for m, c in cp.terms().items() if c}


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text: str) -> dict:
    """Parse a rendered polynomial such as `3*L2*dL^2 - 12*sigma + 1/2`."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        pos = match.end()
        term = poly_const(-1 if match.group(1) == "-" else 1)
        for factor in match.group(2).strip().split("*"):
            factor = factor.strip()
            if re.fullmatch(r"\d+(/\d+)?", factor):
                term = poly_scale(term, Fraction(factor))
                continue
            name, _, power = factor.partition("^")
            if not re.fullmatch(r"[A-Za-z]\w*", name):
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            for _ in range(int(power) if power else 1):
                term = poly_mul(term, poly_sym(name))
        out = poly_add(out, term)
    return out


# -- surface pairing and the class-only integral -----------------------------

# divisor . divisor on the surface, and divisor . fibre
PAIRING = {
    ("omega", "omega"): "omega2", ("L", "omega"): "omegaL", ("L", "L"): "L2",
    ("f", "omega"): "g2", ("L", "f"): "dL", ("f", "f"): None,
}


def pair(a: str, b: str) -> dict:
    name = PAIRING[tuple(sorted((a, b)))]
    return poly_sym(name) if name else {}


def class_only_integral(m: int, slot_classes: dict) -> dict:
    """Integral over W^m of a product of slot divisors.

    slot_classes maps a slot to the list of divisor names it carries;
    the word has m + 1 divisors in all.  When one slot k carries two
    divisors and every other slot exactly one, the integral is
    (c_k . c_k') * prod_{j != k} (c_j . f); otherwise it is 0.
    """
    counts = [len(slot_classes.get(s, ())) for s in range(1, m + 1)]
    if sum(counts) != m + 1:
        raise ValueError("class-only word is not of top degree")
    if sorted(counts) != [1] * (m - 1) + [2]:
        return {}
    value = poly_const(1)
    for s in range(1, m + 1):
        cls = slot_classes[s]
        value = poly_mul(value, pair(cls[0], cls[1]) if len(cls) == 2
                         else pair(cls[0], "f"))
    return value


# -- closed forms ----------------------------------------------------------


def beta_closed(m: int, j: int) -> int:
    return m * j * (m - j) // 2


def colength_closed(m: int) -> int:
    return comb(m + 2, 4)


def closure_closed(m: int) -> dict:
    """Small-diagonal square: -sigma * sum(beta_m) + C(m,2)^2 * omega2."""
    total = sum(beta_closed(m, j) for j in range(1, m))
    return poly_add(poly_scale(poly_sym("sigma"), -total),
                    poly_scale(poly_sym("omega2"), comb(m, 2) ** 2))


def eta_quadratic(m: int, i: int, j: int) -> int:
    """(i-1)(2m-i)/2 + (j-1)(2m-j)/2, exact whenever |i-j| <= 1."""
    return ((i - 1) * (2 * m - i) + (j - 1) * (2 * m - j)) // 2


def ord_table_ok(m: int, table: dict) -> bool:
    """Arc orders are >= 0 and vanish for G_j exactly on sizes m-j, m-j+1."""
    if any(v < 0 for v in table.values()):
        return False
    for j in range(1, m + 1):
        zeros = {s for s in range(m + 1) if table[(j, s)] == 0}
        if zeros != {s for s in (m - j, m - j + 1) if 0 <= s <= m}:
            return False
    return True


# -- determinants ------------------------------------------------------------


def frac_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, n):
                    a[r][c] -= f * a[k][c]
    return det


def mixed_vandermonde(m: int, i: int, xs, ys):
    """Rows 1, x, ..., x^(m-i), y, ..., y^(i-1) at numeric points."""
    rows = [[x ** p for x in xs] for p in range(m - i + 1)]
    rows += [[y ** p for y in ys] for p in range(1, i)]
    return rows


def eval_quot(terms: dict, m: int, xs, ys, t) -> Fraction:
    """Evaluate exponent-tuple terms (x_1..x_m, y_1..y_m, t) at a point."""
    total = Fraction(0)
    for mono, c in terms.items():
        v = Fraction(c) * t ** mono[2 * m]
        for k in range(m):
            v *= xs[k] ** mono[k] * ys[k] ** mono[m + k]
        total += v
    return total


# -- Schubert calculus -------------------------------------------------------


def hook_length_count(a: int, b: int) -> int:
    """Standard tableaux of the a x b rectangle."""
    hooks = 1
    for i in range(a):
        for j in range(b):
            hooks *= (a - i - 1) + (b - j - 1) + 1
    return factorial(a * b) // hooks


@lru_cache(maxsize=None)
def _kostka(shape: tuple, content: tuple) -> int:
    # semistandard fillings: the largest entry occupies a horizontal strip
    if not content:
        return 1 if not any(shape) else 0
    last, rest = content[-1], content[:-1]
    total = 0

    def strips(i, remaining, acc):
        nonlocal total
        if i == len(shape):
            if remaining == 0:
                total += _kostka(tuple(acc), rest)
            return
        below = shape[i + 1] if i + 1 < len(shape) else 0
        for mu in range(max(below, shape[i] - remaining), shape[i] + 1):
            strips(i + 1, remaining - (shape[i] - mu), acc + [mu])

    strips(0, last, [])
    return total


def kostka_rectangle(a: int, b: int, content) -> int:
    """Semistandard tableaux of the a x b rectangle with this content.

    This is the coefficient of the full box in a product of row strips
    of these sizes in an a x b box, and of column strips in the b x a box.
    """
    if sum(content) != a * b:
        return 0
    return _kostka((b,) * a, tuple(content))


# -- values printed in the paper, all PASS lines of verify-paper ------------

PAPER_INTEGRALS = [
    (2, "L(1)^2*Delta<2>", "L2"),
    (2, "L(1)*L(2)*Delta<2>", "L2"),
    (2, "L(2)^2*Delta<2>", "L2"),
    (2, "L(1)*L(2)^2", "dL*L2"),
    (2, "Delta<2>^3", "-sigma + omega2"),
    (3, "L(1)^2*Delta<2>*Delta<3>", "2*L2"),
    (3, "L(1)*L(2)*Delta<2>*Delta<3>", "2*L2"),
    (3, "L(2)^2*Delta<2>*Delta<3>", "2*L2"),
    (3, "L(1)*L(3)*Delta<2>*Delta<3>", "2*L2"),
    (3, "L(2)*L(3)*Delta<2>*Delta<3>", "2*L2"),
    (3, "L(3)^2*Delta<2>*Delta<3>", "2*L2"),
    (3, "L(1)*L(2)*L(3)*Delta<3>", "2*dL*L2"),
    (3, "L(1)*L(3)^2*Delta<3>", "dL*L2"),
    (3, "L(2)*L(3)^2*Delta<3>", "dL*L2"),
    (3, "Delta<2>^3*Delta<3>", "-2*sigma + 2*omega2"),
    (3, "L(1)*L(3)*Delta<3>^2", "2*L2 - dL*omegaL"),
    (3, "L(2)*L(3)*Delta<3>^2", "2*L2 - dL*omegaL"),
    (3, "L(3)^2*Delta<3>^2", "2*L2"),
    (3, "L(1)*Delta<2>*Delta<3>^2", "-4*omegaL"),
    (3, "L(2)*Delta<2>*Delta<3>^2", "-4*omegaL"),
    (3, "Delta<2>^2*Delta<3>^2", "-2*sigma + 4*omega2"),
    (3, "Delta<2>*Delta<3>^3", "-6*sigma + 8*omega2"),
    (3, "Delta<3>^4", "-2*sigma + 14*omega2"),
]

PAPER_NORMAL_FORMS = [
    (2, "Gamma<2>^3", "omega2*q[{1,2}](pt) - NS(12:)"),
    (3, "Delta<3>^2", "2*q[{1,2,3}](1) - q[{1,3}](omega) - q[{2,3}](omega)"
                      " + F(13:) + F(23:)"),
]

# gamma-word squares against the small diagonal at level 3
PAPER_SMALL_DIAGONAL = [
    ((3, 3), "-6*sigma + 9*omega2"),
    ((3, 2), "-2*sigma + 3*omega2"),
    ((2, 2), "-sigma + omega2"),
]

PAPER_BETA_ROWS = {2: (1,), 3: (3, 3), 4: (6, 8, 6), 5: (10, 15, 15, 10),
                   6: (15, 24, 27, 24, 15)}


# -- self-test ---------------------------------------------------------------


def self_test() -> None:
    """Check the references on known small cases; raises AssertionError."""
    assert frac_det([[2, 1], [7, 4]]) == 1
    assert frac_det([[0, 1], [1, 0]]) == -1
    xs = [Fraction(2), Fraction(-3), Fraction(5, 7)]
    want = (xs[1] - xs[0]) * (xs[2] - xs[0]) * (xs[2] - xs[1])
    assert frac_det(mixed_vandermonde(3, 1, xs, xs)) == want
    assert hook_length_count(2, 4) == 14
    assert hook_length_count(4, 6) == 140229804
    assert kostka_rectangle(2, 2, (2, 2)) == 1
    assert kostka_rectangle(2, 2, (1, 1, 1, 1)) == 2
    assert kostka_rectangle(2, 4, (2, 3, 3)) == 1
    for a, b in ((1, 3), (2, 3), (3, 3), (2, 4)):
        assert kostka_rectangle(a, b, (1,) * (a * b)) == hook_length_count(a, b)
    for m, row in PAPER_BETA_ROWS.items():
        assert tuple(beta_closed(m, j) for j in range(1, m)) == row
    assert colength_closed(4) == 15
    assert closure_closed(3) == parse_poly("-6*sigma + 9*omega2")
    assert closure_closed(2) == parse_poly("-sigma + omega2")
    assert eta_quadratic(3, 2, 3) == 5
    assert class_only_integral(2, {1: ["L"], 2: ["L", "L"]}) == \
        parse_poly("dL*L2")
    assert class_only_integral(3, {1: ["L"], 2: ["L"], 3: ["L", "f"]}) == \
        parse_poly("dL^3")
    assert class_only_integral(3, {1: ["L", "L"], 2: ["L", "L"]}) == {}
    text = ("3*L2*dL^2 + 6*dL*sigma - 12*dL*omegaL - 3*dL*omega2 - 3*L2*g2"
            " - 27*L2*dL - 12*sigma + 72*omegaL + 28*omega2 + 60*L2")
    poly = parse_poly(text)
    assert poly[("L2", "dL", "dL")] == 3 and poly[("sigma",)] == -12
    assert parse_poly("-1/2*sigma + 7") == {("sigma",): Fraction(-1, 2),
                                             (): Fraction(7)}


if __name__ == "__main__":
    self_test()
    print("references: self-test passed")
