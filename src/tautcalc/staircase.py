"""Punctual monomial ideals, their colengths, and blowup weights.

The family of ideals studied here is generated by the staircase
x^C(m-i+1,2) * y^C(i,2), i = 1..m, with C(n,2) the triangular numbers.
The weight beta(m, j) is the colength of that ideal plus one generic
binomial y^j + eta*x^(m-j); these weights drive the node-scroll terms
of the intersection calculus.  Colengths are computed exactly by a
bivariate Buchberger loop in degrevlex order with x > y.

Coefficients are int first: integer input stays int, an integral eta
goes in as an int, and every division goes through `_quotient`, which
returns an int when the quotient is exact and a Fraction otherwise.
Only the number types depend on this; every basis, remainder and
colength has the same value as in all-Fraction arithmetic.

Inside a shared-work scope (`tautcalc.shares_work`) each colength behind
a beta weight is computed once per (m, j, eta); with none open, every
call computes afresh.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import count
from math import comb

from . import shared_table

Mono = tuple[int, int]
Coeff = int | Fraction
Poly = dict[Mono, Coeff]


class GenericityError(RuntimeError):
    """Colength depends on the binomial coefficient eta, so no generic
    value can be reported."""


class InfiniteColengthError(ValueError):
    """The quotient by the ideal is not finite dimensional."""


# -- staircases -------------------------------------------------------


def minimalize(corners) -> tuple[Mono, ...]:
    """Drop monomial generators dominated by another generator."""
    # in sorted order a corner is dominated exactly when an earlier one
    # has a y-exponent no larger than its own
    keep = []
    for a, b in sorted(set(corners)):
        if not keep or b < keep[-1][1]:
            keep.append((a, b))
    return tuple(keep)


def j_m(m: int) -> tuple[Mono, ...]:
    """Minimal generators of the basic punctual ideal at level m."""
    if m < 1:
        raise ValueError("level must be positive")
    return minimalize((comb(m - i + 1, 2), comb(i, 2)) for i in range(1, m + 1))


def alpha(m: int) -> int:
    """Colength of the basic ideal, for m >= 0.

    The rectangle decomposition gives sum(i * C(m+1-i, 2), i < m), which
    is C(m+2, 4) by Chu-Vandermonde.
    """
    return comb(m + 2, 4)


def printed_alpha_closed_form(m: int) -> int:
    # reference closed form; disagrees with alpha() from m = 4 on
    return 3 * comb(m, 4) + 3 * comb(m, 3) + m - 1


# -- exact bivariate Groebner -----------------------------------------


def _deg(mono: Mono) -> int:
    return mono[0] + mono[1]


def _term_key(mono: Mono):
    # degrevlex with x > y: higher total degree wins, ties go to the
    # monomial with the smaller y exponent
    return (_deg(mono), -mono[1])


def leading_monomial(p: Poly) -> Mono:
    return max(p, key=_term_key)


def _divides(a: Mono, b: Mono) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def _quotient(a: Coeff, b: Coeff) -> Coeff:
    """a / b for b nonzero: an int when the quotient is one, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _shift_scale(p: Poly, shift: Mono, scale: Coeff) -> Poly:
    return {(a + shift[0], b + shift[1]): c * scale for (a, b), c in p.items()}


def _add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _reduce(p: Poly, basis: list[Poly], lms: list[Mono]) -> Poly:
    # fully reduce p against the basis, whose leading monomials are lms
    remainder: Poly = {}
    work = dict(p)
    while work:
        lm = leading_monomial(work)
        lc = work[lm]
        for g, glm in zip(basis, lms):
            if _divides(glm, lm):
                if len(g) == 1:
                    del work[lm]  # a monomial multiple only cancels lm
                else:
                    shift = (lm[0] - glm[0], lm[1] - glm[1])
                    work = _add(work, _shift_scale(g, shift, _quotient(-lc, g[glm])))
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return remainder


def buchberger(gens) -> list[Poly]:
    basis = [dict(g) for g in gens if g]
    lms = [leading_monomial(g) for g in basis]
    # pairs leave by lcm degree, to keep intermediate growth down, and
    # in the order they were queued among equal degrees
    pairs: list[tuple[int, int, int, int]] = []
    order = count()

    def queue_pairs(i: int) -> None:
        a, b = lms[i]
        single = len(basis[i]) == 1
        for j in range(i):
            c, d = lms[j]
            if single and len(basis[j]) == 1:
                continue  # two monomials: the S-polynomial is 0
            if (a == 0 or c == 0) and (b == 0 or d == 0):
                continue  # coprime leading terms: it reduces to 0
            lcm_deg = (a if a > c else c) + (b if b > d else d)
            heapq.heappush(pairs, (lcm_deg, next(order), i, j))

    for i in range(len(basis)):
        queue_pairs(i)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        s = _reduce(_s_poly(basis[i], lms[i], basis[j], lms[j]), basis, lms)
        if s:
            basis.append(s)
            lms.append(leading_monomial(s))
            queue_pairs(len(basis) - 1)
    return basis


def _lcm(a: Mono, b: Mono) -> Mono:
    return (max(a[0], b[0]), max(a[1], b[1]))


def _s_poly(p: Poly, lp: Mono, q: Poly, lq: Mono) -> Poly:
    lcm = _lcm(lp, lq)
    left = _shift_scale(p, (lcm[0] - lp[0], lcm[1] - lp[1]), _quotient(1, p[lp]))
    right = _shift_scale(q, (lcm[0] - lq[0], lcm[1] - lq[1]), _quotient(1, q[lq]))
    return _add(left, {m: -c for m, c in right.items()})


def monomial_poly(mono: Mono, coeff=1) -> Poly:
    return {mono: coeff if isinstance(coeff, int) else Fraction(coeff)}


def colength(gens) -> int:
    """Dimension of the quotient by the ideal the generators span."""
    basis = buchberger(gens)
    corners = minimalize(leading_monomial(g) for g in basis)
    if not any(b == 0 for _, b in corners) or not any(a == 0 for a, _ in corners):
        raise InfiniteColengthError(f"no pure-power leading terms in {corners}")
    height = min(b for a, b in corners if a == 0)
    total = 0
    for b in range(height):
        total += min(a for a, bb in corners if bb <= b)
    return total


# -- the beta weights --------------------------------------------------


def _beta_single(m: int, j: int, eta: Fraction) -> int:
    gens = [monomial_poly(c) for c in j_m(m)]
    if eta.denominator == 1:
        eta = eta.numerator
    binom = _add(monomial_poly((0, j)), monomial_poly((m - j, 0), eta))
    return colength(gens + [binom])


def _beta_generic(m: int, j: int, etas: tuple[Fraction, ...]) -> int:
    # one colength per (m, j, eta) in the open scope, so a check that
    # adds an eta computes only the new one
    colengths = shared_table("beta")
    values = set()
    for eta in etas:
        value = colengths.get((m, j, eta))
        if value is None:
            value = colengths[m, j, eta] = _beta_single(m, j, eta)
        values.add(value)
    if len(values) != 1:
        raise GenericityError(
            f"colength at level {m}, slope {j} varies with eta: {sorted(values)}"
        )
    return values.pop()


def beta(m: int, j: int | None = None, etas=(Fraction(1), Fraction(2))):
    """Generic colength weight(s) at level m.

    With j given, returns the single weight; otherwise the full row
    (beta(m,1), ..., beta(m,m-1)).  The colength is computed at every
    eta in `etas`; any disagreement raises GenericityError since the
    weight is only meaningful for generic eta.
    """
    if m < 2:
        raise ValueError("weights start at level 2")
    etas = tuple(Fraction(e) for e in etas)
    if any(e == 0 for e in etas):
        raise ValueError("eta must be nonzero")
    if len(set(etas)) < 2:
        raise ValueError("need at least two distinct eta values")
    if j is not None:
        if not 1 <= j <= m - 1:
            raise ValueError(f"slope index {j} out of range for level {m}")
        return _beta_generic(m, j, etas)
    return tuple(_beta_generic(m, jj, etas) for jj in range(1, m))
