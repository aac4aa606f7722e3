"""Punctual monomial ideals, their colengths, and blowup weights.

The family of ideals studied here is generated by the staircase
x^C(m-i+1,2) * y^C(i,2), i = 1..m, with C(n,2) the triangular numbers.
The weight beta(m, j) is the colength of that ideal plus one generic
binomial y^j + eta*x^(m-j); these weights drive the node-scroll terms
of the intersection calculus.  Colengths are computed exactly by a
bivariate Buchberger loop in degrevlex order with x > y.  The pair
queue leaves out the pairs whose S-polynomial is known to reduce to 0:
two monomials, which it never forms because a new monomial is paired
only with the elements that have a tail, and two coprime leading
terms.  Pairs leave the queue by the degree of their lcm, and in the
order they were queued among equal degrees.  The leading terms of an
S-pair cancel, so its S-polynomial is the two tails, shifted and scaled
into one dict, and a monomial adds no tail; a reduction step takes the
leading term out of the working dict and adds the reducer's scaled
tail in place.  The colength is the area under the staircase of the
basis's leading monomials, summed in one pass over its corners.

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


def leading_monomial(p: Poly) -> Mono:
    # degrevlex with x > y: higher total degree wins, ties go to the
    # monomial with the smaller y exponent
    best, top, low = None, -1, 0
    for mono in p:
        a, b = mono
        d = a + b
        if d > top or d == top and b < low:
            best, top, low = mono, d, b
    return best


def _quotient(a: Coeff, b: Coeff) -> Coeff:
    """a / b for b nonzero: an int when the quotient is one, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _add_tail(out: Poly, p: Poly, lp: Mono, shift: Mono, scale: Coeff) -> None:
    """out += scale * x^da y^db * (p minus its leading term lp), in place."""
    da, db = shift
    get = out.get
    for mono, c in p.items():
        if mono == lp:
            continue
        key = (mono[0] + da, mono[1] + db)
        s = get(key)
        if s is None:
            out[key] = c * scale
        else:
            s += c * scale
            if s:
                out[key] = s
            else:
                del out[key]


def _reduce(p: Poly, basis: list[Poly], lms: list[Mono]) -> Poly:
    # fully reduce p against the basis, whose leading monomials are lms:
    # the leading term leaves work, and a reducer's scaled tail comes in
    remainder: Poly = {}
    work = dict(p)
    while work:
        lm = leading_monomial(work)
        lc = work.pop(lm)
        a, b = lm
        for g, glm in zip(basis, lms):
            if glm[0] <= a and glm[1] <= b:
                if len(g) > 1:  # a monomial multiple only cancels lm
                    _add_tail(work, g, glm, (a - glm[0], b - glm[1]),
                              _quotient(-lc, g[glm]))
                break
        else:
            remainder[lm] = lc
    return remainder


def buchberger(gens) -> list[Poly]:
    basis = [dict(g) for g in gens if g]
    lms = [leading_monomial(g) for g in basis]
    # pairs leave by lcm degree, to keep intermediate growth down, and
    # in the order they were queued among equal degrees
    pairs: list[tuple[int, int, int, int]] = []
    order = count()
    tailed: list[int] = []  # the elements with more than one term

    def queue_pairs(i: int) -> None:
        a, b = lms[i]
        # two monomials have the S-polynomial 0, so a monomial pairs
        # only with the elements that have a tail
        single = len(basis[i]) == 1
        for j in tailed if single else range(i):
            c, d = lms[j]
            if (a == 0 or c == 0) and (b == 0 or d == 0):
                continue  # coprime leading terms: it reduces to 0
            lcm_deg = (a if a > c else c) + (b if b > d else d)
            heapq.heappush(pairs, (lcm_deg, next(order), i, j))
        if not single:
            tailed.append(i)

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


def _s_poly(p: Poly, lp: Mono, q: Poly, lq: Mono) -> Poly:
    # the leading terms cancel, so only the two tails are shifted and
    # scaled into one dict; a monomial has no tail
    a, b = max(lp[0], lq[0]), max(lp[1], lq[1])
    out: Poly = {}
    if len(p) > 1:
        _add_tail(out, p, lp, (a - lp[0], b - lp[1]), _quotient(1, p[lp]))
    if len(q) > 1:
        _add_tail(out, q, lq, (a - lq[0], b - lq[1]), _quotient(-1, q[lq]))
    return out


def monomial_poly(mono: Mono, coeff=1) -> Poly:
    return {mono: coeff if isinstance(coeff, int) else Fraction(coeff)}


def colength(gens) -> int:
    """Dimension of the quotient by the ideal the generators span."""
    basis = buchberger(gens)
    corners = minimalize(leading_monomial(g) for g in basis)
    if not any(b == 0 for _, b in corners) or not any(a == 0 for a, _ in corners):
        raise InfiniteColengthError(f"no pure-power leading terms in {corners}")
    # sorted, the corners rise in x and fall in y from (0, height) to
    # (width, 0); the rows from one corner's y down to the next one's
    # are as long as the next corner's x
    return sum(a * (prev - b) for (_, prev), (a, b) in zip(corners, corners[1:]))


# -- the beta weights --------------------------------------------------


def _beta_single(m: int, j: int, eta: Fraction) -> int:
    gens = [monomial_poly(c) for c in j_m(m)]
    if eta.denominator == 1:
        eta = eta.numerator
    binom = {(0, j): 1, (m - j, 0): eta}
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
