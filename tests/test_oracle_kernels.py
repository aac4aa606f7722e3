"""The kernels of polyoracle and staircase against reference ones.

The first part of this module keeps the reference kernels: arc
restrictions summed in Fraction arithmetic at given constants, the
quotient product that reduces every term pair through its own pass, the
Buchberger loop with every coefficient a Fraction, and the Leibniz
expansion that places one row at a time by recursion.  The tests
compare both on random draws: arc constants that collide, so that a
restriction vanishes or drops order, quotient elements with
non-integral coefficients and with exponents far past any workload,
and binomial slopes eta that are negative or not integers; and they
compare the generators and every check read off them up to level 7.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, combinations, count

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautcalc import polyoracle, staircase
from tautcalc.polyoracle import QuotPoly, vdm_det
from test_polyoracle import elementary_symmetric


# -- the Fraction kernels -------------------------------------------------


def fraction_substituted_valuation(g, m, I, consts):
    """t-order of the restriction of g, with constants {i: Fraction}."""
    by_exponent = {}
    for mono, coeff in g.terms.items():
        t_exp = mono[2 * m]
        scale = coeff
        for i in range(1, m + 1):
            xe, ye = mono[i - 1], mono[m + i - 1]
            if i in I:
                t_exp += ye
                scale *= consts[i] ** (xe - ye)
            else:
                t_exp += xe
                scale *= consts[i] ** (ye - xe)
        s = by_exponent.get(t_exp, Fraction(0)) + scale
        if s:
            by_exponent[t_exp] = s
        else:
            by_exponent.pop(t_exp, None)
    if not by_exponent:
        raise ValueError("arc restriction vanished identically")
    return min(by_exponent)


def reduce_mono(m, mono):
    mono = list(mono)
    for i in range(m):
        k = min(mono[i], mono[m + i])
        if k:
            mono[i] -= k
            mono[m + i] -= k
            mono[2 * m] += k
    return tuple(mono)


def pairwise_product(p, q):
    """Terms of p*q, each term pair reduced on its own."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            key = reduce_mono(p.m, tuple(a + b for a, b in zip(m1, m2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _term_key(mono):
    return (mono[0] + mono[1], -mono[1])


def leading_monomial(p):
    return max(p, key=_term_key)


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def _shift_scale(p, shift, scale):
    return {(a + shift[0], b + shift[1]): c * scale for (a, b), c in p.items()}


def _add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, Fraction(0)) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _reduce(p, basis, lms):
    remainder = {}
    work = dict(p)
    while work:
        lm = leading_monomial(work)
        lc = work[lm]
        for g, glm in zip(basis, lms):
            if _divides(glm, lm):
                shift = (lm[0] - glm[0], lm[1] - glm[1])
                work = _add(work, _shift_scale(g, shift, -lc / g[glm]))
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return remainder


def _lcm(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def _s_poly(p, lp, q, lq):
    lcm = _lcm(lp, lq)
    left = _shift_scale(p, (lcm[0] - lp[0], lcm[1] - lp[1]), Fraction(1) / p[lp])
    right = _shift_scale(q, (lcm[0] - lq[0], lcm[1] - lq[1]), Fraction(1) / q[lq])
    return _add(left, {m: -c for m, c in right.items()})


def fraction_buchberger(gens):
    basis = [{m: Fraction(c) for m, c in g.items()} for g in gens if g]
    lms = [leading_monomial(g) for g in basis]
    pairs = []
    order = count()

    def queue_pairs(i):
        for j in range(i):
            lmi, lmj = lms[i], lms[j]
            if len(basis[i]) == 1 and len(basis[j]) == 1:
                continue
            if min(lmi[0], lmj[0]) == 0 and min(lmi[1], lmj[1]) == 0:
                continue
            lcm = _lcm(lmi, lmj)
            heapq.heappush(pairs, (lcm[0] + lcm[1], next(order), i, j))

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


def recursive_vdm(m, i):
    """The terms of G_i, one row placed at a time over the free columns."""
    rows = [(0, p) for p in range(m - i + 1)] + [(m, p) for p in range(1, i)]
    det = {}
    mono = [0] * (2 * m + 1)

    def place(r, free, sign):
        # the column at position pos passes over pos smaller free ones
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
    return det


def quadratic_minimalize(corners):
    corners = set(corners)
    keep = []
    for a, b in sorted(corners):
        if not any((c, d) != (a, b) and c <= a and d <= b for c, d in corners):
            keep.append((a, b))
    return tuple(keep)


def fraction_colength(basis):
    corners = quadratic_minimalize(leading_monomial(g) for g in basis)
    height = min(b for a, b in corners if a == 0)
    return sum(min(a for a, bb in corners if bb <= b) for b in range(height))


# -- arc valuations ---------------------------------------------------------


@st.composite
def arc_draws(draw):
    m = draw(st.integers(2, 5))
    j = draw(st.integers(1, m))
    I = frozenset(draw(st.sets(st.integers(1, m))))
    # a narrow range makes constants collide, and with them restrictions
    # that vanish identically
    top = draw(st.sampled_from((4, 10 ** 6)))
    consts = draw(st.lists(st.integers(2, top), min_size=m, max_size=m))
    return m, j, I, consts


def _fraction_order(g, m, I, consts):
    try:
        return fraction_substituted_valuation(
            g, m, I, {i + 1: Fraction(c) for i, c in enumerate(consts)})
    except ValueError:
        return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(arc_draws())
@example((3, 1, frozenset({1, 2, 3}), [5, 5, 7]))  # vanishes: columns 1, 2 agree
@example((4, 2, frozenset({1, 2}), [9, 9, 3, 8]))
def test_exact_arc_order_is_at_most_the_order_at_any_constants(draw):
    # constants can only cancel the lowest terms, never add lower ones,
    # and pairwise distinct ones cancel none on these draws
    m, j, I, consts = draw
    sampled = _fraction_order(vdm_det(m, j), m, I, consts)
    exact = polyoracle.arc_valuation(m, j, I)
    assert sampled is None or exact <= sampled
    if len(set(consts)) == m:
        assert exact == sampled


def test_a_collision_vanishes_where_distinct_constants_do_not():
    g = vdm_det(3, 1)
    I = frozenset({1, 2, 3})
    assert _fraction_order(g, 3, I, [5, 5, 7]) is None
    assert (_fraction_order(g, 3, I, [5, 6, 7])
            == polyoracle.arc_valuation(3, 1, I) == 0)


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def quot_polys(draw, m):
    monos = st.tuples(*[st.integers(0, 3)] * (2 * m + 1))
    return QuotPoly(m, draw(st.dictionaries(monos, coefficients, max_size=6)))


# -- quotient products ------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(quot_polys(m), quot_polys(m), coefficients)))
def test_one_pass_product_matches_pairwise_reduction(args):
    p, q, c = args
    m = p.m
    product = p * q
    assert product.terms == pairwise_product(p, q)
    assert all(reduce_mono(m, k) == k and v for k, v in product.terms.items())
    assert product == q * p
    assert (p * c).terms == {k: v * c for k, v in p.terms.items() if v * c}
    assert c * p == p * c


def _exponents():
    # mostly small, so that terms collide and cancel, with some far past
    # any level the workloads reach, and around powers of two, where a
    # packed field of the wrong width would spill into its neighbour
    return st.one_of(st.integers(0, 3), st.integers(0, 2 ** 70),
                     st.integers(1, 70).map(lambda k: 2 ** k - 1),
                     st.integers(1, 70).map(lambda k: 2 ** k))


@st.composite
def wide_quot_polys(draw, m):
    monos = st.tuples(*[_exponents()] * (2 * m + 1))
    return QuotPoly(m, draw(st.dictionaries(monos, coefficients, max_size=5)))


def _slot_pair(m, x_power, y_power, coeff):
    # x_1^x_power * y_m^y_power: the fields of slots 1 and m at their
    # largest positive and negative values
    mono = [0] * (2 * m + 1)
    mono[0], mono[2 * m - 1] = x_power, y_power
    return QuotPoly(m, {tuple(mono): coeff})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(wide_quot_polys(m), wide_quot_polys(m))))
@example((_slot_pair(2, 3, 3, -1), _slot_pair(2, 4, 4, Fraction(1, 3))))
@example((_slot_pair(1, 2 ** 40 - 1, 0, 5), _slot_pair(1, 0, 2 ** 40, -2)))
@example((_slot_pair(3, 2 ** 31, 2 ** 31, Fraction(-7, 2)),
          _slot_pair(3, 2 ** 31 - 1, 2 ** 31 - 1, 2)))
def test_packed_product_matches_pairwise_reduction_at_any_exponent(args):
    p, q = args
    assert (p * q).terms == pairwise_product(p, q)


def test_product_of_generators_matches_pairwise_reduction():
    for m in (2, 3, 4):
        e = elementary_symmetric(m, m, "y")
        for i in range(1, m + 1):
            g = vdm_det(m, i)
            assert (e * g).terms == pairwise_product(e, g)
            assert (g * g).terms == pairwise_product(g, g)


# -- the generators and the checks read off them ---------------------------


def _reference(m, i):
    return QuotPoly(m, recursive_vdm(m, i))


def test_one_walk_gives_the_recursive_terms():
    for m in range(1, 8):
        for i in range(1, m + 1):
            assert vdm_det(m, i).terms == recursive_vdm(m, i)


def test_packed_view_is_the_packed_recursive_terms():
    for m in range(1, 7):
        width = polyoracle._width(2 * m)
        for i in range(1, m + 1):
            assert (polyoracle._build("packed", m, i)
                    == polyoracle._pack(_reference(m, i), width))


def _t_power(m, e):
    return QuotPoly(m, {(0,) * (2 * m) + (e,): 1})


def _product_sign(m, left, right, e):
    # left = +-t^e * right, with t^(-e) moved to the left when e < 0
    if e < 0:
        left, e = left * _t_power(m, -e), 0
    right = right * _t_power(m, e)
    if left == right:
        return 1
    assert left == -right
    return -1


def test_packed_check_signs_match_quotient_products():
    sym = elementary_symmetric
    for m in range(2, 6):
        g = {i: _reference(m, i) for i in range(1, m + 1)}
        for i in range(1, m):
            want = _product_sign(m, sym(m, m, "y") * g[i], g[i + 1], m - i)
            assert polyoracle.check_chain(m, i) == want
            for j in range(m):
                want = _product_sign(m, sym(m, m - j, "y") * g[i],
                                     sym(m, j, "x") * g[i + 1], m - j - i)
                assert polyoracle.check_syzygy(m, i, j, "lower") == want
        for i in range(2, m + 1):
            for j in range(m):
                want = _product_sign(m, sym(m, m - j, "x") * g[i],
                                     sym(m, j, "y") * g[i - 1], i - j - 1)
                assert polyoracle.check_syzygy(m, i, j, "raise") == want


def _least_t(terms, m):
    return min(mono[2 * m] for mono in terms)


def test_valuations_match_the_recursive_terms():
    for m in range(1, 6):
        slots = range(1, m + 1)
        # the valuation of e_m(y)^k * G_1^2 for k = i + j - 2
        e_y = elementary_symmetric(m, m, "y")
        value = _reference(m, 1) * _reference(m, 1)
        want = []
        for _ in range(2 * m - 1):
            want.append(_least_t(value.terms, m))
            value = e_y * value
        for i in slots:
            for j in slots:
                assert polyoracle.eta_valuation(m, i, j) == want[i + j - 2]
        for j in slots:
            terms = recursive_vdm(m, j)
            for component in chain.from_iterable(
                    combinations(slots, k) for k in range(m + 1)):
                # the t-carrying variable of each slot
                carriers = [m + s - 1 if s in component else s - 1 for s in slots]
                want = min(mono[2 * m] + sum(mono[k] for k in carriers)
                           for mono in terms)
                assert polyoracle.arc_valuation(m, j, component) == want


# -- Buchberger -------------------------------------------------------------


etas = st.one_of(
    st.integers(-40, 40).filter(bool),
    st.fractions(min_value=-40, max_value=40, max_denominator=31).filter(bool),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m - 1), etas)))
@example((5, 2, Fraction(-3, 5)))
@example((7, 3, Fraction(97, 31)))
@example((6, 4, -7))
def test_int_first_buchberger_matches_fraction(args):
    m, j, eta = args
    corners = [staircase.monomial_poly(c) for c in staircase.j_m(m)]
    binom = {(0, j): 1, (m - j, 0): eta}
    basis = staircase.buchberger(corners + [binom])
    reference = fraction_buchberger(corners + [binom])
    assert basis == reference
    assert staircase._beta_single(m, j, Fraction(eta)) == fraction_colength(reference)
    lms = [leading_monomial(g) for g in reference]
    probe = {(m, m): Fraction(1, 3), (1, m): eta, (2 * m, 0): -2}
    got = staircase._reduce(probe, basis,
                            [staircase.leading_monomial(g) for g in basis])
    assert got == _reduce(
        {k: Fraction(v) for k, v in probe.items()}, reference, lms)


def test_integral_eta_stays_int():
    corners = [staircase.monomial_poly(c) for c in staircase.j_m(5)]
    basis = staircase.buchberger(corners + [{(0, 2): 1, (3, 0): -1}])
    assert all(type(c) is int for g in basis for c in g.values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       coefficients.filter(bool), min_size=1, max_size=12))
def test_one_pass_leading_monomial_matches_the_sort_key(p):
    assert staircase.leading_monomial(p) == leading_monomial(p)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=12),
       st.integers(0, 60), st.integers(0, 60))
def test_one_pass_colength_matches_row_by_row(corners, height, width):
    # a pure power of each variable makes the colength finite
    gens = [staircase.monomial_poly(c)
            for c in corners + [(0, height), (width, 0)]]
    assert staircase.colength(gens) == fraction_colength(gens)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
def test_sweep_minimalize_matches_quadratic(corners):
    assert staircase.minimalize(corners) == quadratic_minimalize(corners)
