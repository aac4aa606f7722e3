"""Seeded operation lists for the three workloads.

A workload is a sequence of rounds.  Round r of a run with seed s is
built from `random.Random(f"<workload>/<s>/<r>")` alone, so the same
seed gives the same operations on every commit, and every round of a
workload holds the same number of operations of each kind.

An operation is an `Op`: `bind(program)` returns the zero-argument call
that is timed; `check(value, ctx)` runs afterwards, untimed.  `ctx.vals`
holds the values of the round's operations keyed by `Op.key`, and
`ctx.program` the loaded program, for checks that parse a rendered form.
An op marked `fault` exercises a known fault of the program and counts
as failed, not as wrong, when its check does not hold.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Any, Callable

import refs


@dataclass
class Op:
    kind: str
    bind: Callable[[Any], Callable[[], Any]]
    check: Callable[[Any, Any], bool]
    key: Any = None
    fault: bool = False
    words: tuple = ()  # (level, word) pairs the op evaluates, for reporting


# -- words -------------------------------------------------------------------
#
# A word is a sorted tuple of degree-1 tokens: "Delta<k>" or a slot class
# "L(i)", "omega(i)", "f(i)".  A top-degree word at level m has m + 1.

CLASSES = ("L", "omega", "f")


def tokens(m: int) -> list[str]:
    return ([f"Delta<{k}>" for k in range(2, m + 1)]
            + [f"{c}({s})" for s in range(1, m + 1) for c in CLASSES])


def _token_order(tok: str):
    if tok.startswith("Delta"):
        return (0, int(tok[6:-1]), "")
    name, slot = tok[:-1].split("(")
    return (1, int(slot), name)


def word(toks) -> tuple:
    return tuple(sorted(toks, key=_token_order))


def word_text(w: tuple) -> str:
    counts = Counter(w)
    return "*".join(t if counts[t] == 1 else f"{t}^{counts[t]}"
                    for t in dict.fromkeys(w))


def parse_word(text: str) -> tuple:
    toks = []
    for factor in text.split("*"):
        base, _, power = factor.partition("^")
        toks += [base] * (int(power) if power else 1)
    return word(toks)


def n_delta(w: tuple) -> int:
    return sum(t.startswith("Delta") for t in w)


def class_only_value(m: int, w: tuple):
    """Reference integral of a class-only word, or None if w has a Delta."""
    if n_delta(w):
        return None
    slots: dict = {}
    for t in w:
        name, slot = t[:-1].split("(")
        slots.setdefault(int(slot), []).append(name)
    return refs.class_only_integral(m, slots)


UNIVERSE = {m: [word(c) for c in combinations_with_replacement(tokens(m), m + 1)]
            for m in (2, 3)}

PAPER = {(m, parse_word(text)): refs.parse_poly(value)
         for m, text, value in refs.PAPER_INTEGRALS}

# Level-3 words whose integral carries a sigma term.  Their L(4) and
# omega(4) lifts break the projection formula (a fault of the program),
# so they sit in a fixed block of every round and the seeded draws skip
# them: the failed count then does not depend on the seed.
SIGMA_WORDS = [parse_word(t) for t in (
    "Delta<2>^3*Delta<3>", "Delta<2>^3*L(3)", "Delta<2>^3*omega(3)",
    "Delta<2>^2*Delta<3>^2", "Delta<2>*Delta<3>^3", "Delta<3>^4",
    "Delta<3>^3*L(1)", "Delta<3>^3*L(2)", "Delta<3>^3*omega(1)",
    "Delta<3>^3*omega(2)")]

# The L(3) and omega(3) lifts of Delta<2>^3 = -sigma + omega2 break the
# projection formula in the same way.  Both are among SIGMA_WORDS, so they
# sit in the fixed block too and are never drawn.
SIGMA_LIFTS = [parse_word(t) for t in ("Delta<2>^3*L(3)", "Delta<2>^3*omega(3)")]

CHARACTERS = ("sigma", "omega2", "omegaL", "L2", "dL", "g2")
LIFT_FACTOR = {"Delta": None, "L": "dL", "omega": "g2"}


# -- checks shared by session and cli ----------------------------------------


def integral_reference(m: int, w: tuple):
    """Independent value of a single word, when one exists.

    Besides the printed values and the class-only formula, a word x*c(m)
    whose one level-m factor is Delta<m>, L(m) or omega(m) gets the lift
    formula applied to the reference of x over W^(m-1).
    """
    if (m, w) in PAPER:
        return PAPER[(m, w)]
    value = class_only_value(m, w)
    if value is not None or m <= 2:
        return value
    lower = set(tokens(m - 1))
    new = [t for t in w if t not in lower]
    lifts = [lift for lift in LIFT_FACTOR if [lift_token(m - 1, lift)] == new]
    if not lifts:
        return None
    base = integral_reference(m - 1, tuple(t for t in w if t in lower))
    return None if base is None else lift_expected(m - 1, lifts[0], base)


def lift_expected(m: int, lift: str, base: dict) -> dict:
    """Value of x*lift(m+1) over W^(m+1) from the value of x over W^m."""
    if lift == "Delta":
        return refs.poly_scale(base, m)
    return refs.poly_mul(base, refs.poly_sym(LIFT_FACTOR[lift]))


def lift_token(m: int, lift: str) -> str:
    return f"Delta<{m + 1}>" if lift == "Delta" else f"{lift}({m + 1})"


def normal_form_ok(program, m: int, degree: int, nf) -> bool:
    """The rendered form parses back to the same normal form, of codim degree."""
    back = program.exprparse.evaluate_normal(program.tautring.render_expr(nf), m)
    return back == nf and (nf.is_zero() or nf.codim() == degree)


def rendered_ok(program, m: int, degree: int, text: str, source=None) -> bool:
    """A printed normal form parses to a valid one, equal to that of source."""
    nf = program.exprparse.evaluate_normal(text, m)
    if source is not None and nf != program.exprparse.evaluate_normal(source, m):
        return False
    return normal_form_ok(program, m, degree, nf)


# -- session -----------------------------------------------------------------


def _integral_op(m: int, w: tuple, kind: str, check, fault=False) -> Op:
    text = word_text(w)
    return Op(kind, lambda p: lambda: p.exprparse.evaluate_integral(text, m),
              check, key=(m, w), fault=fault, words=((m, w),))


def _single_check(m: int, w: tuple):
    ref = integral_reference(m, w)
    if ref is None:
        # no direct reference: checked through its lifts, which use it
        return lambda value, ctx: True
    return lambda value, ctx: refs.from_program(value) == ref


def _lift_op(m: int, w: tuple, lift: str, fault=False) -> Op:
    lifted = word(w + (lift_token(m, lift),))

    def check(value, ctx):
        base = refs.from_program(ctx.vals[(m, w)])
        return refs.from_program(value) == lift_expected(m, lift, base)

    op = _integral_op(m + 1, lifted, f"lift{m}-{lift}", check, fault)
    op.key = (m + 1, lifted, "lift")
    return op


def _draw_power(rng, m: int):
    """(A +- B)^k * R with its expansion into (coefficient, word) pairs."""
    k = rng.choice((2, 3) if m >= 3 else (2,))
    a, b = rng.sample(tokens(m), 2)
    sign = rng.choice((1, -1))
    rest = [rng.choice(tokens(m)) for _ in range(m + 1 - k)]
    text = f"({a} {'+' if sign > 0 else '-'} {b})^{k}"
    if rest:
        text += "*" + word_text(word(rest))
    terms = [(refs.poly_const(comb(k, i) * sign ** (k - i)),
              word([a] * i + [b] * (k - i) + rest)) for i in range(k + 1)]
    return text, terms


def _sum_check(terms, m):
    def check(value, ctx):
        want = refs.poly_add(*(refs.poly_mul(c, refs.from_program(ctx.vals[(m, w)]))
                               for c, w in terms))
        return refs.from_program(value) == want
    return check


def _expr_op(m: int, text: str, terms, kind: str) -> Op:
    return Op(kind, lambda p: lambda: p.exprparse.evaluate_integral(text, m),
              _sum_check(terms, m), words=tuple((m, w) for _, w in terms))


def _weight(rng):
    """A coefficient: a small rational, a character, or both."""
    c = Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 1, 2, 3)))
    sign = rng.choice((1, -1))
    char = rng.choice((None,) + CHARACTERS)
    poly = refs.poly_const(c)
    text = str(c)
    if char:
        poly = refs.poly_mul(poly, refs.poly_sym(char))
        text = char if c == 1 else f"{c}*{char}"
    return sign, text, refs.poly_scale(poly, sign)


def _weighted_sum(rng, m: int, pool: list) -> Op:
    picks = rng.sample(pool, rng.randint(2, 4))
    parts, terms = [], []
    for w in picks:
        sign, text, poly = _weight(rng)
        joiner = "-" if sign < 0 else "+"
        parts.append(f"{joiner} {text}*{word_text(w)}" if parts
                     else f"{'-' if sign < 0 else ''}{text}*{word_text(w)}")
        terms.append((poly, w))
    return _expr_op(m, " ".join(parts), terms, f"sum{m}")


def _base_words(rng, m: int, n: int, fixed: set, needed: list,
                quotas: dict) -> list:
    """Exactly n seeded words: the needed ones first, then stratified draws.

    Strata are by the number of Delta factors, which sets the cost of a
    word; sigma-carrying level-3 words are never drawn (see SIGMA_WORDS).
    """
    out = list(dict.fromkeys(w for w in needed if w not in fixed))
    if len(out) > n:
        raise ValueError("power expansions exceed the seeded word budget")
    left = dict(quotas)
    for w in out:
        left[n_delta(w)] = left.get(n_delta(w), 0) - 1
    pool = {d: [w for w in UNIVERSE[m] if n_delta(w) == d and w not in fixed
                and w not in SIGMA_WORDS] for d in quotas}
    for d in sorted(quotas):
        for _ in range(max(0, min(left[d], n - len(out)))):
            out.append(rng.choice(pool[d]))
    while len(out) < n:
        out.append(rng.choice(pool[1]))
    return out


def _normal_form_op(rng, m: int, degree: int) -> Op:
    w = word(rng.choice(tokens(m)) for _ in range(degree))
    text = word_text(w)
    return Op(f"nf{m}", lambda p: lambda: p.exprparse.evaluate_normal(text, m),
              lambda value, ctx: normal_form_ok(ctx.program, m, degree, value))


def _paper_nf_op(m: int, text: str, printed: str) -> Op:
    return Op("nf-paper", lambda p: lambda: p.exprparse.evaluate_normal(text, m),
              lambda value, ctx: ctx.program.tautring.render_expr(value) == printed)


def _small_diagonal_op(m: int, pair: tuple, want: dict) -> Op:
    word_ = [("gamma", pair[0]), ("gamma", pair[1]), ("smalldiag",)]
    return Op("smalldiag",
              lambda p: lambda: p.tautring.integrate_word(word_, m),
              lambda value, ctx: refs.from_program(value) == want)


FIXED_POWER = ("(L(1) - Delta<3>)^2*Delta<2>*Delta<3>", [
    (refs.poly_const(c), parse_word(t)) for c, t in (
        (1, "L(1)^2*Delta<2>*Delta<3>"), (-2, "L(1)*Delta<2>*Delta<3>^2"),
        (1, "Delta<2>*Delta<3>^3"))])


def session_round(seed: int, r: int) -> list[Op]:
    rng = random.Random(f"session/{seed}/{r}")
    ops: list[Op] = []

    # level 2: printed values, seeded words, their Delta<3> lifts, a sum
    fixed2 = [w for (m, w) in PAPER if m == 2]
    power2 = _draw_power(rng, 2)
    base2 = _base_words(rng, 2, 10, set(fixed2), [w for _, w in power2[1]],
                        {0: 4, 1: 3, 2: 3})
    for w in fixed2 + base2:
        ops.append(_integral_op(2, w, "int2", _single_check(2, w)))
    for w in base2:
        ops.append(_lift_op(2, w, "Delta"))
    ops.append(_expr_op(2, power2[0], power2[1], "power2"))
    ops.append(_weighted_sum(rng, 2, fixed2 + base2))

    # level 3: printed values and the sigma block, then seeded words
    fixed3 = list(dict.fromkeys([w for (m, w) in PAPER if m == 3] + SIGMA_WORDS))
    powers3 = [FIXED_POWER] + [_draw_power(rng, 3) for _ in range(2)]
    needed = [w for _, terms in powers3 for _, w in terms]
    base3 = _base_words(rng, 3, 36, set(fixed3), needed,
                        {0: 9, 1: 11, 2: 11, 3: 5})
    for w in fixed3 + base3:
        ops.append(_integral_op(3, w, "int3", _single_check(3, w),
                                fault=w in SIGMA_LIFTS))
    for w in fixed3 + base3:
        for lift in ("Delta", "L", "omega"):
            ops.append(_lift_op(3, w, lift,
                                fault=lift != "Delta" and w in SIGMA_WORDS))
    for text, terms in powers3:
        ops.append(_expr_op(3, text, terms, "power3"))
    for _ in range(3):
        ops.append(_weighted_sum(rng, 3, fixed3 + base3))

    # normal forms and the small-diagonal identities
    for m, text, printed in refs.PAPER_NORMAL_FORMS:
        ops.append(_paper_nf_op(m, text, printed))
    for m, degree in ((2, 2), (3, 3), (4, 3), (4, 3)):
        ops.append(_normal_form_op(rng, m, degree))
    for m in (2, 3):
        ops.append(_small_diagonal_op(m, (m, m), refs.closure_closed(m)))
    for pair, printed in refs.PAPER_SMALL_DIAGONAL[1:]:
        ops.append(_small_diagonal_op(3, pair, refs.parse_poly(printed)))
    return ops


# -- oracles -----------------------------------------------------------------


def _rational(rng, lo=1, hi=97):
    return Fraction(rng.choice((1, -1)) * rng.randint(lo, hi), rng.randint(1, 31))


def _eta_pair(rng):
    e1 = _rational(rng)
    e2 = _rational(rng)
    while e2 == e1:
        e2 = _rational(rng)
    return (e1, e2)


def _vdm_op(rng, m: int, i: int) -> Op:
    t = _rational(rng)
    xs = []
    while len(xs) < m:
        x = _rational(rng)
        if x not in xs:
            xs.append(x)
    ys = [t / x for x in xs]
    want = refs.frac_det(refs.mixed_vandermonde(m, i, xs, ys))

    def check(value, ctx):
        got = refs.eval_quot(value.terms, m, xs, ys, t)
        return want != 0 and got in (want, -want)

    return Op("vdm_det", lambda p: lambda: p.polyoracle.vdm_det(m, i), check)


def _pieri_ops(rng) -> list[Op]:
    ops = []
    for a, b in ((2, 4), (4, 6)):
        ones = [("row", 1)] * (a * b)
        ops.append(Op("pieri-hook",
                      lambda p, box=(a, b), ones=ones: lambda: p.schubert
                      .grassmann_integral(box, ones),
                      lambda value, ctx, want=refs.hook_length_count(a, b):
                      value == want))
    for a, b in ((3, 4), (4, 6)):
        content = _strip_content(rng, a, b)
        want = refs.kostka_rectangle(a, b, content)
        rows = [("row", k) for k in content]
        cols = [("column", k) for k in content]
        ops.append(Op("pieri-rows",
                      lambda p, rows=rows, box=(a, b): lambda: p.schubert
                      .grassmann_integral(box, rows),
                      lambda value, ctx, want=want: value == want))
        ops.append(Op("pieri-columns",
                      lambda p, cols=cols, box=(b, a): lambda: p.schubert
                      .grassmann_integral(box, cols),
                      lambda value, ctx, want=want: value == want))
    return ops


def _strip_content(rng, a: int, b: int) -> list:
    """Row-strip sizes, none wider than b, that fill the a x b box."""
    content, left = [], a * b
    while left:
        k = rng.randint(1, min(b, left))
        content.append(k)
        left -= k
    return content


def _near_pair(rng, m: int) -> tuple:
    i = rng.randint(1, m)
    return i, rng.choice([j for j in (i - 1, i, i + 1) if 1 <= j <= m])


def oracles_round(seed: int, r: int) -> list[Op]:
    rng = random.Random(f"oracles/{seed}/{r}")
    ops: list[Op] = []
    etas = _eta_pair(rng)
    for m in range(2, 11):
        want = tuple(refs.beta_closed(m, j) for j in range(1, m))
        ops.append(Op("beta", lambda p, m=m: lambda: p.staircase.beta(m, etas=etas),
                      lambda value, ctx, want=want: tuple(value) == want))
    for m in range(2, 13):
        ops.append(Op("colength",
                      lambda p, m=m: lambda: p.staircase.colength(
                          [p.staircase.monomial_poly(c) for c in p.staircase.j_m(m)]),
                      lambda value, ctx, m=m: value == refs.colength_closed(m)))
    for m in range(2, 6):
        for i in range(1, m + 1):
            ops.append(_vdm_op(rng, m, i))
        for i in range(1, m):
            ops.append(Op("chain", lambda p, m=m, i=i: lambda: p.polyoracle
                          .check_chain(m, i),
                          lambda value, ctx: value in (-1, 1)))
    # sizes are fixed and only the indices are drawn, so that every round
    # has the same cost profile
    for m in range(2, 6):
        for kind, lo in (("lower", 1), ("raise", 2)):
            args = (m, rng.randint(lo, lo + m - 2), rng.randrange(m), kind)
            ops.append(Op("syzygy", lambda p, a=args: lambda: p.polyoracle
                          .check_syzygy(*a),
                          lambda value, ctx: value in (-1, 1)))
    for m in (2, 3, 4):
        for _ in range(2):
            args = (m,) + _near_pair(rng, m)
            ops.append(Op("eta", lambda p, a=args: lambda: p.polyoracle
                          .eta_valuation(*a),
                          lambda value, ctx, a=args: value == refs.eta_quadratic(*a)))
    for m in (2, 3, 4):
        s = rng.randint(0, 10 ** 6)
        ops.append(Op("ord_table", lambda p, m=m, s=s: lambda: p.polyoracle
                      .ord_table(m, seed=s),
                      lambda value, ctx, m=m: refs.ord_table_ok(m, value)))
    ops += _pieri_ops(rng)
    return ops


# -- cli ---------------------------------------------------------------------


def _cli_op(argv, check, kind=None) -> Op:
    def bind(program):
        # a cold start, as every taut-calc invocation: fresh modules, and
        # none of the previous command's garbage left for the collector
        program.reload()
        gc.collect()

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = program.cli.main(list(argv))
            return code, out.getvalue()

        return call

    def full_check(value, ctx):
        code, out = value
        return code == 0 and check(out.strip().splitlines(), ctx)

    return Op(kind or f"cli-{argv[0]}", bind, full_check, key=tuple(argv))


def _poly_line(lines, want) -> bool:
    return len(lines) == 1 and refs.parse_poly(lines[0]) == want


def _chars_file(rng, path: str) -> dict:
    values = {c: _rational(rng, 0, 9) for c in CHARACTERS}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{c} = {v}\n" for c, v in values.items()))
    return values


def _ord_rows(lines, m):
    table = {}
    for line in lines[:m]:
        head, _, row = line.partition(" = ")
        j = int(head.split("=")[1])
        for size, v in enumerate(row.split()):
            table[(j, size)] = int(v)
    return table


def _class_word(rng, m: int) -> tuple:
    """A top-degree class-only word with one slot doubled, so that its
    integral (c_k.c_k')*prod(c_j.f) is not 0 unless both c_k are f."""
    k = rng.randint(1, m)
    toks = [f"{c}({k})" for c in rng.choices(CLASSES, k=2)]
    toks += [f"{rng.choice(CLASSES[:2])}({s})" for s in range(1, m + 1) if s != k]
    return word(toks)


def cli_round(seed: int, r: int, out_dir: str, nsec3_reference: dict) -> list[Op]:
    rng = random.Random(f"cli/{seed}/{r}")
    ops: list[Op] = []
    ops.append(_cli_op(["verify-paper"], lambda lines, ctx: lines[-1]
                       == "OK: all checks consistent"
                       and not any(line.startswith("FAIL") for line in lines)))
    ops.append(_cli_op(["nsec3"], lambda lines, ctx: _poly_line(lines, nsec3_reference)))
    values = _chars_file(rng, os.path.join(out_dir, f"chars-{seed}-{r}.cfg"))
    total = refs.poly_eval(nsec3_reference, values)
    ops.append(_cli_op(["nsec3", "--chars",
                        os.path.join(out_dir, f"chars-{seed}-{r}.cfg")],
                       lambda lines, ctx: lines == [str(total), f"N3 = {total / 6}"],
                       "cli-nsec3-chars"))
    for m in (12, 6):
        row = " ".join(str(refs.beta_closed(m, j)) for j in range(1, m))
        ops.append(_cli_op(["beta", str(m)],
                           lambda lines, ctx, row=row: lines == [row]))
    for name in ("alpha", "colength"):
        m = rng.randint(2, 12)
        ops.append(_cli_op([name, str(m)], lambda lines, ctx, m=m: lines[0]
                           == str(refs.colength_closed(m))))
    ops.append(_cli_op(["integrate", "-m", "3", "Delta<3>^4"],
                       lambda lines, ctx: _poly_line(lines, PAPER[(3, parse_word("Delta<3>^4"))])))
    printed = refs.PAPER_NORMAL_FORMS[1][2]
    ops.append(_cli_op(["normalize", "-m", "3", "Delta<3>^2"],
                       lambda lines, ctx: lines == [printed]))

    # a seeded class-only word at level 3, its three lifts to level 4, and
    # one at level 4.  Class-only words have a reference and cost about the
    # same whichever is drawn, so the commands near the median stay put.
    x = _class_word(rng, 3)
    base_key = ("integrate", "-m", "3", word_text(x))
    ops.append(_cli_op(list(base_key), lambda lines, ctx: _poly_line(
        lines, class_only_value(3, x)), "cli-integrate-classes"))
    for lift in ("Delta", "L", "omega"):
        lifted = word_text(word(x + (lift_token(3, lift),)))

        def lift_check(lines, ctx, lift=lift):
            base = refs.parse_poly(ctx.vals[base_key][1].strip())
            return _poly_line(lines, lift_expected(3, lift, base))

        ops.append(_cli_op(["integrate", "-m", "4", lifted], lift_check,
                           "cli-integrate-lift"))
    y = _class_word(rng, 4)
    ops.append(_cli_op(["integrate", "-m", "4", word_text(y)],
                       lambda lines, ctx: _poly_line(lines, class_only_value(4, y)),
                       "cli-integrate-classes"))
    z = word([rng.choice(tokens(4)[:3])] + rng.choices(tokens(4)[3:], k=2))
    ops.append(_cli_op(["normalize", "-m", "4", word_text(z)],
                       lambda lines, ctx: len(lines) == 1 and rendered_ok(
                           ctx.program, 4, 3, lines[0], word_text(z)),
                       "cli-normalize-seeded"))

    ops.append(_cli_op(["vdm-check"], lambda lines, ctx: len(lines) == 50
                       and all(line.endswith(" OK") for line in lines)))
    s = rng.randint(0, 10 ** 6)
    ops.append(_cli_op(["ord-table", "-m", "4", "--seed", str(s)],
                       lambda lines, ctx: refs.ord_table_ok(4, _ord_rows(lines, 4))))
    m, (i, j) = 4, _near_pair(rng, 4)
    ops.append(_cli_op(["eta", str(m), str(i), str(j)],
                       lambda lines, ctx: lines[0]
                       == f"eta_valuation = {refs.eta_quadratic(m, i, j)}"))
    ops.append(_cli_op(["chern", "-m", "3"], lambda lines, ctx: lines[0] == "c_0 = 1"
                       and all(rendered_ok(ctx.program, 3, d,
                                           line.split(" = ", 1)[1])
                               for d, line in enumerate(lines))))
    a, b = 4, 6
    content = _strip_content(rng, a, b)
    want = refs.kostka_rectangle(a, b, content)
    ops.append(_cli_op(["schubert", "--box", f"{a},{b}", "--factors",
                        ",".join(f"r{k}" for k in content)],
                       lambda lines, ctx: lines == [str(want)]))
    ops.append(_cli_op(["schubert", "--box", "2,4", "--factors", "r2,r3,r3"],
                       lambda lines, ctx: lines
                       == [str(refs.kostka_rectangle(2, 4, (2, 3, 3)))],
                       "cli-schubert-readme"))
    return ops

