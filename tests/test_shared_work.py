"""Work shared within one call or one command, never across them.

A scope opened by a library entry point or by `cli.main` holds the
Gamma images, the class images, the Vandermonde generators, the beta
colengths and the climbed Gamma-word prefixes computed inside it, and
closes when that call returns.  A sum of words is finished once per
slot-class group, and equals the sum of its words finished alone.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tautcalc
from tautcalc import cli, polyoracle, staircase, tautring
from tautcalc.charpoly import CharacterPolynomial
from tautcalc.exprparse import evaluate_integral, evaluate_normal
from tautcalc.schubert import nsec3_terms
from test_golden import DATA, PT_ON_A_SIDE, cases, line, weights


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def computed(monkeypatch):
    """Count the Gamma images, generator views and G_1^2 decodings
    actually computed."""
    counts = Counter()

    def counting(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[key(*args)] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("mul_gamma_diag", "mul_gamma_node"):
        counting(tautring, name, lambda gen: ("gamma", gen))
    counting(polyoracle, "_build", lambda view, m, i: ("vdm", view, m, i))
    counting(staircase, "_beta_single",
             lambda m, j, eta: ("beta", m, j, eta))
    counting(polyoracle, "_vectors",
             lambda keys, m, width: ("decode", m))
    return counts


@pytest.mark.parametrize("argv, kind", [(["verify-paper"], "gamma"),
                                        (["verify-paper"], "vdm"),
                                        (["verify-paper"], "beta"),
                                        (["vdm-check"], "vdm"),
                                        (["nsec3"], "gamma"),
                                        (["chern", "-m", "3"], "gamma"),
                                        (["verify-paper"], "decode")])
def test_one_command_computes_each_image_once(argv, kind, computed):
    assert _run_cli(argv) == 0
    mine = {key: n for key, n in computed.items() if key[0] == kind}
    assert mine and set(mine.values()) == {1}


def test_scope_is_unset_after_every_public_call(monkeypatch):
    opened = []
    original = tautring.mul_gamma_diag

    def probe(*args):
        opened.append(tautcalc._SHARED.get() is not None)
        return original(*args)

    monkeypatch.setattr(tautring, "mul_gamma_diag", probe)
    calls = [
        lambda: evaluate_integral("Delta<3>^4", 3),
        lambda: evaluate_normal("Delta<3>^2", 3),
        lambda: tautring.integrate_word([("gamma", 2)] * 3, 2),
        lambda: tautring.expand_monomial([("gamma", 3)], 3),
        lambda: tautring.chern_taut(2),
        nsec3_terms,
        lambda: _run_cli(["integrate", "-m", "3", "Delta<3>^4"]),
        lambda: _run_cli(["integrate", "-m", "3", "Delta<3>^3"]),
    ]
    for call in calls:
        call()
        assert tautcalc._SHARED.get() is None
    with pytest.raises(tautring.DimensionError):
        tautring.integrate_word([("gamma", 2)] * 2, 2)
    assert tautcalc._SHARED.get() is None
    assert opened and all(opened)


def test_direct_calls_share_nothing(computed):
    # no scope open: each call computes afresh
    first, second = polyoracle.vdm_det(3, 2), polyoracle.vdm_det(3, 2)
    assert first == second and first is not second
    assert computed[("vdm", "terms", 3, 2)] == 2
    for _ in range(2):
        polyoracle.check_chain(3, 2)
        polyoracle.eta_valuation(3, 1, 2)
    assert computed[("vdm", "packed", 3, 2)] == 2
    assert computed[("vdm", "packed", 3, 3)] == 2
    assert computed[("vdm", "packed", 3, 1)] == 2
    assert computed[("decode", 3)] == 2
    expr = tautring.unit(2)
    tautring.mul_gamma(expr)
    tautring.mul_gamma(expr)
    assert set(n for key, n in computed.items() if key[0] == "gamma") == {2}


def test_ord_table_builds_each_generator_once_per_call(computed):
    # one scope per call: m generators, and m fresh ones on the next call
    for calls in (1, 2):
        polyoracle.ord_table(4)
        vdm = {key: n for key, n in computed.items() if key[0] == "vdm"}
        assert vdm == {("vdm", "terms", 4, j): calls for j in range(1, 5)}


def test_commands_share_nothing(computed):
    for _ in range(2):
        assert _run_cli(["vdm-check", "-m", "3"]) == 0
    assert set(n for key, n in computed.items() if key[0] == "vdm") == {2}


def test_golden_renders_twice_in_one_scope():
    """No shared piece is mutated or handed out: a second pass over the
    golden set, reading every image from the table, renders the same."""
    want = DATA.read_text(encoding="utf-8").splitlines()

    @tautcalc.shares_work
    def both_passes():
        return [[line(*case) for case in cases()] for _ in range(2)]

    for got in both_passes():
        assert got == want


@pytest.fixture
def climbs(monkeypatch):
    """Count the Gamma-word prefixes climbed, by (levels, k): a call of
    `_up` whose key the open scope's prefix table does not hold yet."""
    counts = Counter()
    original = tautring._up

    def counting(levels, k):
        if (levels, k) not in tautcalc.shared_table("prefix"):
            counts[levels, k] += 1
        return original(levels, k)

    monkeypatch.setattr(tautring, "_up", counting)
    return counts


def test_one_nsec3_climbs_each_prefix_once(climbs):
    # the ten nsec3 integrals at level 3 climb every word of at most four
    # Gammas but Gamma<2>^4, which is past the dimension of W^2 and
    # skipped: the other 14 over levels 2 and 3 at level 3, and the 4
    # over level 2 at level 2, on the way up
    assert _run_cli(["nsec3"]) == 0
    assert set(climbs.values()) == {1}
    assert sorted(Counter(k for _levels, k in climbs).items()) == [(2, 4),
                                                                    (3, 14)]


def test_direct_integrals_share_no_prefix(climbs):
    first = evaluate_integral("Delta<3>^4", 3)
    assert evaluate_integral("Delta<3>^4", 3) == first
    assert climbs and set(climbs.values()) == {2}


def test_prefixes_are_keyed_by_levels_only():
    # the same Gamma levels under different slot classes, at two levels;
    # the level-3 classes sit on slot 3, so the Gamma<2>^3 piece is kept
    # under both
    texts = [("L(1)*Delta<2>^2", 2), ("omega(1)*Delta<2>^2", 2),
             ("L(3)*Delta<2>^2*Delta<3>", 3),
             ("omega(3)*Delta<2>^2*Delta<3>", 3)]
    alone = [evaluate_integral(text, m) for text, m in texts]

    @tautcalc.shares_work
    def together(texts):
        values = [evaluate_integral(text, m) for text, m in texts]
        return values, set(tautcalc.shared_table("prefix"))

    values, keys = together(texts)
    assert values == alone
    assert len(set(alone[:2])) == 2
    # the omega words climb only what the L words climbed
    assert keys == together(texts[::2])[1]
    assert all(isinstance(k, int) and all(isinstance(x, int) for x in levels)
               for levels, k in keys)
    assert {k for _levels, k in keys} == {2, 3}


@st.composite
def class_groups(draw):
    """A level m = 2..4, a degree and 2-4 (weight, word) summands of that
    degree, each word one of at most two class lists times Delta<k>s, so
    that several summands fall into one class group."""
    m = draw(st.integers(2, 4))
    degree = draw(st.integers(1, m + 1))
    classes = st.sampled_from([f"{key}({i})" for key in ("L", "omega", "f")
                               for i in range(1, m + 1)])
    shared = draw(st.lists(st.lists(classes, max_size=degree),
                           min_size=1, max_size=2))
    deltas = st.sampled_from([f"Delta<{k}>" for k in range(2, m + 1)])
    summands = []
    for _ in range(draw(st.integers(2, 4))):
        word = draw(st.sampled_from(shared))
        rest = degree - len(word)
        word = word + draw(st.lists(deltas, min_size=rest, max_size=rest))
        summands.append((draw(weights), "*".join(word)))
    return m, degree, summands


def _alone(evaluate, word, m):
    try:
        return evaluate(word, m)
    except ValueError as exc:
        assume(not (m == 4 and str(exc) == PT_ON_A_SIDE))
        raise


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(class_groups())
def test_summed_class_groups_equal_the_sum_of_their_words(case):
    m, degree, summands = case
    text = " + ".join(f"({c})*{word}" for c, word in summands)
    want = tautring.TautExpr(m)
    for c, word in summands:
        for gen, coeff in _alone(evaluate_normal, word, m).terms.items():
            want.add(gen, c * coeff)
    assert evaluate_normal(text, m) == want
    if degree == m + 1:
        total = sum((c * _alone(evaluate_integral, word, m)
                     for c, word in summands), CharacterPolynomial.zero())
        assert evaluate_integral(text, m) == total
