"""Golden renders: the engine's output on a fixed word set, line by line.

`tests/data/golden_renders.txt` holds, for every case below, the
rendered integral or normal form, or the exception type and message.
It pins the rewrite core byte for byte: a change that is meant to keep
every output must leave each line as it is.  Regenerate the file with
`PYTHONPATH=src python tests/test_golden.py --write` only when a change
is meant to move outputs, and say which lines moved and why.

The set is every top-degree word and every degree-2 normal form at
levels 2 and 3 over `Delta<k>`, `L`, `omega` and `f`, plus five
level-4 words in `Delta<4>`.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautcalc import tautring
from tautcalc.charpoly import CharacterPolynomial
from tautcalc.exprparse import evaluate_integral, evaluate_normal
from test_golden_diag import diag_monomials
from test_golden_nodes import node_classes

DATA = Path(__file__).parent / "data" / "golden_renders.txt"

LEVEL4 = ("Delta<4>^5", "Delta<2>*Delta<4>^4", "Delta<3>*Delta<4>^4",
          "Delta<4>^4*L(1)", "Delta<4>^4*omega(4)")


def _tokens(m: int) -> list[str]:
    return ([f"Delta<{k}>" for k in range(2, m + 1)]
            + [f"{c}({s})" for s in range(1, m + 1) for c in ("L", "omega", "f")])


def _text(word) -> str:
    counts = Counter(word)
    return "*".join(t if counts[t] == 1 else f"{t}^{counts[t]}"
                    for t in dict.fromkeys(word))


def cases() -> list[tuple[int, str, str]]:
    out = []
    for m in (2, 3):
        for word in combinations_with_replacement(_tokens(m), m + 1):
            out.append((m, "int", _text(word)))
        for word in combinations_with_replacement(_tokens(m), 2):
            out.append((m, "nf", _text(word)))
    out += [(4, "int", text) for text in LEVEL4]
    return out


def render_case(m: int, kind: str, text: str) -> str:
    try:
        if kind == "int":
            return evaluate_integral(text, m).render()
        return tautring.render_expr(evaluate_normal(text, m))
    except (ValueError, KeyError) as exc:
        return f"!{type(exc).__name__}: {exc}"


def line(m: int, kind: str, text: str) -> str:
    return f"{m}\t{kind}\t{text}\t{render_case(m, kind, text)}"


def test_renders_match_the_golden_file():
    want = DATA.read_text(encoding="utf-8").splitlines()
    got = [line(*case) for case in cases()]
    assert len(got) == len(want) == 1184
    for g, w in zip(got, want):
        assert g == w


# -- the base-change weight ------------------------------------------------

# Pulled back along a degree-d cover of the base, sigma, omega2, omegaL,
# L2 and the classes f and pt scale by d, while dL, g2 and the side
# degrees do not; so every monomial of an integral has total degree
# 1 - (number of f and pt factors) in the scaling characters.
SCALING = {"sigma", "omega2", "omegaL", "L2"}
FIBRE_FACTOR = re.compile(r"\b(?:f|pt)\(\d+\)(?:\^(\d+))?")
POWER = re.compile(r"([A-Za-z]\w*)(?:\^(\d+))?|\d+(?:/\d+)?")


def fibre_factors(word: str) -> int:
    """The number of f(i) and pt(i) factors in a word, with powers."""
    return sum(int(k or 1) for k in FIBRE_FACTOR.findall(word))


def monomial_weights(render: str) -> list[int]:
    """The degree in the scaling characters of each monomial of a
    rendered polynomial; "0" has none."""
    if render == "0":
        return []
    weights = []
    for term in re.split(r" [+-] ", render.removeprefix("-")):
        weight = 0
        for factor in term.split("*"):
            match = POWER.fullmatch(factor)
            assert match, (render, factor)
            if match.group(1) in SCALING:
                weight += int(match.group(2) or 1)
        weights.append(weight)
    return weights


def test_monomial_weights_read_the_render():
    assert monomial_weights("0") == []
    assert monomial_weights("-2*sigma + 14*omega2") == [1, 1]
    assert monomial_weights("3*L2*dL^2 - 3*L2*g2 + 60*L2") == [1, 1, 1]
    assert monomial_weights("-g2 - 1/2*sigma^2*dL + 7") == [0, 2, 0]
    assert fibre_factors("Delta<2>*f(1)^2*L(2)*pt(3)") == 3


def test_integrals_have_the_base_change_weight():
    checked = 0
    for row in DATA.read_text(encoding="utf-8").splitlines():
        _level, kind, word, render = row.split("\t")
        if kind != "int" or render.startswith("!"):
            continue
        want = 1 - fibre_factors(word)
        assert all(w == want for w in monomial_weights(render)), row
        checked += 1
    assert checked == 1087


# the refusal documented for level 4: a pure-diagonal word with
# Delta<4>^k, k >= 2, spreads a point onto a node side
PT_ON_A_SIDE = "side block key 'pt' has degree > 1"
weights = (st.integers(-6, 6).filter(bool)
           | st.fractions(-6, 6, max_denominator=6).filter(bool))


@st.composite
def weighted_words(draw):
    """A level m = 2..4 and (weight, top-degree word) summands over
    Delta<k>, L(i), omega(i) and f(i)."""
    m = draw(st.integers(2, 4))
    word = st.lists(st.sampled_from(_tokens(m)), min_size=m + 1,
                    max_size=m + 1).map(_text)
    return m, draw(st.lists(st.tuples(weights, word), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(weighted_words())
def test_drawn_integrals_have_the_base_change_weight(case):
    m, summands = case
    want = CharacterPolynomial.zero()
    for c, word in summands:
        try:
            value = evaluate_integral(word, m)
        except ValueError as exc:
            assume(not (m == 4 and str(exc) == PT_ON_A_SIDE))
            raise
        weight = 1 - fibre_factors(word)
        assert all(w == weight for w in monomial_weights(value.render())), word
        want = want + c * value
    # a weighted sum integrates to the weighted sum of the integrals, and
    # each of its monomials has the weight of one of its words
    got = evaluate_integral(
        " + ".join(f"({c})*{word}" for c, word in summands), m)
    assert got == want
    allowed = {1 - fibre_factors(word) for _, word in summands}
    assert set(monomial_weights(got.render())) <= allowed


# -- the unchecked constructors ------------------------------------------


def _rebuild(gen):
    if isinstance(gen, tautring.DiagMonomial):
        return tautring.DiagMonomial(gen.m, gen.blocks)
    return tautring.NodeClass(gen.m, gen.I, gen.split, *gen.sides,
                              gen.gamma_power)


def test_rewrite_output_equals_its_public_rebuild(monkeypatch):
    """Every generator the golden set reaches is canonical and valid.

    Rewrite rules build generators without the public checks; each one
    must equal its rebuild through the validating constructor, with the
    same cached codimension and hash.  Besides the golden cases, the
    walk takes the Gamma image of every input of the golden diagonal and
    node files at levels 2-4, but a diagonal monomial with a pin on a
    one-slot block: the constructor takes it, though a pin joins two
    side points, and its image holds node classes with that pin on a
    side, which the node constructor refuses.
    """
    seen = {}

    def recording(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            for gen in out.terms:
                seen[id(gen)] = gen
            return out
        return wrapper

    for name in ("mul_gamma_diag", "mul_gamma_node", "mul_class",
                 "pullback", "pushforward"):
        monkeypatch.setattr(tautring, name, recording(getattr(tautring, name)))
    walks = [lambda case=case: render_case(*case) for case in cases()]
    for m in (2, 3, 4):
        walks += [lambda gen=gen: tautring.mul_gamma_diag(gen)
                  for gen in diag_monomials(m)
                  if (1, "pin") not in [(len(b), key) for b, key in gen.blocks]]
        walks += [lambda gen=gen: tautring.mul_gamma_node(gen)
                  for gen in node_classes(m)]
    reached = 0
    for walk in walks:
        try:
            walk()
        except (ValueError, KeyError):
            pass
        reached += len(seen)
        for gen in seen.values():
            rebuilt = _rebuild(gen)
            assert gen == rebuilt and rebuilt == gen, gen
            assert gen.codim() == rebuilt.codim(), gen
            assert hash(gen) == hash(rebuilt), gen
        seen.clear()
    assert reached > 10000


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(line(*case) + "\n" for case in cases()),
                    encoding="utf-8")
