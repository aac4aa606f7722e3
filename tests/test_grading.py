"""Integrals the grading decides, checked the long way.

W^k has dimension k + 1, and Gamma<j> for j <= k and a class on a slot
<= k are pulled back from W^k.  An integral skips every seedless piece
whose factors living on some W^k, k < m, have codimension above k + 1;
each such piece must climb to exactly 0.  The projection identity
int z*Gamma<m+1> = m * int z, over W^(m+1) and W^m, is checked on every
top-degree word at levels 2 and 3.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import tautcalc
from tautcalc import tautring
from tautcalc.charpoly import CharacterPolynomial
from tautcalc.exprparse import evaluate_integral, parse, to_words
from test_golden import _text, _tokens


def _skipped_pieces() -> list:
    """Every distinct seedless piece the rule skips among the top-degree
    words at levels 2-4 over Delta<k>, L(i), omega(i) and f(i)."""
    pieces = set()
    for m in (2, 3, 4):
        for word in combinations_with_replacement(_tokens(m), m + 1):
            words = to_words(parse(_text(word), m), m)
            for levels, classes, seed, _c in tautring._merge_words(
                    words, m, True):
                if seed is None and tautring._past_a_dimension(
                        levels, classes, m):
                    pieces.add((m, levels, classes))
    return sorted(pieces)


def test_every_skipped_piece_climbs_to_zero():
    pieces = _skipped_pieces()
    assert len(pieces) == 4363

    @tautcalc.shares_work
    def climbed():
        return [tautring.integrate(tautring._with_classes(
                    tautring._up(levels, m), classes))
                for m, levels, classes in pieces]

    zero = CharacterPolynomial.zero()
    assert [piece for piece, value in zip(pieces, climbed())
            if value != zero] == []


def test_the_rule_counts_each_factor_on_its_level():
    # Gamma<2>^3 has codimension 3 = dim W^2; a class on slot 1 or 2
    # takes it past, one on slot 3 does not
    assert tautring._past_a_dimension((2, 2, 2), ((1, "L"),), 3)
    assert tautring._past_a_dimension((2, 2, 2), ((2, "omega"),), 3)
    assert not tautring._past_a_dimension((2, 2, 2), ((3, "omega"),), 3)
    # the point class counts its degree 2: pt(1) fills W^2 with one
    # Gamma<2> and is past it with two
    assert not tautring._past_a_dimension((2,), ((1, "pt"),), 3)
    assert tautring._past_a_dimension((2, 2), ((1, "pt"),), 3)
    # three classes on slot 1 are past W^1 = dimension 2
    assert tautring._past_a_dimension((), ((1, "L"), (1, "L"), (1, "f")), 2)


def test_projection_identity_on_every_top_degree_word():
    # over Gamma<k>, L(i), omega(i) and f(i): 84 words at level 2 and
    # 1001 at level 3
    counts = {}
    for m in (2, 3):
        tokens = [t.replace("Delta", "Gamma") for t in _tokens(m)]
        words = [_text(w) for w in combinations_with_replacement(tokens, m + 1)]
        counts[m] = len(words)
        mismatches = [
            text for text in words
            if evaluate_integral(f"{text}*Gamma<{m + 1}>", m + 1)
            != m * evaluate_integral(text, m)]
        assert mismatches == []
    assert counts == {2: 84, 3: 1001}
