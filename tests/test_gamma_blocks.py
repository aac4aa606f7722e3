"""The Gamma rewrites by block, against their slot-by-slot definitions.

`mul_gamma_diag` joins each pair of blocks once, with the slot pairs
between them as a factor.  `slot_pair_image` below is the rewrite as it
is defined, one join per pair of slots with the copies merged by
`TautExpr.add`; the two must agree term by term and in insertion order,
exceptions included (the golden file covers levels 2-4, hypothesis
draws level 5).

`mul_gamma_node` takes c2 over each unordered pair of Chern-factor
moves once, starting from the move's image it built for c1; that holds
because both orders of two moves give the same product.
`ordered_pair_image` below is the rewrite as it is defined, c2 over
every ordered pair of moves, and the two must agree term by term
(their term orders differ).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautcalc import tautring
from tautcalc.surface import GEOMETRY
from tautcalc.tautring import DiagMonomial, NodeClass, TautExpr
from test_golden_diag import KEYS
from test_golden_nodes import node_classes


def _join_slots(mono: DiagMonomial, i: int, j: int):
    """Join slots i, j of a monomial; returns (coeff, monomial) or None."""
    bi, bj = mono.block_of(i), mono.block_of(j)
    blocks = list(mono.blocks)
    if bi is None and bj is None:
        blocks.append(((i, j), "1"))
        return 1, DiagMonomial(mono.m, blocks)
    if bi is None or bj is None:
        t, s = (bi, j) if bj is None else (bj, i)
        slots, key = blocks[t]
        blocks[t] = (slots + (s,), key)
        return 1, DiagMonomial(mono.m, blocks)
    merged = tautring._merge_keys(blocks[bi][1], blocks[bj][1])
    if merged is None:
        return None
    coeff, key = merged
    joined = (blocks[bi][0] + blocks[bj][0], key)
    rest = [b for t, b in enumerate(blocks) if t not in (bi, bj)]
    return coeff, DiagMonomial(mono.m, rest + [joined])


def slot_pair_image(mono: DiagMonomial) -> TautExpr:
    """Gamma^[m] . mono, one join per slot pair not inside one block."""
    m = mono.m
    out = TautExpr(m)
    for i, j in combinations(range(1, m + 1), 2):
        bi = mono.block_of(i)
        if bi is not None and bi == mono.block_of(j):
            continue
        merged = _join_slots(mono, i, j)
        if merged is not None:
            out.add(merged[1], merged[0])
    used = {s for slots, _ in mono.blocks for s in slots}
    free = [((s,), "1") for s in range(1, m + 1) if s not in used]
    for idx, (slots, key) in enumerate(mono.blocks):
        if len(slots) < 2:
            continue
        repaired = tautring._merge_keys(key, "omega")
        if repaired is not None:
            blocks = list(mono.blocks)
            blocks[idx] = (slots, repaired[1])
            out.add(DiagMonomial(m, blocks),
                    repaired[0] * -comb(len(slots), 2))
        if key != "1":
            continue
        others = [b for t, b in enumerate(mono.blocks) if t != idx] + free
        for split in range(1, len(slots)):
            w = len(slots) * split * (len(slots) - split) // 2
            for mask in range(1 << len(others)):
                j = [b for t, b in enumerate(others) if not mask >> t & 1]
                k = [b for t, b in enumerate(others) if mask >> t & 1]
                out.add(NodeClass._new(m, slots, split, (j, k), 0), w)
    return out


def _outcome(fn):
    try:
        return list(fn().terms.items())
    except (ValueError, KeyError) as exc:
        return (type(exc), str(exc))


@st.composite
def diag_monomials(draw, m=5):
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=m, max_size=m))
    parts = {}
    for slot, label in enumerate(labels, start=1):
        parts.setdefault(label, []).append(slot)
    mono = DiagMonomial(m, [(slots, keys[label])
                            for label, slots in parts.items()])
    assume(mono.codim() <= m + 1)
    return mono


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(diag_monomials())
def test_block_joins_match_slot_pair_joins(mono):
    assert (_outcome(lambda: tautring.mul_gamma_diag(mono))
            == _outcome(lambda: slot_pair_image(mono)))


def _sections(top: int) -> list:
    return [node for m in range(2, top + 1) for node in node_classes(m)
            if node.gamma_power == 1]


def _product(node: NodeClass, mv1, mv2):
    """The c2 product of two moves on the scroll: (factor, node) or None.

    A join is applied first; a squared join is the pinned join times
    minus the side degree, any other square vanishes.
    """
    scroll = tautring._edit(node, gamma_power=0)
    if mv1 == mv2:
        if mv1[0] != "pair":
            return None
        pinned = tautring._apply_move(scroll, ("pin",) + mv1[1:])
        side_degree = GEOMETRY.side_degrees[mv1[1]]
        return None if pinned is None else (-side_degree, pinned)
    if mv2[0] == "pair":
        mv1, mv2 = mv2, mv1
    first = tautring._apply_move(scroll, mv1)
    second = None if first is None else tautring._apply_move(first, mv2)
    return None if second is None else (1, second)


def ordered_pair_image(node: NodeClass) -> TautExpr:
    """Gamma^[m] . NS: c1 over every move, c2 over every ordered pair."""
    out = TautExpr(node.m)
    factors = tautring._chern_factors(node)
    for a, b, move in factors:
        moved = tautring._apply_move(node, move)
        if moved is not None:
            out.add(moved, -(a + b))
    for a1, _b1, mv1 in factors:
        for _a2, b2, mv2 in factors:
            product = _product(node, mv1, mv2)
            if product is not None:
                out.add(product[1], a1 * b2 * product[0])
    return out


def _either_order(node, mv1, mv2):
    try:
        return _product(node, mv1, mv2)
    except ValueError as exc:
        return str(exc)


def test_two_moves_give_one_product_in_either_order():
    pairs = products = 0
    for node in _sections(4):
        factors = tautring._chern_factors(node)
        for (_, _, mv1), (_, _, mv2) in combinations(factors, 2):
            first = _either_order(node, mv1, mv2)
            assert first == _either_order(node, mv2, mv1), (node, mv1, mv2)
            pairs += 1
            products += first is not None
    assert (pairs, products) == (480, 48)


def test_one_pass_matches_ordered_pair_image():
    sections = _sections(5)
    assert len(sections) == 4990
    for node in sections:
        # TautExpr equality compares terms, not their order
        assert tautring.mul_gamma_node(node) == ordered_pair_image(node), node
