"""Intersection calculus on the tower of modified fibre powers W^m.

W^m is the m-fold relative product of a nodal-fibre family, modified so
that the pairwise-diagonal correction divisor Gamma^[m] makes sense on
every level; dim W^m = m + 1.  The working basis has two kinds of
generators:

* diagonal monomials q_{(I.)}[(c.)]: a partition of a subset of the
  slots into blocks, each block decorated by a surface class named by
  its key ("L", "pt", ...; see `_KEY_DEGREE`).  A slot class c^(i) of a
  word is that key on slot i;
* node classes: scrolls F^(I1|I2: J|K)[(c.)] supported over the nodes
  of degenerate fibres, and their sections NS = -Gamma.F.

Coefficients are numbers until a character enters them: the weights,
signs and binomials of the rewrites are plain ints (a Fraction only
from the small diagonal or a typed fraction), and a CharacterPolynomial
(see charpoly) appears only where the surface contributes a character:
a pairing, a side degree, the node count or a fibre degree.  Integrals
are always CharacterPolynomials.  Every rewrite is
grading-checked: multiplying by Gamma adds one to the codimension,
multiplying by a degree-d surface class adds d.

Generators are validated once: the public constructors
`DiagMonomial(...)` and `NodeClass(...)` check their input, while the
rewrite rules build their output with `_new`, which restores the
canonical order and checks the side degrees (a rewrite can break
those) but skips the range, duplicate, split and coverage checks that
rewrites keep by construction.  Codimension and hash are computed once,
when a generator is built.

Both Gamma rewrites work block by block, a free slot counting as a
unit singleton block.  Gamma.q joins each pair of blocks once.  Gamma.NS
uses the self-intersection relation on a scroll.  Its bundle has two
line-bundle factors a and b, so c1 = a + b and c2 = a.b are both read
off one list of moves, one per side block, each carrying its
coefficient in a and in b.  Those coefficients distinguish the top
slot m of the level from the other slots (the tower is built by
adjoining one slot at a time, and the last slot carries one extra
twist); the uniform table one might guess instead fails every
cross-check of the integral battery.  Gamma.NS is one pass over the
moves: each move's image on the section is built once, as its c1 term,
and is the first step of every c2 product that starts with it, a join
first.  Two moves give the same product in either order, so c2 takes
each unordered pair of moves once.

A render sorts its terms by generator; the bare symbol F(13:) of a
complete unit filling sorts at the filling with every free slot on J.

Work is shared within one call or one command, never across them.  The
word evaluators behind `integrate_word` and `expand_monomial`, and
`chern_taut`, open a scope when none is open (`tautcalc.shares_work`);
`taut-calc` opens one around each command.  While it is open, `mul_gamma`
looks up a generator's Gamma image, the class pass a generator's image
under a slot class, and the up pass a sorted Gamma word times 1 at a
level (the prefix table, keyed by Gamma levels and level; each entry is
built from its longest prefix), before computing it.  The scope closes
with the call that opened it; with none open every function computes
afresh.

A sum of words expands into Gamma pieces.  The seedless pieces are
summed by their slot classes before they are finished, so each class
group is multiplied by its classes once and integrated (or added to
the normal form) once, on terms that have already cancelled.  A seeded
piece is finished on its own, its Gammas below the seed's level applied
on the way down.

An integral skips, before any climb, every seedless piece that is
pulled back past a dimension.  Gamma^[j] for j <= k and a class on a
slot <= k are pulled back from W^k, of dimension k + 1; when, for some
k < m, those factors of a piece have codimension above k + 1, their
product is the pullback of a class of W^k past its dimension, which is
zero, so the piece integrates to 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from . import shared_table, shares_work
from .charpoly import CharacterPolynomial, as_coefficient
from .surface import GEOMETRY

__all__ = [
    "DiagMonomial",
    "NodeClass",
    "TautExpr",
    "DimensionError",
    "UnsupportedProductError",
    "mul_gamma_diag",
    "mul_gamma_node",
    "mul_gamma",
    "mul_class",
    "pullback",
    "pushforward",
    "integrate",
    "expand_monomial",
    "integrate_word",
    "chern_taut",
    "unit",
]


class DimensionError(ValueError):
    """Raised when an expression violates the grading."""


class UnsupportedProductError(ValueError):
    """Raised for products the rewriting system does not cover."""


# block decorations: "1" is the unit, "pt" the point class of the
# surface, "pin" a point pinned on one side of a node (fibre factor 1),
# anything else a divisor
_KEY_DEGREE = {"1": 0, "pt": 2, "pin": 1}


def _key_degree(key: str) -> int:
    return _KEY_DEGREE.get(key, 1)


def _merge_keys(a: str, b: str):
    """Product of two block decorations.

    Returns (character coefficient, key) or None when the product
    vanishes (degree above 2, or an unpaired divisor square).
    """
    if a == "1":
        return 1, b
    if b == "1":
        return 1, a
    if _key_degree(a) + _key_degree(b) > 2:
        return None
    if a == "pin" or b == "pin":
        return None
    return GEOMETRY.pair(a, b), "pt"


def _render_blocks(blocks) -> str:
    slot_parts = []
    class_parts = []
    for slots, key in blocks:
        slot_parts.append("{" + ",".join(str(s) for s in slots) + "}")
        class_parts.append(key)
    return "q[%s](%s)" % (",".join(slot_parts), ", ".join(class_parts))


def _least_slot(block):
    return block[0][0]


class DiagMonomial:
    """Partial-diagonal monomial q_{(I.)}[(c.)].

    blocks: tuple of (slots, key) with pairwise-disjoint sorted slot
    tuples, sorted by least slot.  Slots not covered by a block are
    free unit points.  Unit singleton blocks are dropped on
    normalization, so the empty tuple is the fundamental class.
    """

    __slots__ = ("m", "blocks", "_codim", "_hash")

    def __init__(self, m: int, blocks=()):
        cleaned = []
        seen = set()
        for slots, key in blocks:
            slots = tuple(sorted(slots))
            if not slots:
                continue
            for s in slots:
                if s < 1 or s > m:
                    raise ValueError(f"slot {s} outside level {m}")
                if s in seen:
                    raise ValueError(f"slot {s} used twice")
                seen.add(s)
            if len(slots) == 1 and key == "1":
                continue
            cleaned.append((slots, key))
        self._fill(m, cleaned)

    @classmethod
    def _new(cls, m: int, blocks) -> "DiagMonomial":
        """Rewrite output: blocks of sorted slots, disjoint and in range.

        The rewrite rules keep these by construction, so only the
        canonical form is restored: unit singletons go, blocks are
        ordered by least slot.
        """
        mono = object.__new__(cls)
        mono._fill(m, [b for b in blocks if b[1] != "1" or len(b[0]) > 1])
        return mono

    def _fill(self, m: int, blocks: list):
        blocks.sort(key=_least_slot)
        blocks = tuple(blocks)
        self.m = m
        self.blocks = blocks
        self._codim = sum(len(s) - 1 + _key_degree(k) for s, k in blocks)
        self._hash = hash(("diag", m, blocks))

    def codim(self) -> int:
        return self._codim

    def block_of(self, slot: int):
        for idx, (slots, _) in enumerate(self.blocks):
            if slot in slots:
                return idx
        return None

    def _with_key(self, idx: int, key: str) -> "DiagMonomial":
        """Rewrite output: block idx decorated by key instead."""
        blocks = list(self.blocks)
        blocks[idx] = (blocks[idx][0], key)
        return DiagMonomial._new(self.m, blocks)

    def __eq__(self, other):
        return (isinstance(other, DiagMonomial)
                and self.m == other.m and self.blocks == other.blocks)

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        if not self.blocks:
            return "1"
        return _render_blocks(self.blocks)

    def __repr__(self):
        return f"DiagMonomial(m={self.m}, {self.render()})"


def _side(blocks) -> tuple:
    # side blocks carry keys of degree <= 1; rewrites can break this
    # (a point spread onto a node side), so it is checked on every build
    for _slots, key in blocks:
        if _key_degree(key) > 1:
            raise ValueError(f"side block key {key!r} has degree > 1")
    return tuple(sorted(blocks, key=_least_slot))


class NodeClass:
    """Generalized node scroll (gamma_power 0) or section (1).

    I is the set of slots colliding at the node, split = |I1| the
    number of them approaching along the first branch (I1 is read as
    the initial segment of I; only the size is intrinsic).  sides =
    (J, K) lists the blocks sitting on the two side components, each
    decorated by a key of degree <= 1; a side is named by its index,
    0 for J and 1 for K.  The profile must cover [1, m].
    """

    __slots__ = ("m", "I", "split", "sides", "gamma_power",
                 "_key", "_codim", "_hash")

    def __init__(self, m, I, split, jblocks=(), kblocks=(), gamma_power=0):
        I = tuple(sorted(I))
        if not 1 <= split <= len(I) - 1:
            raise ValueError(f"split {split} invalid for |I| = {len(I)}")
        if gamma_power not in (0, 1):
            raise ValueError("gamma_power is 0 or 1")
        sides = tuple(_side([(tuple(sorted(s)), k) for s, k in blocks])
                      for blocks in (jblocks, kblocks))
        both = sides[0] + sides[1]
        covered = set()
        # I counts like one more block, so a repeated colliding slot is
        # refused as well
        for slots, _ in ((I, "1"),) + both:
            for s in slots:
                if s in covered:
                    raise ValueError(f"slot {s} used twice in node profile")
                covered.add(s)
        if covered != set(range(1, m + 1)):
            raise ValueError("node profile must cover every slot")
        for slots, key in both:
            # no rewrite puts a pin on a single slot
            if key == "pin" and len(slots) == 1:
                raise ValueError(f"pin on the one-slot side block"
                                 f" {{{slots[0]}}}: a pin joins two side"
                                 " points")
        self._fill(m, I, split, sides, gamma_power)

    @classmethod
    def _new(cls, m, I, split, sides, gamma_power) -> "NodeClass":
        """Rewrite output: a valid split and a disjoint, covering profile.

        The rewrite rules keep these by construction, so only the
        canonical form is restored (I sorted, side blocks of sorted
        slots ordered by least slot) and the side degrees checked.
        """
        node = object.__new__(cls)
        node._fill(m, tuple(sorted(I)), split,
                   (_side(sides[0]), _side(sides[1])), gamma_power)
        return node

    def _fill(self, m, I, split, sides, gamma_power):
        self.m = m
        self.I = I
        self.split = split
        self.sides = sides
        self.gamma_power = gamma_power
        both = sides[0] + sides[1]
        degs = sum(_key_degree(k) for _, k in both)
        dim = len(both) + 1 - gamma_power - degs
        self._codim = m + 1 - dim
        self._key = (m, I, split) + sides + (gamma_power,)
        self._hash = hash(("node",) + self._key)

    def codim(self) -> int:
        return self._codim

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, NodeClass) and self._key == other._key

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        name = "NS" if self.gamma_power else "F"
        i1 = "".join(str(s) for s in self.I[:self.split])
        i2 = "".join(str(s) for s in self.I[self.split:])

        def side(blocks):
            parts = []
            for slots, key in blocks:
                body = "{" + ",".join(str(s) for s in slots) + "}"
                if key != "1":
                    body += f"({key})"
                parts.append(body)
            return ",".join(parts)

        return f"{name}({i1}|{i2}:" + "|".join(map(side, self.sides)) + ")"

    def __repr__(self):
        return f"NodeClass({self.render()}, m={self.m})"


def _sort_key(gen):
    if isinstance(gen, DiagMonomial):
        return (0, gen.blocks)
    return (1, gen.gamma_power, gen.key()[1:])


class TautExpr:
    """Finite combination of generators with character coefficients.

    All generators share one level and one codimension; generators of
    codimension above m+1 are silently dropped (they are zero on W^m).
    A coefficient is held in the form of `charpoly.as_coefficient`: a
    number (an int when integral) until a character enters it, then a
    non-constant CharacterPolynomial.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        self.terms = {}
        if terms:
            for gen, coeff in terms.items():
                self.add(gen, coeff)

    def add(self, gen, coeff):
        if not coeff:
            return
        if gen.m != self.m:
            raise ValueError("level mismatch")
        if gen._codim > self.m + 1:
            return
        cur = self.terms.get(gen)
        if cur is not None:
            coeff = cur + coeff
        if type(coeff) is not int:
            coeff = as_coefficient(coeff)
        if coeff:
            self.terms[gen] = coeff
        elif cur is not None:
            del self.terms[gen]

    def is_zero(self) -> bool:
        return not self.terms

    def codim(self):
        codims = {gen.codim() for gen in self.terms}
        if len(codims) > 1:
            raise DimensionError(f"mixed codimensions {sorted(codims)}")
        return codims.pop() if codims else None

    def __eq__(self, other):
        return (isinstance(other, TautExpr) and self.m == other.m
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __repr__(self):
        return f"TautExpr(m={self.m}, {render_expr(self)})"


def unit(m: int) -> TautExpr:
    return TautExpr(m, {DiagMonomial(m): 1})


# -- Gamma on diagonal monomials ---------------------------------------


def mul_gamma_diag(mono: DiagMonomial) -> TautExpr:
    """Gamma^[m] . q_{(I.)}[(c.)], block by block.

    A free slot counts as a unit singleton block.  Three families: joins
    of two blocks P, Q, once per block pair with the |P|.|Q| slot pairs
    between them as a factor of the key product's coefficient; node
    scrolls for every unit block of size >= 2 (beta-weighted splits,
    the other blocks, then the free slots, distributed over the two
    branches); and the within-block correction -binom(|B|,2) omega.
    """
    m = mono.m
    out = TautExpr(m)

    used = {s for slots, _ in mono.blocks for s in slots}
    free = [((s,), "1") for s in range(1, m + 1) if s not in used]
    # in least-slot order the joins keep the term order of the slot-pair
    # definition, which meets each block pair first at its least slots
    blocks = sorted(mono.blocks + tuple(free), key=_least_slot)
    for p, q in combinations(blocks, 2):
        merged = _merge_keys(p[1], q[1])
        if merged is None:
            continue
        coeff, key = merged
        rest = [b for b in blocks if b is not p and b is not q]
        rest.append((tuple(sorted(p[0] + q[0])), key))
        out.add(DiagMonomial._new(m, rest), coeff * len(p[0]) * len(q[0]))

    for idx, block in enumerate(mono.blocks):
        slots, key = block
        size = len(slots)
        if size < 2:
            continue
        # omega correction; the sign is forced by the integral battery
        repaired = _merge_keys(key, "omega")
        if repaired is not None:
            coeff, new_key = repaired
            out.add(mono._with_key(idx, new_key), coeff * -comb(size, 2))
        if key != "1":
            continue
        assignments = _distributions(
            [b for b in mono.blocks if b is not block] + free)
        for split_j in range(1, size):
            # the staircase weight beta(size, split_j), in closed form
            w = size * split_j * (size - split_j) // 2
            for sides in assignments:
                out.add(NodeClass._new(m, slots, split_j, sides, 0), w)
    return out


def _distributions(blocks):
    """Every (J, K) laying of the blocks: bit t of mask is block t's side."""
    return [tuple(tuple(b for t, b in enumerate(blocks)
                        if (mask >> t & 1) == side) for side in (0, 1))
            for mask in range(1 << len(blocks))]


# -- node profile edits -------------------------------------------------


def _unit_fillings(m: int, I, gamma_power: int) -> list:
    """Every node class on I with the other slots as unit singletons.

    Split 1, the other slots laid on the sides in every way.  Built
    with the validating constructor, because the parser's short form
    `F(13:)` hands its colliding slots straight in.
    """
    others = [((s,), "1") for s in range(1, m + 1) if s not in I]
    return [NodeClass(m, I, 1, *sides, gamma_power)
            for sides in _distributions(others)]


def _edit(node: NodeClass, side=None, blocks=(), m=None, I=None,
          split=None, gamma_power=None) -> NodeClass:
    """Rewrite output: node with one side replaced, the rest kept.

    blocks replace sides[side] (0 for J, 1 for K) when a side is
    given; m, I, split and gamma_power change only where given.
    """
    sides = list(node.sides)
    if side is not None:
        sides[side] = blocks
    return NodeClass._new(node.m if m is None else m,
                          node.I if I is None else I,
                          node.split if split is None else split,
                          sides,
                          node.gamma_power if gamma_power is None
                          else gamma_power)


def _find_block(side, slots):
    """Index of the side block holding all of slots, or None."""
    for idx, (s, _k) in enumerate(side):
        if set(slots) <= set(s):
            return idx
    return None


# -- slot classes -------------------------------------------------------


def mul_class(gen, slot: int, key: str) -> TautExpr:
    """Multiply the slot class key^(slot) into a generator."""
    out = TautExpr(gen.m)
    if isinstance(gen, DiagMonomial):
        idx = gen.block_of(slot)
        if idx is None:
            # the slot comes from the caller: check it like the
            # public constructor would
            if not 1 <= slot <= gen.m:
                raise ValueError(f"slot {slot} outside level {gen.m}")
            blocks = list(gen.blocks)
            blocks.append(((slot,), key))
            out.add(DiagMonomial._new(gen.m, blocks), 1)
            return out
        merged = _merge_keys(gen.blocks[idx][1], key)
        if merged is not None:
            extra, new_key = merged
            out.add(gen._with_key(idx, new_key), extra)
        return out
    # node generator: positive-degree classes die on the node slots
    if slot in gen.I or _key_degree(key) > 1:
        return out
    for side, blocks in enumerate(gen.sides):
        t = _find_block(blocks, (slot,))
        if t is not None:
            break
    else:
        raise ValueError(f"slot {slot} missing from node profile")
    slots, cur = blocks[t]
    if cur == "1":
        blocks = list(blocks)
        blocks[t] = (slots, key)
        out.add(_edit(gen, side, blocks), 1)
    return out


# -- Gamma on node classes ----------------------------------------------


def _chern_factors(node: NodeClass) -> list:
    """The two line-bundle divisors a, b of the scroll bundle, block by block.

    Returns (a, b, move) triples, a and b the move's coefficients in
    the two factors, so c1 = a + b and c2 = a.b are read off one list.
    A move names its side by index and its blocks by their slots:
    ("move", side, slots) slides a block B into the node, its exponents
    summed over the block's points, -(|B|.e + [m in B]) and
    -(|B|.(e+1) + [m in B]) with e = split - 1 on J and
    e = |I| - split - 1 on K, the larger one first on K;
    ("pair", side, sa, sb) joins two blocks; ("omega", side, slots),
    with weight binom(|B|, 2), stands for the pairs within one block.
    """
    terms = []
    for side, e in enumerate((node.split - 1, len(node.I) - node.split - 1)):
        blocks = node.sides[side]
        for slots, _key in blocks:
            # the top slot adds one to both exponents
            top = node.m in slots
            low, high = len(slots) * e + top, len(slots) * (e + 1) + top
            if side:
                low, high = high, low
            terms.append((-low, -high, ("move", side, slots)))
        for (sa, _ka), (sb, _kb) in combinations(blocks, 2):
            terms.append((-1, -1, ("pair", side, sa, sb)))
        for slots, _key in blocks:
            if len(slots) >= 2:
                w = -comb(len(slots), 2)
                terms.append((w, w, ("omega", side, slots)))
    return terms


def _apply_move(node: NodeClass, move, gamma_power=None):
    """The node after one move (or a "pin" join); None if it vanishes.

    A move's blocks are found by their slots, also after an earlier move
    joined them into a larger block; a block that went into the node is
    gone, and the move with it.  A join keeps the key of a decorated
    block if only one is; every other move needs unit blocks.  The
    result has the node's gamma power unless one is given.
    """
    kind, side = move[:2]
    blocks = node.sides[side]
    found = [_find_block(blocks, slots) for slots in move[2:]]
    if None in found:
        return None
    keys = [blocks[t][1] for t in found if blocks[t][1] != "1"]
    if len(keys) > (kind == "pair"):
        return None
    slots = tuple(sorted(s for t in found for s in blocks[t][0]))
    rest = [b for t, b in enumerate(blocks) if t not in found]
    if kind == "move":
        # a J block approaches along the first branch
        split = node.split + (0 if side else len(slots))
        return _edit(node, side, rest, I=node.I + slots, split=split,
                     gamma_power=gamma_power)
    key = keys[0] if keys else ("1" if kind == "pair" else kind)
    return _edit(node, side, rest + [(slots, key)], gamma_power=gamma_power)


def mul_gamma_node(node: NodeClass) -> TautExpr:
    """Gamma^[m] . (node class)."""
    out = TautExpr(node.m)
    if node.gamma_power == 0:
        out.add(_edit(node, gamma_power=1), -1)
        return out
    # Gamma^2 . F = Gamma.(c1 F-classes) + c2 F-classes, with c1 = a + b
    # and c2 = a.b for the two factors; the first term turns each
    # scroll into minus its section
    factors = _chern_factors(node)
    moved = [_apply_move(node, move) for _, _, move in factors]
    for (a, b, _move), gen in zip(factors, moved):
        if gen is not None:
            out.add(gen, -(a + b))
    # c2 once per unordered pair, from the image of the join if there is
    # one, so a block it joined slides into the node with its partner
    for i, (a1, b1, mv1) in enumerate(factors):
        # a squared join contributes minus the side omega-degree; any
        # other node-section class squares to zero on the base
        if mv1[0] == "pair":
            pinned = _apply_move(node, ("pin",) + mv1[1:], gamma_power=0)
            if pinned is not None:
                out.add(pinned, a1 * b1 * -GEOMETRY.side_degrees[mv1[1]])
        for j in range(i + 1, len(factors)):
            a2, b2, mv2 = factors[j]
            first, second = (j, mv1) if mv2[0] == "pair" else (i, mv2)
            if moved[first] is not None:
                gen = _apply_move(moved[first], second, gamma_power=0)
                if gen is not None:
                    out.add(gen, a1 * b2 + a2 * b1)
    return out


def mul_gamma(expr: TautExpr) -> TautExpr:
    images = shared_table("gamma")
    out = TautExpr(expr.m)
    for gen, coeff in expr.terms.items():
        piece = images.get(gen)
        if piece is None:
            if isinstance(gen, DiagMonomial):
                piece = mul_gamma_diag(gen)
            else:
                piece = mul_gamma_node(gen)
            images[gen] = piece
        _add_scaled(out, piece, coeff)
    return out


def _add_scaled(out: TautExpr, piece: TautExpr, coeff) -> None:
    """Add coeff times piece into out."""
    for gen, c in piece.terms.items():
        out.add(gen, coeff * c)


# -- level maps ---------------------------------------------------------


def pullback(expr: TautExpr) -> TautExpr:
    """Pull back along W^(m+1) -> W^m (forget the new last slot)."""
    m = expr.m + 1
    out = TautExpr(m)
    for gen, coeff in expr.terms.items():
        if isinstance(gen, DiagMonomial):
            out.add(DiagMonomial._new(m, list(gen.blocks)), coeff)
            continue
        # every class gets the completions with the new slot as a unit
        # point on each side; sections also get polarization corrections
        for side, blocks in enumerate(gen.sides):
            out.add(_edit(gen, side, blocks + (((m,), "1"),), m=m), coeff)
        if gen.gamma_power == 0:
            continue
        # the new point can also run into the node along either branch
        split = gen.split
        branch_pins = [(split + 1, split + 1),
                       (split, len(gen.I) - split + 1)]
        for new_split, weight in branch_pins:
            out.add(_edit(gen, m=m, I=gen.I + (m,), split=new_split,
                          gamma_power=0), coeff * weight)
        for side, blocks in enumerate(gen.sides):
            for idx, (slots, key) in enumerate(blocks):
                grown = list(blocks)
                grown[idx] = (tuple(sorted(slots + (m,))), key)
                out.add(_edit(gen, side, grown, m=m, gamma_power=0), coeff)
    return out


def pushforward(expr: TautExpr) -> TautExpr:
    """Push forward along W^m -> W^(m-1), integrating out the last slot."""
    m = expr.m
    if m < 2:
        raise ValueError("cannot push below the first level")
    out = TautExpr(m - 1)
    for gen, coeff in expr.terms.items():
        if isinstance(gen, NodeClass):
            if gen.gamma_power == 0:
                continue  # scroll fibres are contracted
            raise UnsupportedProductError(
                "pushforward of a node section leaves the generator basis")
        idx = gen.block_of(m)
        if idx is None:
            continue
        slots, key = gen.blocks[idx]
        if len(slots) > 1:
            blocks = list(gen.blocks)
            blocks[idx] = (slots[:-1], key)  # m is the largest slot
            out.add(DiagMonomial._new(m - 1, blocks), coeff)
            continue
        rest = DiagMonomial._new(m - 1, [b for t, b in enumerate(gen.blocks)
                                         if t != idx])
        if key == "pt":
            _add_scaled(out, mul_class(rest, 1, "f"), coeff)
            continue
        if key == "pin":
            raise UnsupportedProductError("pinned side points have no level map")
        out.add(rest, coeff * _fibre_deg(key))
    return out


def _fibre_deg(key):
    if key not in GEOMETRY.fibre_degrees:
        raise KeyError(f"no fibre degree registered for divisor {key!r}")
    return GEOMETRY.fibre_degrees[key]


def integrate(expr: TautExpr) -> CharacterPolynomial:
    """Integral over W^m of a dimension-0 expression."""
    if not expr.is_zero() and expr.codim() != expr.m + 1:
        raise DimensionError(
            f"expected codimension {expr.m + 1}, got {expr.codim()}")
    total = CharacterPolynomial.zero()
    diag_part = TautExpr(expr.m)
    for gen, coeff in expr.terms.items():
        if isinstance(gen, DiagMonomial):
            diag_part.add(gen, coeff)
            continue
        if gen.gamma_power == 0:
            raise DimensionError("node scrolls never reach dimension 0")
        value = GEOMETRY.node_count
        for slots, key in gen.sides[0] + gen.sides[1]:
            if key == "pin":
                continue
            if _key_degree(key) != 1:
                raise DimensionError("side block of degree != 1 at dimension 0")
            value = value * _fibre_deg(key)
        total = total + coeff * value
    return total + _push_down(diag_part, ())


def _push_down(expr: TautExpr, lower) -> CharacterPolynomial:
    """Push to the first level, reading off the point class there.

    After each pushforward the Gammas of `lower` at the new level are
    applied; this is how factors below a seeded level are evaluated.
    """
    for k in range(expr.m - 1, 0, -1):
        expr = pushforward(expr)
        for _ in range(lower.count(k)):
            expr = mul_gamma(expr)
    total = CharacterPolynomial.zero()
    for gen, coeff in expr.terms.items():
        if gen.blocks and gen.blocks[0][1] == "pt":
            total = total + coeff
    return total


# -- word evaluation ----------------------------------------------------


def _delta(k: int) -> dict:
    # Delta^(k) = Gamma^[k] - Gamma^[k-1]; Gamma^[1] vanishes
    return {k: 1, k - 1: -1} if k >= 3 else {k: 1}


def _expand(word, m: int):
    """Expand Delta and small-diagonal factors into merged Gamma words.

    The word's (factor, power) pairs are read in order, each factor taken
    as many times as its power.  Returns ({sorted Gamma levels: int or
    Fraction}, classes, seed).  The factors commute, so words with the
    same levels merge and words that cancel are dropped.  The word has
    passed `_word_codim`: no Delta^(1) factor, Delta indices in range,
    at most one seed.  The small diagonal is (1/(m-1)!) prod_{k=2..m}
    Delta^(k).
    """
    words = {(): 1}
    classes = []
    seed = None
    for factor, n in word:
        kind = factor[0]
        if kind == "class":
            classes += [factor] * n
            continue
        if kind == "seed":
            seed = factor[1]
            continue
        if kind == "gamma":
            steps = [{factor[1]: 1}]
        elif kind == "delta":
            steps = [_delta(factor[1])]
        elif kind == "smalldiag":
            words = {w: Fraction(c, factorial(m - 1) ** n)
                     for w, c in words.items()}
            steps = [_delta(k) for k in range(2, m + 1)]
        else:
            raise ValueError(f"unknown factor {factor!r}")
        for step in steps * n:
            merged = {}
            for word, c in words.items():
                for k, a in step.items():
                    key = tuple(sorted(word + (k,)))
                    merged[key] = merged.get(key, 0) + c * a
            words = {w: c for w, c in merged.items() if c}
    return words, classes, seed


def _up(levels, k: int) -> TautExpr:
    """The sorted Gamma word `levels` times 1 at level k.

    Built from its longest prefix: the last Gamma applied when it sits
    at level k, a pullback from level k - 1 otherwise, and the unit for
    the empty word.  Every prefix is looked up in the open scope's
    prefix table, keyed by (levels, k), before it is climbed, so words
    that share a prefix climb it once.
    """
    table = shared_table("prefix")
    expr = table.get((levels, k))
    if expr is None:
        if not levels:
            expr = unit(k)
        elif levels[-1] == k:
            expr = mul_gamma(_up(levels[:-1], k))
        else:
            expr = pullback(_up(levels, k - 1))
        table[levels, k] = expr
    return expr


def _seeded_up(levels, seed: TautExpr, m: int) -> TautExpr:
    """Up pass from the seed's level to level m.

    The Gammas at each level are applied before pulling back; Gammas
    below the seed's level are left for the down pass.
    """
    expr = seed
    for k in range(seed.m, m + 1):
        for _ in range(levels.count(k)):
            expr = mul_gamma(expr)
        if k < m:
            expr = pullback(expr)
    return expr


def _with_classes(expr: TautExpr, classes) -> TautExpr:
    """expr times the slot classes, (slot, key) pairs, one at a time."""
    images = shared_table("class")
    for slot, key in classes:
        nxt = TautExpr(expr.m)
        for gen, c in expr.terms.items():
            piece = images.get((gen, slot, key))
            if piece is None:
                piece = images[gen, slot, key] = mul_class(gen, slot, key)
            _add_scaled(nxt, piece, c)
        expr = nxt
    return expr


def _factor_codim(factor, m: int) -> int:
    """Codimension of one non-seed factor."""
    kind = factor[0]
    if kind in ("gamma", "delta"):
        return 1
    if kind == "smalldiag":
        return m - 1
    if kind == "class":
        return _key_degree(factor[2])
    raise ValueError(f"unknown factor {factor!r}")


def _word_codim(word, m: int):
    """Codimension of a word, read off its (factor, power) pairs
    unexpanded: a factor of power n counts n times its own.

    Returns None when a Delta^(1) factor or a zero seed kills the word.
    Factors are read up to a Delta^(1), so an out-of-range Gamma or Delta
    index or an unknown factor before it is still an error; two seeds
    are refused.
    """
    codim = 0
    seeds = []
    for factor, n in word:
        kind = factor[0]
        if kind == "seed":
            seeds.append(factor[1])
            continue
        if kind == "gamma" and not 1 <= factor[1] <= m:
            raise ValueError(f"Gamma index {factor[1]} outside level {m}")
        if kind == "delta":
            k = factor[1]
            if k < 1 or k > m:
                raise ValueError(f"diagonal index {k} outside level {m}")
            if k == 1:
                return None
        codim += n * _factor_codim(factor, m)
    if len(seeds) > 1:
        raise UnsupportedProductError(
            "products of two seeded classes are not supported")
    seed_codim = seeds[0].codim() if seeds else 0
    return None if seed_codim is None else codim + seed_codim


def _merge_words(words, m: int, integral: bool) -> list:
    """Expand every (coefficient, word) pair and merge the pieces.

    Returns (Gamma levels, classes, seed, coefficient) per distinct
    piece, with the zero coefficients dropped; classes are sorted
    (slot, key) pairs.  Each word is checked on its own,
    in input order, with the checks of an integral or of a normal form;
    its codimension is checked before it is expanded, so a huge power
    is refused at once.  The merge lives for one call only.
    """
    merged = {}
    for coeff, word in words:
        codim = _word_codim(word, m)
        if codim is None:
            continue  # Delta^(1) or a zero seed vanishes
        vanishes = any(f == ("gamma", 1) for f, _ in word)  # so does Gamma^[1]
        if integral:
            if vanishes:
                continue
            if codim != m + 1:
                raise DimensionError(
                    f"word has codimension {codim}, integration needs {m + 1}")
        else:
            if codim > m + 1:
                raise DimensionError("word exceeds the dimension of the level")
            if vanishes:
                continue
        expanded, classes, seed = _expand(word, m)
        if not integral and seed is not None and any(
                k < seed.m for levels in expanded for k in levels):
            raise UnsupportedProductError(
                "gamma factors below the seeded level need the integral pipeline")
        # slot classes commute, so sorting lets reordered words share a key
        classes = tuple(sorted(f[1:] for f in classes))
        for levels, c in expanded.items():
            key = (levels, classes, seed)
            merged[key] = merged.get(key, 0) + coeff * c
    return [(levels, classes, seed, c)
            for (levels, classes, seed), c in merged.items() if c]


def _summed(group, m: int) -> TautExpr:
    """The sum of coefficient times climbed Gamma word over the
    (coefficient, word) pairs of one class group."""
    expr = TautExpr(m)
    for coeff, word in group:
        _add_scaled(expr, word, coeff)
    return expr


def _past_a_dimension(levels, classes, m: int) -> bool:
    """Whether a seedless piece is pulled back past a dimension: for
    some k < m, its Gamma^[j] with j <= k and its classes on slots <= k
    have codimension above k + 1 = dim W^k (see `_integrate_words`)."""
    codim = [0] * (m + 1)
    for j in levels:
        codim[j] += 1
    for slot, key in classes:
        codim[slot] += _key_degree(key)
    below = 0
    for k in range(1, m):
        below += codim[k]
        if below > k + 1:
            return True
    return False


@shares_work
def _integrate_words(words, m: int) -> CharacterPolynomial:
    """Integral over W^m of a sum of (coefficient, word) pairs.

    A seeded piece is evaluated on its own: up to level m, then down,
    with the Gammas below the seed's level applied on the way down.
    A seedless piece pulled back past a dimension is skipped before it
    is climbed (`_past_a_dimension`): for some k < m, its factors
    pulled back from W^k have codimension above dim W^k = k + 1, so
    their product is zero, and so is the piece.  The other seedless
    pieces are summed by slot classes, and each class group is
    multiplied by its classes and integrated once.
    """
    total = CharacterPolynomial.zero()
    groups = {}
    for levels, classes, seed, coeff in _merge_words(words, m, True):
        if seed is None:
            if not _past_a_dimension(levels, classes, m):
                groups.setdefault(classes, []).append(
                    (coeff, _up(levels, m)))
            continue
        expr = _with_classes(_seeded_up(levels, seed, m), classes)
        lower = [k for k in levels if k < seed.m]
        value = _push_down(expr, lower) if lower else integrate(expr)
        total = total + coeff * value
    for classes, group in groups.items():
        total = total + integrate(_with_classes(_summed(group, m), classes))
    return total


@shares_work
def _normal_words(words, m: int) -> TautExpr:
    """Normal form at level m of a sum of (coefficient, word) pairs,
    the seedless pieces summed by slot classes as in `_integrate_words`."""
    out = TautExpr(m)
    groups = {}
    for levels, classes, seed, coeff in _merge_words(words, m, False):
        if seed is None:
            groups.setdefault(classes, []).append((coeff, _up(levels, m)))
            continue
        _add_scaled(out, _with_classes(_seeded_up(levels, seed, m), classes),
                    coeff)
    for classes, group in groups.items():
        _add_scaled(out, _with_classes(_summed(group, m), classes), 1)
    return out


def _with_seed(factors, seed):
    word = [(f, 1) for f in factors]
    if seed is not None:
        word.append((("seed", seed), 1))
    return [(1, word)]


def expand_monomial(factors, m: int,
                    seed: TautExpr | None = None) -> TautExpr:
    """Normal form of a product word at level m.

    Factors: ("gamma", k) for Gamma^[k], ("delta", k) for Delta^(k) =
    Gamma^[k] - Gamma^[k-1], ("smalldiag",) for the small-diagonal
    correction, ("class", slot, key) for a slot class named by its block
    key ("L", "omega", "f", "pt" or another divisor).  An optional seed
    expression starts the pipeline at its own level.
    """
    return _normal_words(_with_seed(factors, seed), m)


def integrate_word(factors, m: int,
                   seed: TautExpr | None = None) -> CharacterPolynomial:
    """Integral over W^m of a product word.

    Unlike expand_monomial this also supports gamma factors below a
    seeded level, by pushing the evaluated top part down level by
    level (node scrolls are contracted along the way).
    """
    return _integrate_words(_with_seed(factors, seed), m)


@shares_work
def chern_taut(m: int) -> list:
    """Graded pieces of prod_i (1 + L^(i) - Delta^(i))."""
    # (degree, sign, factors) for every way to pick one summand per slot
    picks = [(0, 1, ())]
    for i in range(1, m + 1):
        opts = [(0, 1, ()), (1, 1, ((("class", i, "L"), 1),))]
        if i >= 2:
            opts.append((1, -1, ((("delta", i), 1),)))
        picks = [(d + d2, s * s2, f + f2) for d, s, f in picks
                 for d2, s2, f2 in opts if d + d2 <= m + 1]
    words = [[] for _ in range(m + 2)]
    for degree, sign, factors in picks:
        words[degree].append((sign, factors))
    return [_normal_words(w, m) for w in words]


# -- rendering ----------------------------------------------------------


def _collapsed_groups(expr: TautExpr):
    """Detect complete unit fillings of two-slot node profiles.

    A profile with |I| = 2 whose complement is spread over the sides as
    unit singletons in all possible ways, with one common coefficient,
    renders as the bare symbol F(13:).  The symbol sorts at the filling
    with every free slot on J, so a render depends only on the value.
    """
    remaining = dict(expr.terms)
    collapsed = []
    nodes = [g for g in remaining if isinstance(g, NodeClass)
             and len(g.I) == 2]
    seen_groups = set()
    for gen in nodes:
        group_key = (gen.m, gen.I, gen.gamma_power)
        if group_key in seen_groups:
            continue
        fillings = _unit_fillings(*group_key)
        coeffs = [remaining.get(f) for f in fillings]
        if None in coeffs or any(c != coeffs[0] for c in coeffs):
            continue
        seen_groups.add(group_key)
        for f in fillings:
            del remaining[f]
        name = "NS" if gen.gamma_power else "F"
        label = name + "(%s:)" % "".join(str(s) for s in gen.I)
        collapsed.append((fillings[0], label, coeffs[0]))
    return remaining, collapsed


def render_expr(expr: TautExpr) -> str:
    if expr.is_zero():
        return "0"
    remaining, collapsed = _collapsed_groups(expr)
    entries = []
    for gen, coeff in remaining.items():
        entries.append((_sort_key(gen), gen.render(), coeff))
    for gen, label, coeff in collapsed:
        entries.append((_sort_key(gen), label, coeff))
    entries.sort(key=lambda e: e[0])
    parts = []
    for _key, label, coeff in entries:
        if not isinstance(coeff, CharacterPolynomial):
            coeff = CharacterPolynomial.constant(coeff)
        text = coeff.render()
        if label == "1":
            piece = f"({text})" if ("+" in text[1:] or "-" in text[1:]) else text
        elif text == "1":
            piece = label
        elif text == "-1":
            piece = "-" + label
        elif ("+" in text[1:]) or ("-" in text[1:]):
            piece = f"({text})*{label}"
        else:
            piece = f"{text}*{label}"
        if not parts:
            parts.append(piece)
        elif piece.startswith("-"):
            parts.append("- " + piece[1:])
        else:
            parts.append("+ " + piece)
    return " ".join(parts)
