"""Recursive-descent parser for intersection-calculus expressions.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' INT)?
    primary := '(' expr ')' | NUMBER | atom
    atom    := 'Gamma' '<' INT '>'
             | 'Delta' '<' INT '>'
             | 'q' '[' blocks ']' '(' keys ')'
             | ('F' | 'NS') '(' profile ')'
             | NAME '(' INT ')'          slot class, e.g. L(2)
             | NAME                      a character of the surface

A slot class NAME(i) is a class of the surface pulled back from slot
i, named by its block key: `omega`, `L` and `f` are divisors (degree
1), `pt` is the point class (degree 2), `pin` is a point pinned on one
side of a node (degree 1), and any other name is a divisor (degree 1)
that the surface does not pair: a normal form may carry it, but an
integral of it is refused.

Node profiles use the rendered syntax: `F(1|23:{4}(omega)|{5})` lists
the colliding slots split across the two branches, then the side
blocks on each component.  The short form `F(13:)` with no branch bar
stands for the sum of all complete unit fillings of the remaining
slots.  Slot digits are read individually, so levels stay below ten.
A tag after a profile, such as `@irr`, is refused at its `@`: every
node of the surface lies on a reducible fibre.

The parser validates every slot and level index against the declared
level and reports error positions on the original text.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .charpoly import CHARACTERS, CharacterPolynomial
from .tautring import (
    DiagMonomial,
    NodeClass,
    TautExpr,
    _factor_codim,
    _integrate_words,
    _normal_words,
    _unit_fillings,
)

__all__ = [
    "ParseError",
    "parse",
    "to_words",
    "evaluate_normal",
    "evaluate_integral",
]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos


_PUNCT = set("<>()[]{}|:,@+-*^/")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, level: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.level = level

    def peek(self, offset=0):
        return self.tokens[min(self.idx + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2],
                             self.text)
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok[2], self.text)

    # -- grammar -------------------------------------------------------

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            self.fail(f"unexpected trailing input {tok[1]!r}")
        return node

    def expr(self):
        if self.peek()[0] == "-":
            self.next()
            node = ("neg", self.term())
        else:
            if self.peek()[0] == "+":
                self.next()
            node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = ("add", node, rhs) if op == "+" else ("sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.next()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        node = self.primary()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("INT")
            node = ("pow", node, int(tok[1]))
        return node

    def primary(self):
        tok = self.peek()
        if tok[0] == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "INT":
            return self.number()
        if tok[0] == "NAME":
            return self.atom()
        self.fail(f"expected expression, found {tok[1]!r}")

    def number(self):
        tok = self.expect("INT")
        value = int(tok[1])
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("INT")
            if int(den[1]) == 0:
                raise ParseError("division by zero", den[2], self.text)
            value = Fraction(value, int(den[1]))
            if value.denominator == 1:
                value = value.numerator
        return ("num", value)

    def atom(self):
        tok = self.expect("NAME")
        name = tok[1]
        if name in ("Gamma", "Delta"):
            self.expect("<")
            k = self.index_in("INT", 1, self.level, "level")
            self.expect(">")
            return ("gamma" if name == "Gamma" else "delta", k)
        if name == "q":
            return self.diag_atom()
        if name in ("F", "NS"):
            return self.node_atom(gamma_power=0 if name == "F" else 1)
        if self.peek()[0] == "(":
            self.next()
            slot = self.index_in("INT", 1, self.level, "slot")
            self.expect(")")
            return ("class", name, slot)
        if name not in CHARACTERS:
            raise ParseError(f"unknown character {name!r}", tok[2], self.text)
        return ("char", name)

    def index_in(self, kind, lo, hi, what):
        tok = self.expect(kind)
        value = int(tok[1])
        if not lo <= value <= hi:
            raise ParseError(
                f"{what} index {value} outside 1..{hi}", tok[2], self.text)
        return value

    def diag_atom(self):
        self.expect("[")
        blocks = [self.slot_set()]
        while self.peek()[0] == ",":
            self.next()
            blocks.append(self.slot_set())
        self.expect("]")
        self.expect("(")
        keys = [self.block_key()]
        while self.peek()[0] == ",":
            self.next()
            keys.append(self.block_key())
        self.expect(")")
        if len(keys) != len(blocks):
            self.fail("one decoration per block is required")
        return ("diag", tuple(zip(blocks, keys)))

    def slot_set(self):
        self.expect("{")
        slots = [self.index_in("INT", 1, self.level, "slot")]
        while self.peek()[0] == ",":
            self.next()
            slots.append(self.index_in("INT", 1, self.level, "slot"))
        self.expect("}")
        return tuple(slots)

    def block_key(self):
        tok = self.next()
        if tok[0] == "INT" and tok[1] == "1":
            return "1"
        if tok[0] == "NAME":
            return tok[1]
        raise ParseError(f"expected a block decoration, found {tok[1]!r}",
                         tok[2], self.text)

    def node_atom(self, gamma_power: int):
        self.expect("(")
        first = self.digit_slots()
        split = None
        tail = ()
        if self.peek()[0] == "|":
            self.next()
            tail = self.digit_slots()
            split = len(first)
        self.expect(":")
        sides = [(), ()]
        if self.peek()[0] != ")":
            sides[0] = self.side_blocks()
        second_side = self.peek()[0] == "|"
        if second_side:
            self.next()
            sides[1] = self.side_blocks()
        self.expect(")")
        if self.peek()[0] == "@":
            self.fail("node profiles take no tag: the surface has no"
                      " irreducible nodes")
        if split is not None and not second_side:
            self.fail("explicit reducible profiles need the second side bar")
        return ("node", first + tail, split, *sides, gamma_power)

    def digit_slots(self):
        tok = self.expect("INT")
        slots = tuple(int(d) for d in tok[1])
        for s in slots:
            if not 1 <= s <= self.level:
                raise ParseError(f"slot index {s} outside 1..{self.level}",
                                 tok[2], self.text)
        return slots

    def side_blocks(self):
        if self.peek()[0] != "{":
            return ()
        blocks = [self.side_block()]
        while self.peek()[0] == "," and self.peek(1)[0] == "{":
            self.next()
            blocks.append(self.side_block())
        return tuple(blocks)

    def side_block(self):
        slots = self.slot_set()
        key = "1"
        if self.peek()[0] == "(":
            self.next()
            key = self.block_key()
            self.expect(")")
        return (slots, key)


def parse(text: str, level: int):
    """Parse an expression at the given level into an AST."""
    if level < 1:
        raise ParseError(f"level {level} below 1", 0, text)
    if level > 9:
        raise ParseError(
            f"level {level} above 9: slot digits are read one at a time",
            0, text)
    return _Parser(text, level).parse()


# -- AST flattening ------------------------------------------------------


def _seed(ast, m: int) -> TautExpr:
    """The expression of a `q[...]`, `F(...)` or `NS(...)` atom."""
    if ast[0] == "diag":
        blocks = tuple((tuple(slots), key) for slots, key in ast[1])
        return TautExpr(m, {DiagMonomial(m, blocks): 1})
    _tag, I, split, *sides, gamma_power = ast
    if split is None:
        # short form: sum of complete unit fillings of the free slots
        nodes = _unit_fillings(m, I, gamma_power)
    else:
        nodes = [NodeClass(m, I, split, *sides, gamma_power)]
    return TautExpr(m, {node: 1 for node in nodes})


def to_words(ast, m: int):
    """Flatten an AST into (coefficient, factor tuple) words.

    Distributes products over sums and expands powers, so each word is
    a plain monomial the rewriting engine can evaluate.  A slot class
    factor is ("class", slot, key), its key the name as written.
    Factors commute, so the like words of a product are collected: a
    word is its non-seed factors, sorted, then its seeds in their order
    (a seed does not sort).  Coefficients are summed in first-seen
    order, and a sum that cancels is kept, so the codimension checks
    still see its word.

    A word past the dimension (codimension above m + 1) is never
    expanded: it is refused, or a Delta<1> or Gamma<1> factor kills it.
    So its codimension is read off its (factor, power) pairs, before
    any flattening, and it comes out as a stand-in that keeps only what
    those checks read: ("codim", n) for its other factors, its
    level-one factors and its first two seeds (two seeds are refused
    whatever the codimension, so then the codimension is left out).
    The stand-ins of a product are collected by their level-one factors
    and number of seeds: the first one seen, which the checks reach
    first, stays.  The checks refuse or drop a stand-in and never read
    its coefficient, so every stand-in carries 0 and none is multiplied
    or summed.  So a power of a sum takes bounded work per step.
    """
    return [(c, _factors(word)) for c, word in _words(ast, m)]


_LEVEL_ONE = (("delta", 1), ("gamma", 1))


# a word past the dimension: its codimension (seeds included), its
# level-one factors and its first two seeds
_Past = namedtuple("_Past", "codim level_one seeds")


def _factors(word) -> tuple:
    """The factor tuple of a word, or of a stand-in past the dimension."""
    if isinstance(word, _Past):
        if len(word.seeds) == 2:
            return word.level_one + word.seeds
        own = _seed_codim(word.seeds[0]) if word.seeds else 0
        n = word.codim - len(word.level_one) - own
        return (("codim", n),) + word.level_one + word.seeds
    powers, seeds, _codim = word
    return tuple(chain.from_iterable((f,) * n for f, n in powers)) + seeds


def _seed_codim(seed) -> int:
    return seed[1].codim() or 0


def _as_past(word) -> _Past:
    if isinstance(word, _Past):
        return word
    powers, seeds, codim = word
    factors = {f for f, _ in powers}
    return _Past(codim, tuple(f for f in _LEVEL_ONE if f in factors),
                 seeds[:2])


def _words(ast, m: int):
    """to_words, each word kept as (sorted (factor, power) pairs, seeds,
    codimension) or as a `_Past` stand-in."""
    kind = ast[0]
    if kind == "num":
        return [(ast[1], ((), (), 0))]
    if kind == "char":
        return [(CharacterPolynomial.symbol(ast[1]), ((), (), 0))]
    if kind in ("gamma", "delta", "class"):
        factor = ("class", ast[2], ast[1]) if kind == "class" else ast
        # an atom never passes the dimension: a TautExpr drops such terms
        return [(1, (((factor, 1),), (), _factor_codim(factor, m)))]
    if kind in ("diag", "node"):
        seed = ("seed", _seed(ast, m))
        return [(1, ((), (seed,), _seed_codim(seed)))]
    if kind == "neg":
        return [(-c, w) for c, w in _words(ast[1], m)]
    if kind == "add":
        return _words(ast[1], m) + _words(ast[2], m)
    if kind == "sub":
        return _words(ast[1], m) + [(-c, w) for c, w in _words(ast[2], m)]
    if kind == "mul":
        return _product(_words(ast[1], m), _words(ast[2], m), m)
    if kind == "pow":
        base, n = _words(ast[1], m), ast[2]
        # repeated squaring, about 2 log2(n) products as in
        # CharacterPolynomial.__pow__.  A product lists each like word
        # where its lexicographically first sequence of base words puts
        # it, however the n factors are grouped, so the words, their
        # order and the stand-ins kept are those of n single products
        out, square = [(1, ((), (), 0))], base
        while n:
            if n & 1:
                out = _product(out, square, m)
            n >>= 1
            if n:
                square = _product(square, square, m)
        return out
    raise ValueError(f"unknown AST node {kind!r}")


def _product(left, right, m: int):
    """The words of a product, like words collected in first-seen order.

    A seed is keyed by its identity, one object per atom: a TautExpr
    hash walks all its terms, at every step of a power of a seed.  A
    stand-in past the dimension is keyed by its level-one factors and
    number of seeds.
    """
    out = {}
    for c1, w1 in left:
        for c2, w2 in right:
            if isinstance(w1, _Past) or isinstance(w2, _Past):
                word = _past_product(w1, w2)
            else:
                powers = dict(w1[0])
                for f, n in w2[0]:
                    powers[f] = powers.get(f, 0) + n
                word = (tuple(sorted(powers.items())), w1[1] + w2[1],
                        w1[2] + w2[2])
                if word[2] > m + 1:
                    word = _as_past(word)
            if isinstance(word, _Past):
                out.setdefault(("past", word.level_one, len(word.seeds)),
                               (0, word))
                continue
            key = (word[0], tuple(id(seed) for _, seed in word[1]))
            c = c1 * c2
            if key in out:
                c, word = out[key][0] + c, out[key][1]
            out[key] = (c, word)
    return list(out.values())


def _past_product(w1, w2) -> _Past:
    p1, p2 = _as_past(w1), _as_past(w2)
    both = p1.level_one + p2.level_one
    return _Past(p1.codim + p2.codim,
                 tuple(f for f in _LEVEL_ONE if f in both),
                 (p1.seeds + p2.seeds)[:2])


def evaluate_normal(text: str, m: int) -> TautExpr:
    """Parse and expand an expression to its normal form at level m."""
    return _normal_words(to_words(parse(text, m), m), m)


def evaluate_integral(text: str, m: int) -> CharacterPolynomial:
    """Parse an expression and integrate it over the level-m space."""
    return _integrate_words(to_words(parse(text, m), m), m)
