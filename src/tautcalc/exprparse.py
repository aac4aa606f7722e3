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

from fractions import Fraction

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


# -- AST to words ---------------------------------------------------------


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
    """Expand an AST into (coefficient, word) pairs.

    A word is a tuple of (factor, power) pairs: its non-seed factors,
    sorted, each with its exponent, then its seeds as (("seed", expr),
    1) in their order (a seed does not sort).  A slot class factor is
    ("class", slot, key), its key the name as written.  Products are
    distributed over sums and powers are taken by repeated squaring.
    Factors commute, so the like words of a product are collected, their
    coefficients summed in first-seen order; a sum that cancels is kept,
    so the codimension checks still see its word.  A Delta<1> factor
    kills every word it enters, so it gives no word at all.

    A word past the dimension (codimension above m + 1, a zero seed
    counted as 0) or with two seeds is never expanded: it is killed, by
    a Gamma<1> factor or a lone zero seed, or refused.  Its fate depends
    only on whether it holds Gamma<1> and on which of its first two
    seeds are zero, so it keeps its exponents and those two seeds, and
    the words of a product that share a fate are collected into the
    first one seen, which the checks reach first.  No check reads its
    coefficient, so it carries 0 and is never multiplied or summed.  So
    a power of a sum takes bounded work per step.
    """
    return _words(ast, m)


def _words(ast, m: int):
    kind = ast[0]
    if kind == "num":
        return [(ast[1], ())]
    if kind == "char":
        return [(CharacterPolynomial.symbol(ast[1]), ())]
    if ast == ("delta", 1):
        return []
    if kind in ("gamma", "delta", "class"):
        factor = ("class", ast[2], ast[1]) if kind == "class" else ast
        return [(1, ((factor, 1),))]
    if kind in ("diag", "node"):
        return [(1, ((("seed", _seed(ast, m)), 1),))]
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
        # order and the words kept past the dimension are those of n
        # single products
        out, square = [(1, ())], base
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

    A seed is keyed by the identity of its factor, one object per atom:
    a TautExpr hash walks all its terms, at every step of a power of a
    seed.  A word past the dimension or with two seeds is keyed by its
    fate (see `to_words`).
    """
    out = {}
    for c1, w1 in left:
        for c2, w2 in right:
            codim, powers, seeds = 0, {}, ()
            for f, n in w1 + w2:
                if f[0] == "seed":
                    codim += f[1].codim() or 0
                    seeds += ((f, n),)
                else:
                    codim += n * _factor_codim(f, m)
                    powers[f] = powers.get(f, 0) + n
            word = tuple(sorted(powers.items()))
            if codim > m + 1 or len(seeds) > 1:
                fate = (("gamma", 1) in powers,
                        tuple(f[1].is_zero() for f, _ in seeds[:2]))
                out.setdefault(fate, (0, word + seeds[:2]))
                continue
            key = word + tuple(id(f) for f, _ in seeds)
            word += seeds
            c = c1 * c2
            if key in out:
                c, word = out[key][0] + c, out[key][1]
            out[key] = (c, word)
    return list(out.values())


def evaluate_normal(text: str, m: int) -> TautExpr:
    """Parse and expand an expression to its normal form at level m."""
    return _normal_words(to_words(parse(text, m), m), m)


def evaluate_integral(text: str, m: int) -> CharacterPolynomial:
    """Parse an expression and integrate it over the level-m space."""
    return _integrate_words(to_words(parse(text, m), m), m)
