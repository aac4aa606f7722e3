"""Golden node-rewrite images: every node generator at levels 2-4.

`tests/data/golden_nodes.txt` holds, for every valid node class at
levels 2 and 3, the rendered images of `mul_gamma_node`, `pullback`
and `mul_class(., s, L)` for every slot s, or the exception type and
message, one per line; the 3780 level-4 lines are pinned by their
sha256 on the file's last line.
Regenerate the file with `PYTHONPATH=src python tests/test_golden_nodes.py
--write` only when a change is meant to move outputs, and say which
lines moved and why.

A node class here is any profile the public constructor accepts: a
colliding set I of two or more slots with every split, the other slots
in blocks of any set partition, each block decorated by `1`, `omega` or
`L` (or `pin`, which marks two joined side points and so needs two
slots), laid on the two sides in every way, with gamma power 0 and 1.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import combinations, product
from pathlib import Path

from tautcalc import tautring
from tautcalc.charpoly import CharacterPolynomial

DATA = Path(__file__).parent / "data" / "golden_nodes.txt"


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]
        yield [(first,)] + part


def _keys(block):
    return ("1", "omega", "L") + (("pin",) if len(block) > 1 else ())


def node_classes(m: int) -> list:
    out = []
    for r in range(2, m + 1):
        for I in combinations(range(1, m + 1), r):
            others = [s for s in range(1, m + 1) if s not in I]
            for split, part in product(range(1, r), _set_partitions(others)):
                for keys in product(*[_keys(b) for b in part]):
                    blocks = list(zip(part, keys))
                    for d in product((0, 1), repeat=len(blocks)):
                        j = [b for b, t in zip(blocks, d) if t == 0]
                        k = [b for b, t in zip(blocks, d) if t == 1]
                        out += [tautring.NodeClass(m, I, split, j, k, gp)
                                for gp in (0, 1)]
    return out


def _render(fn) -> str:
    try:
        return tautring.render_expr(fn())
    except (ValueError, KeyError) as exc:
        return f"!{type(exc).__name__}: {exc}"


def lines(m: int) -> list[str]:
    out = []
    for node in node_classes(m):
        head = f"{m}\t{node.render()}"
        expr = tautring.TautExpr(m, {node: CharacterPolynomial.one()})
        out.append(f"{head}\tGamma\t"
                   + _render(lambda: tautring.mul_gamma_node(node)))
        out.append(f"{head}\tpullback\t"
                   + _render(lambda: tautring.pullback(expr)))
        for s in range(1, m + 1):
            out.append(f"{head}\tL({s})\t" + _render(
                lambda: tautring.mul_class(node, s, "L")))
    return out


def _digest(text_lines) -> str:
    return hashlib.sha256("".join(x + "\n" for x in text_lines)
                          .encode("utf-8")).hexdigest()


def transcript() -> list[str]:
    level4 = lines(4)
    return lines(2) + lines(3) + [f"4\tsha256\t{len(level4)}\t{_digest(level4)}"]


def test_node_images_match_the_golden_file():
    want = DATA.read_text(encoding="utf-8").splitlines()
    got = transcript()
    assert len(got) == len(want) == 209
    assert got[-1].split("\t")[2] == "3780"
    for g, w in zip(got, want):
        assert g == w


def test_every_gamma_power_is_pinned():
    counts = {m: len(node_classes(m)) for m in (2, 3, 4)}
    assert counts == {2: 2, 3: 40, 4: 630}
    want = DATA.read_text(encoding="utf-8")
    assert "\tF(" in want and "\tNS(" in want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_nodes.py --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(x + "\n" for x in transcript()), encoding="utf-8")
