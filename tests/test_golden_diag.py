"""Golden Gamma images of diagonal monomials at levels 2-4.

`tests/data/golden_diag.txt` holds, for every diagonal monomial at
levels 2 and 3 up to codimension m + 1, the rendered image of
`mul_gamma_diag` or the exception type and message, one per line; the
2648 level-4 lines are pinned by their sha256, and so are the stdout
lines of `taut-calc chern -m 4` and `chern -m 5`, on the file's last
three lines.
Regenerate the file with `PYTHONPATH=src python tests/test_golden_diag.py
--write` only when a change is meant to move outputs, and say which
lines moved and why.

A diagonal monomial here is any set partition of the slots, each block
decorated by `1`, `L`, `omega`, `pt`, `pin` or `M` (a divisor with no
pairing, so its joins raise), with codimension at most m + 1; a unit
singleton is a free slot.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from itertools import product
from pathlib import Path

from tautcalc import cli, tautring
from test_golden_nodes import _set_partitions

DATA = Path(__file__).parent / "data" / "golden_diag.txt"
KEYS = ("1", "L", "omega", "pt", "pin", "M")


def diag_monomials(m: int) -> list:
    out = []
    for part in _set_partitions(list(range(1, m + 1))):
        for keys in product(KEYS, repeat=len(part)):
            mono = tautring.DiagMonomial(m, zip(part, keys))
            if mono.codim() <= m + 1:
                out.append(mono)
    return out


def _render(fn) -> str:
    try:
        return tautring.render_expr(fn())
    except (ValueError, KeyError) as exc:
        return f"!{type(exc).__name__}: {exc}"


def lines(m: int) -> list[str]:
    return [f"{m}\t{mono.render()}\tGamma\t"
            + _render(lambda: tautring.mul_gamma_diag(mono))
            for mono in diag_monomials(m)]


def chern_lines(m: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["chern", "-m", str(m)]) == 0
    return out.getvalue().splitlines()


def _digest(text_lines) -> str:
    return hashlib.sha256("".join(x + "\n" for x in text_lines)
                          .encode("utf-8")).hexdigest()


def _pin(label: str, text_lines) -> str:
    return f"{label}\tsha256\t{len(text_lines)}\t{_digest(text_lines)}"


def transcript() -> list[str]:
    return (lines(2) + lines(3) + [_pin("4", lines(4))]
            + [_pin(f"chern -m {m}", chern_lines(m)) for m in (4, 5)])


def test_diag_images_match_the_golden_file():
    want = DATA.read_text(encoding="utf-8").splitlines()
    got = transcript()
    assert len(got) == len(want) == 41 + 314 + 3
    assert [g.split("\t")[2] for g in got[-3:]] == ["2648", "6", "7"]
    for g, w in zip(got, want):
        assert g == w


def test_every_key_is_pinned():
    counts = {m: len(diag_monomials(m)) for m in (2, 3, 4)}
    assert counts == {2: 41, 3: 314, 4: 2648}
    want = DATA.read_text(encoding="utf-8")
    for key in KEYS[1:]:
        assert f"({key}" in want or f", {key}" in want
    assert "!KeyError" in want and "\tNS(" not in want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_diag.py --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(x + "\n" for x in transcript()), encoding="utf-8")
