"""Golden oracle outputs: the reference computations, line by line.

`tests/data/golden_oracles.txt` is a transcript.  A `$ taut-calc ...`
line is a command, followed by what it prints and its exit code; a
`>>> beta(...)` line is a library call, followed by the row it returns.
It pins the oracle kernels byte for byte: the full `vdm-check`, every
`ord-table -m 2..4` at 20 fixed seeds, every `eta m i j` with m <= 4,
and the beta rows m <= 12 at eta (1, 2) and at eta (-3/5, 97/31).
Regenerate it with `PYTHONPATH=src python tests/test_golden_oracles.py
--write` only when a change is meant to move outputs, and say which
lines moved and why.
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

from tautcalc.cli import main
from tautcalc.staircase import beta

DATA = Path(__file__).parent / "data" / "golden_oracles.txt"

SEEDS = range(20)
ODD_ETAS = (Fraction(-3, 5), Fraction(97, 31))


def commands() -> list[list[str]]:
    out = [["vdm-check"]]
    out += [["ord-table", "-m", str(m), "--seed", str(s)]
            for m in (2, 3, 4) for s in SEEDS]
    out += [["eta", str(m), str(i), str(j)] for m in (1, 2, 3, 4)
            for i in range(1, m + 1) for j in range(1, m + 1)]
    out += [["beta", str(m)] for m in range(2, 13)]
    return out


def transcript() -> list[str]:
    lines = []
    for argv in commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        lines.append("$ taut-calc " + " ".join(argv))
        lines += stdout.getvalue().splitlines()
        lines.append(f"[exit {code}]")
    etas = ", ".join(str(e) for e in ODD_ETAS)
    for m in range(2, 13):
        lines.append(f">>> beta({m}, etas=({etas}))")
        lines.append(" ".join(str(v) for v in beta(m, etas=ODD_ETAS)))
    return lines


def test_oracle_outputs_match_the_golden_file():
    want = DATA.read_text(encoding="utf-8").splitlines()
    got = transcript()
    assert sum(line.startswith("$ ") for line in want) == len(commands()) == 102
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_oracles.py --write")
    DATA.write_text("".join(line + "\n" for line in transcript()),
                    encoding="utf-8")
