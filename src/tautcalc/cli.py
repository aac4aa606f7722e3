"""Command-line front end for the intersection calculus.

Subcommands cover the staircase weights (alpha, beta, colength), the
Vandermonde oracle (vdm-check, ord-table, eta), the rewriting engine
(normalize, integrate, chern), the Grassmannian side (schubert, nsec3)
and a regression driver (verify-paper) that replays the table of
recorded reference checks in `paperchecks` and reports
engine-vs-printed discrepancies as NOTE lines.

Each command imports the modules it runs inside its own function, so a
fresh interpreter compiles and loads no engine for a staircase command
and no oracle for an engine command.

Exit codes: 0 success, 1 parse or usage error, 2 grading/dimension or
unsupported-product error, 3 verify-paper mismatch.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from operator import attrgetter

from . import shares_work

__all__ = ["main"]


class _UsageError(Exception):
    pass


# what argparse may read as an option: one or two dashes, a name and an
# optional "=value"
_OPTION_SHAPE = re.compile(r"--?[A-Za-z][\w-]*(=.*)?", re.DOTALL)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # an argument with a leading "-" that cannot name an option, such
        # as the expression "-Delta<3>^2", is positional, as after "--"
        if arg_string[:1] == "-" and not _OPTION_SHAPE.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _rational(text: str) -> Fraction:
    # the type of --eta: a nonzero rational
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"bad rational {text!r}")
    if not value:
        raise _UsageError("eta must be nonzero")
    return value


def _load_assignment(path: str | None) -> dict:
    if path is None:
        return {}
    from .surface import parse_character_config
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_character_config(handle.read())
    except OSError as exc:
        raise _UsageError(f"cannot read character file: {exc}")
    except ValueError as exc:
        raise _UsageError(str(exc))


def _finish(poly, assignment: dict):
    return poly.evaluate(assignment) if assignment else poly


def _emit(args, pairs):
    """Print (name, value) pairs per the selected format.

    Pretty mode prints a single value bare and keeps labels only for
    multi-line output; kv mode always prints `name = value` lines.
    """
    for name, value in pairs:
        if args.format == "kv":
            print(f"{name} = {value}")
        elif len(pairs) == 1:
            print(value)
        else:
            print(f"{name} = {value}")


# -- simple numeric commands ---------------------------------------------


def cmd_alpha(args) -> int:
    from .staircase import alpha, printed_alpha_closed_form
    m = args.level
    value = alpha(m)
    printed = printed_alpha_closed_form(m)
    if args.format == "kv":
        print(f"alpha = {value}")
        print(f"printed_closed_form = {printed}")
    else:
        print(value)
        if printed != value:
            print(f"note: the printed closed form evaluates to {printed}")
    return 0


def cmd_beta(args) -> int:
    from .staircase import beta
    m = args.level
    # the base etas 1 and 2, then --eta unless it is one of them
    extra = () if args.eta is None else (args.eta,)
    etas = tuple(dict.fromkeys((Fraction(1), Fraction(2)) + extra))
    if args.slope is not None:
        value = beta(m, args.slope, etas=etas)
        _emit(args, [("beta", value)])
        return 0
    row = beta(m, etas=etas)
    _emit(args, [("beta", " ".join(str(v) for v in row))])
    return 0


def cmd_colength(args) -> int:
    from .staircase import colength, j_m, monomial_poly
    gens = [monomial_poly(c) for c in j_m(args.level)]
    _emit(args, [("colength", colength(gens))])
    return 0


def cmd_vdm_check(args) -> int:
    from .polyoracle import check_chain, check_syzygy
    top = 5 if args.level is None else args.level
    for m in range(2, top + 1):
        for i in range(1, m):
            sign = check_chain(m, i)
            print(f"chain m={m} i={i} sign={sign:+d} OK")
    for m in range(2, min(top, 4) + 1):
        for i in range(1, m):
            for j in range(0, m):
                sign = check_syzygy(m, i, j, "lower")
                print(f"syzygy lower m={m} i={i} j={j} sign={sign:+d} OK")
        for i in range(2, m + 1):
            for j in range(0, m):
                sign = check_syzygy(m, i, j, "raise")
                print(f"syzygy raise m={m} i={i} j={j} sign={sign:+d} OK")
    return 0


def cmd_ord_table(args) -> int:
    from .polyoracle import ord_table, printed_ord_formula
    m = 4 if args.level is None else args.level
    table = ord_table(m, seed=args.seed)
    for j in range(1, m + 1):
        row = " ".join(str(table[(j, size)]) for size in range(m + 1))
        print(f"ord j={j} = {row}")
    # reference quadratic, shown for comparison only: k counts the
    # slots off the component and the printed value is twice the order
    for j in range(1, m + 1):
        row = " ".join(str(printed_ord_formula(m - size, j))
                       for size in range(m + 1))
        print(f"printed-quadratic j={j} = {row}")
    return 0


def cmd_eta(args) -> int:
    from .polyoracle import (derived_eta_exponent, eta_valuation,
                             printed_eta_exponent)
    m, i, j = args.level, args.i, args.j
    value = eta_valuation(m, i, j)
    derived = derived_eta_exponent(m, i, j)
    printed = printed_eta_exponent(m, i, j)
    _emit(args, [("eta_valuation", value),
                 ("quadratic_exponent", derived),
                 ("printed_exponent", printed)])
    if args.format != "kv":
        if value != derived:
            print("note: the product of the two generators carries extra"
                  " t-order here, so the quadratic undercounts")
        if printed != derived:
            print("note: the printed exponent misses the half-integer"
                  " correction")
    return 0


# -- engine commands -------------------------------------------------------


def cmd_normalize(args) -> int:
    from .exprparse import evaluate_normal
    from .tautring import render_expr
    nf = evaluate_normal(args.expr, args.level)
    _emit(args, [("normal_form", render_expr(nf))])
    return 0


def cmd_integrate(args) -> int:
    from .exprparse import evaluate_integral
    assignment = _load_assignment(args.chars)
    value = _finish(evaluate_integral(args.expr, args.level), assignment)
    _emit(args, [("integral", value.render())])
    return 0


def cmd_chern(args) -> int:
    from .tautring import chern_taut, render_expr
    pieces = chern_taut(args.level)
    _emit(args, [(f"c_{d}", render_expr(p)) for d, p in enumerate(pieces)])
    return 0


def _parse_factor(text: str):
    text = text.strip()
    if len(text) < 2 or text[0] not in "rc" or not text[1:].isdigit():
        raise _UsageError(
            f"bad factor {text!r}: use rN for a row strip, cN for a column")
    return ("row" if text[0] == "r" else "column", int(text[1:]))


def _factors(text: str) -> list:
    return [_parse_factor(f) for f in text.split(",")]


def _box(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"bad box {text!r}: use A,B")
    return a, b


def cmd_schubert(args) -> int:
    from .schubert import grassmann_integral
    _emit(args, [("integral", grassmann_integral(args.box, args.factors))])
    return 0


def cmd_nsec3(args) -> int:
    from .schubert import _nsec3_sum, nsec3_terms
    assignment = _load_assignment(args.chars)
    terms = nsec3_terms()
    total = _finish(_nsec3_sum(terms), assignment)
    _emit(args, [("nsec3", total.render())])
    if args.breakdown:
        for (j1, j2, j3), (g, w) in sorted(terms.items()):
            wtext = _finish(w, assignment).render()
            print(f"term j=({j1},{j2},{j3}) G={g} W={wtext}")
    if total.is_constant():
        print(f"N3 = {total.constant_value() / 6}")
    return 0


# -- the regression driver -------------------------------------------------


def cmd_verify_paper(args) -> int:
    from .paperchecks import run_checks
    failed = 0
    for cid, status, detail in run_checks():
        print(f"{status} {cid}: {detail}")
        if status == "FAIL":
            failed += 1
    if failed:
        print(f"FAIL: {failed} checks regressed")
        return 3
    print("OK: all checks consistent")
    return 0


# -- wiring ----------------------------------------------------------------

_LEVEL = attrgetter("level")
# timed in process past the range check, best of 5 on a 2-core x86-64
# machine with Python 3.11
_BUCHBERGER = ("the Buchberger oracle is bounded here; the next level takes"
               " 0.26 s for beta and 3 ms for colength")
_FACTORIAL = "a generator has m! terms"

# The range of every integer argument, by subcommand: (name, value,
# lowest, highest, reason for the ceiling).  `value` reads the argument
# off the parsed command line and may give several integers, or None
# for an optional level left out.  A bound of None is no bound, and
# `highest` may be a function of the parsed arguments.  `integrate` and
# `normalize` have no row: `exprparse.parse` checks the level of every
# expression.
_RANGES = {
    "alpha": [("level", _LEVEL, 1, 10**1000,
               "the answer would pass Python's 4300-digit print limit")],
    "beta": [("level", _LEVEL, 2, 60, _BUCHBERGER),
             ("slope", attrgetter("slope"), 1, lambda args: args.level - 1,
              "the slopes of level m run to m-1")],
    "colength": [("level", _LEVEL, 1, 300, _BUCHBERGER)],
    # the chain and syzygy identities start at level 2
    "vdm-check": [("level", _LEVEL, 2, 7, _FACTORIAL)],
    "ord-table": [("level", _LEVEL, 1, 7, _FACTORIAL)],
    "eta": [("level", _LEVEL, 1, 6, "G_1^2 multiplies (m!)^2 term pairs"),
            ("i", attrgetter("i"), 1, _LEVEL, "indices run to the level"),
            ("j", attrgetter("j"), 1, _LEVEL, "indices run to the level")],
    "chern": [("level", _LEVEL, 1, 5,
               "from level 6 the engine fails with side block key 'pt'"
               " has degree > 1")],
    "schubert": [
        ("box side", attrgetter("box"), 0, None, None),
        ("box a+b", lambda args: sum(args.box), None, 16,
         "the Pieri fold of box 8,8 takes up to 0.7 s, 9,9 up to 2 s"),
        ("factor size", lambda args: tuple(j for _, j in args.factors), 0,
         lambda args: max(args.box), "a special class fits in the box")],
}


def _check_ranges(args) -> None:
    """Refuse an integer argument outside its row of `_RANGES`."""
    for name, value, lowest, highest, reason in _RANGES.get(args.command, ()):
        if callable(highest):
            highest = highest(args)
        values = value(args)
        for v in values if isinstance(values, tuple) else (values,):
            if v is None:
                continue
            if lowest is not None and v < lowest:
                raise _UsageError(f"{_shown(v, name, True)} below"
                                  f" {_shown(lowest, 'bound')}")
            if highest is not None and v > highest:
                raise _UsageError(f"{_shown(v, name, True)} above"
                                  f" {_shown(highest, 'bound')}: {reason}")


def _shown(n: int, noun: str, named: bool = False) -> str:
    """n for a message, after its noun if named; past 30 digits only its
    digit count, as in "a 1002-digit level"."""
    digits = len(str(abs(n)))
    if digits > 30:
        return f"a {digits}-digit {'negative ' if n < 0 else ''}{noun}"
    return f"{noun} {n}" if named else str(n)


def _arg(*flags, **options):
    return flags, options


# Every subcommand, in help order: name -> (function, help, arguments),
# each argument the flags and options of one `add_argument` call.  Every
# subcommand also takes `--format`.
_COMMANDS = {
    "alpha": (cmd_alpha, "discriminant ideal colength",
              [_arg("level", type=int)]),
    "beta": (cmd_beta, "staircase weight row",
             [_arg("level", type=int),
              _arg("-j", "--slope", type=int, default=None),
              _arg("--eta", type=_rational, default=None,
                   help="extra slope parameter for the genericity check")]),
    "colength": (cmd_colength, "colength of the level ideal",
                 [_arg("level", type=int)]),
    "vdm-check": (cmd_vdm_check,
                  "chain and syzygy identities on the mixed Vandermondes",
                  [_arg("-m", "--level", type=int, default=None)]),
    "ord-table": (cmd_ord_table, "arc valuations by stratum size",
                  [_arg("-m", "--level", type=int, default=None),
                   _arg("--seed", type=int, default=0,
                        help="accepted and changes nothing: the order is"
                             " exact")]),
    "eta": (cmd_eta, "t-order of e_m(y)^(i+j-2) G_1^2",
            [_arg("level", type=int), _arg("i", type=int),
             _arg("j", type=int)]),
    "normalize": (cmd_normalize, "normal form of a product word",
                  [_arg("-m", "--level", type=int, required=True),
                   _arg("expr")]),
    "integrate": (cmd_integrate, "integral of a product word",
                  [_arg("-m", "--level", type=int, required=True),
                   _arg("expr"),
                   _arg("--chars", default=None,
                        help="character assignment file; keys become"
                             " numbers")]),
    "chern": (cmd_chern, "graded pieces of the bundle class",
              [_arg("-m", "--level", type=int, required=True)]),
    "schubert": (cmd_schubert, "boxed Grassmannian integral",
                 [_arg("--box", type=_box, required=True,
                       help="A,B bounding box"),
                  _arg("--factors", type=_factors, required=True,
                       help="comma list of rN / cN special classes")]),
    "nsec3": (cmd_nsec3, "assembled 3-node count, times 3!",
              [_arg("--chars", default=None),
               _arg("--breakdown", action="store_true")]),
    "verify-paper": (cmd_verify_paper,
                     "replay every recorded reference computation", []),
}


def _build_parser(names) -> _ArgumentParser:
    """The parser with a subparser for each of names, in table order."""
    parser = _ArgumentParser(prog="taut-calc",
                             description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, arguments) in _COMMANDS.items():
        if name not in names:
            continue
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("pretty", "kv"),
                       default="pretty")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # one command builds only its own subparser; help, no command or an
    # unknown one gets the whole table, so its message lists every command
    known = bool(argv) and argv[0] in _COMMANDS
    parser = _build_parser([argv[0]] if known else _COMMANDS)
    try:
        args = parser.parse_args(argv)
        _check_ranges(args)
        # one command shares its work, e.g. the battery's integrals
        return shares_work(args.func)(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a ParseError is a ValueError, and exists only once its module
        # is loaded, so a command that parses nothing never loads it
        exprparse = sys.modules.get("tautcalc.exprparse")
        print(f"error: {exc}", file=sys.stderr)
        return 1 if exprparse and isinstance(exc, exprparse.ParseError) else 2
    except KeyError as exc:
        # the surface has no pairing or fibre degree for a key
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
