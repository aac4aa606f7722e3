"""Work shared within one call or one command, never across them.

A scope opened by a library entry point or by `cli.main` holds the
Gamma images, the class images, the Vandermonde generators, the beta
colengths and the seedless piece integrals computed inside it, and
closes when that call returns.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter

import pytest

import tautcalc
from tautcalc import cli, polyoracle, staircase, tautring
from tautcalc.exprparse import evaluate_integral, evaluate_normal
from tautcalc.schubert import nsec3_terms
from test_golden import DATA, cases, line


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def computed(monkeypatch):
    """Count the Gamma images and generator views actually computed."""
    counts = Counter()

    def counting(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[key(*args)] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("mul_gamma_diag", "mul_gamma_node"):
        counting(tautring, name, lambda gen: ("gamma", gen))
    counting(polyoracle, "_build", lambda view, m, i: ("vdm", view, m, i))
    counting(staircase, "_beta_single",
             lambda m, j, eta: ("beta", m, j, eta))
    return counts


@pytest.mark.parametrize("argv, kind", [(["verify-paper"], "gamma"),
                                        (["verify-paper"], "vdm"),
                                        (["verify-paper"], "beta"),
                                        (["vdm-check"], "vdm"),
                                        (["nsec3"], "gamma"),
                                        (["chern", "-m", "3"], "gamma")])
def test_one_command_computes_each_image_once(argv, kind, computed):
    assert _run_cli(argv) == 0
    mine = {key: n for key, n in computed.items() if key[0] == kind}
    assert mine and set(mine.values()) == {1}


def test_scope_is_unset_after_every_public_call(monkeypatch):
    opened = []
    original = tautring.mul_gamma_diag

    def probe(*args):
        opened.append(tautcalc._SHARED.get() is not None)
        return original(*args)

    monkeypatch.setattr(tautring, "mul_gamma_diag", probe)
    calls = [
        lambda: evaluate_integral("Delta<3>^4", 3),
        lambda: evaluate_normal("Delta<3>^2", 3),
        lambda: tautring.integrate_word([("gamma", 2)] * 3, 2),
        lambda: tautring.expand_monomial([("gamma", 3)], 3),
        lambda: tautring.chern_taut(2),
        nsec3_terms,
        lambda: _run_cli(["integrate", "-m", "3", "Delta<3>^4"]),
        lambda: _run_cli(["integrate", "-m", "3", "Delta<3>^3"]),
    ]
    for call in calls:
        call()
        assert tautcalc._SHARED.get() is None
    with pytest.raises(tautring.DimensionError):
        tautring.integrate_word([("gamma", 2)] * 2, 2)
    assert tautcalc._SHARED.get() is None
    assert opened and all(opened)


def test_direct_calls_share_nothing(computed):
    # no scope open: each call computes afresh
    first, second = polyoracle.vdm_det(3, 2), polyoracle.vdm_det(3, 2)
    assert first == second and first is not second
    assert computed[("vdm", "terms", 3, 2)] == 2
    for _ in range(2):
        polyoracle.check_chain(3, 2)
        polyoracle.eta_valuation(3, 1, 2)
    assert computed[("vdm", "packed", 3, 2)] == 2
    assert computed[("vdm", "packed", 3, 3)] == 2
    assert computed[("vdm", "packed", 3, 1)] == 2
    expr = tautring.unit(2)
    tautring.mul_gamma(expr)
    tautring.mul_gamma(expr)
    assert set(n for key, n in computed.items() if key[0] == "gamma") == {2}


def test_ord_table_builds_each_generator_once_per_call(computed):
    # one scope per call: m generators, and m fresh ones on the next call
    for calls in (1, 2):
        polyoracle.ord_table(4)
        vdm = {key: n for key, n in computed.items() if key[0] == "vdm"}
        assert vdm == {("vdm", "terms", 4, j): calls for j in range(1, 5)}


def test_commands_share_nothing(computed):
    for _ in range(2):
        assert _run_cli(["vdm-check", "-m", "3"]) == 0
    assert set(n for key, n in computed.items() if key[0] == "vdm") == {2}


def test_golden_renders_twice_in_one_scope():
    """No shared piece is mutated or handed out: a second pass over the
    golden set, reading every image from the table, renders the same."""
    want = DATA.read_text(encoding="utf-8").splitlines()

    @tautcalc.shares_work
    def both_passes():
        return [[line(*case) for case in cases()] for _ in range(2)]

    for got in both_passes():
        assert got == want


@pytest.fixture
def pieces(monkeypatch):
    """Count the seedless pieces evaluated, by (levels, classes, m)."""
    counts = Counter()
    original = tautring._eval_up

    def counting(levels, classes, seed, m):
        if seed is None:
            counts[levels, classes, m] += 1
        return original(levels, classes, seed, m)

    monkeypatch.setattr(tautring, "_eval_up", counting)
    return counts


def test_one_nsec3_integrates_each_piece_once(pieces):
    # the ten nsec3 integrals merge into 111 pieces, 65 of them distinct
    assert _run_cli(["nsec3"]) == 0
    assert len(pieces) == 65 and set(pieces.values()) == {1}


def test_direct_integrals_share_no_piece(pieces):
    first = evaluate_integral("Delta<3>^4", 3)
    assert evaluate_integral("Delta<3>^4", 3) == first
    assert pieces and set(pieces.values()) == {2}


def test_pieces_are_keyed_by_their_classes_and_level():
    # the same Gamma levels under different slot classes, at two levels
    texts = [("L(1)*Delta<2>^2", 2), ("omega(1)*Delta<2>^2", 2),
             ("L(1)*Delta<2>^2*Delta<3>", 3),
             ("omega(3)*Delta<2>^2*Delta<3>", 3)]
    alone = [evaluate_integral(text, m) for text, m in texts]

    @tautcalc.shares_work
    def together():
        values = [evaluate_integral(text, m) for text, m in texts]
        return values, tautcalc.shared_table("piece")

    values, table = together()
    assert values == alone
    assert len(set(alone[:2])) == 2
    assert {(classes, m) for _levels, classes, m in table} == {
        (((1, "L"),), 2), (((1, "omega"),), 2),
        (((1, "L"),), 3), (((3, "omega"),), 3)}
