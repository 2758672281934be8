"""The benchmark's answer checks must reject wrong answers.

A check that accepts everything would let a broken program pass the
benchmark unnoticed, so each check is shown a right answer (from gradix)
and a deliberately wrong one.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_checks.py
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import cli  # noqa: E402
import gen  # noqa: E402
from ref import Field, Groupoid, Matrix, Ring, cyclic, mat_mul, symmetric3  # noqa: E402

from gradix.elimination import invert_square, solve  # noqa: E402
from gradix.matrices import HomMatrix  # noqa: E402
from gradix.specfiles import load_division_ring  # noqa: E402


@pytest.fixture(params=[gen.P, None], ids=["fp", "q"])
def ring(request):
    rng = random.Random(7)
    return gen.full_ring(Field(request.param), Groupoid([((0,), symmetric3())]), rng)


def to_gradix(ring, g_ring, m):
    g = g_ring.groupoid
    return HomMatrix(
        g_ring,
        [g.morphism_from_json(list(x)) for x in m.row_sig],
        [g.morphism_from_json(list(x)) for x in m.col_sig],
        {k: g_ring.field.coerce(ring.field.to_json(v)) for k, v in m.entries.items()},
    )


def flipped(ring, m):
    """The same matrix with one entry changed."""
    entries = dict(m.entries)
    key = min(entries)
    entries[key] = ring.field.add(entries[key], ring.field.one())
    return Matrix(m.row_sig, m.col_sig, entries)


def test_inverse_rejects_a_flipped_entry(ring):
    rng = random.Random(1)
    a = gen.invertible(rng, ring, 4)
    b = checks.to_ref(invert_square(to_gradix(ring, load_division_ring(ring.spec()), a)))
    assert checks.inverse(ring, a, b)
    assert not checks.inverse(ring, a, flipped(ring, b))
    assert not checks.inverse(ring, a, None)


def test_solution_and_product_reject_a_changed_entry(ring):
    rng = random.Random(2)
    g_ring = load_division_ring(ring.spec())
    a = gen.invertible(rng, ring, 4)
    rhs = mat_mul(ring, a, gen.column(rng, ring, a.col_sig))
    x = checks.to_ref(solve(to_gradix(ring, g_ring, a), to_gradix(ring, g_ring, rhs)))
    assert checks.solution(ring, a, x, rhs)
    assert not checks.solution(ring, a, flipped(ring, x), rhs)
    assert checks.product(ring, a, x, rhs)
    assert not checks.product(ring, a, x, flipped(ring, rhs))


def test_ranks_reject_off_by_one_and_a_wrong_skip():
    assert checks.ranks((3, 3, 3, 3, False), 3, skipped=False)
    assert checks.ranks((3, 3, 3, None, True), 3, skipped=True)
    off_by_one = [(4, 3, 3, 3, False), (3, 2, 3, 3, False), (3, 3, 4, 3, False), (3, 3, 3, 2, False)]
    for bad in off_by_one + [(3, 3, 3, None, True)]:
        assert not checks.ranks(bad, 3, skipped=False)
    assert not checks.ranks((3, 3, 3, 4, False), 3, skipped=True)


def test_decomposition_and_flags_reject_wrong_values():
    assert checks.decomposition([3, 2], [2, 3])
    assert not checks.decomposition([3, 3], [2, 3])
    assert not checks.decomposition([2, 3, 1], [2, 3])
    want = {"gr_division": False, "pfm": True}
    assert checks.flags({"gr_division": False, "pfm": True, "ipbn": False}, want)
    assert not checks.flags({"gr_division": True, "pfm": True}, want)


def test_iso_rejects_a_flipped_flag():
    assert checks.iso(True, True) and checks.iso(False, False)
    assert not checks.iso(False, True)
    assert not checks.iso(True, False)
    assert not checks.iso(None, False)


def test_hom_dims_reject_a_wrong_dimension():
    cat = gen.Category(random.Random(3), Field(None), [(1, 0), (0, 1), (1, 1)])
    want = {(a, b): cat.hom_dim(a, b) for a in cat.objects for b in cat.objects}
    got = {k: v for k, v in want.items() if v}
    assert checks.hom_dims(got, want)
    key = next(iter(got))
    assert not checks.hom_dims({**got, key: got[key] + 1}, want)
    assert not checks.hom_dims({k: v for k, v in got.items() if k != key}, want)


def test_rejection_needs_exit_1_the_invariant_and_no_traceback():
    assert checks.rejection(1, "error: factor.cocycle: fails", "factor.cocycle")
    assert not checks.rejection(2, "error: factor.cocycle: fails", "factor.cocycle")
    assert not checks.rejection(0, "", "factor.cocycle")
    assert not checks.rejection(1, "error: factor.domain: missing", "factor.cocycle")
    assert not checks.rejection(1, "Traceback (most recent call last):\nfactor.cocycle", "factor.cocycle")
    assert checks.clean_usage_error(2, "error: bad slot")
    assert not checks.clean_usage_error(1, "Traceback (most recent call last):\nTypeError")


def test_cli_output_checks_reject_wrong_records():
    files, facts = cli.make(5)
    by_verb = {argv[-1]: check for _, argv, check in cli.verb_checks(facts, lambda name: name)}
    assert by_verb["ring12.json"]({"kind": "ring", "support": 144, "objects": 12, "prime": True})
    assert not by_verb["ring12.json"]({"kind": "ring", "support": 143, "objects": 12, "prime": True})
    rank = {"rho_r": 5, "rho_c": 5, "rho": 5, "rho_i": None, "rho_i_skipped": True}
    assert by_verb["rank.json"](rank)
    assert not by_verb["rank.json"](dict(rank, rho_c=4))
    assert by_verb["iso_b.json"]({"isomorphic": True})
    assert not by_verb["iso_b.json"]({"isomorphic": False})
    assert not by_verb["span.json"]({"pdim": 6, "span_pdim": 3, "quotient_pdim": 2})


def test_reference_product_is_the_twisted_product():
    """u_s u_t = factor(s, t) u_st on 1 x 1 matrices over C_2 with a nontrivial twist."""
    field = Field(gen.P)
    g = Groupoid([((0,), cyclic(2))])
    s = (0, 0, 1, 0)
    e = (0, 0, 0, 0)
    factor = {(e, e): 1, (e, s): 1, (s, e): 1, (s, s): 5}
    ring = Ring(field, g, [e, s], factor)
    a = Matrix([s], [e], {(0, 0): 2})
    b = Matrix([e], [s], {(0, 0): 3})
    assert mat_mul(ring, a, b).entries == {(0, 0): 30}
