"""Stress tests of the integer product kernel against the definition products.

The kernel sums raw integer products over common denominators and reduces
each output entry once, so these cases push the integers: a factor set over
Q with large coprime denominators, F_2, where most sums cancel, and a prime
near the MAX_PRIME ceiling.  Every entry the kernel hands back must be a
canonical field element, because HomMatrix.equal compares entry dicts.
"""

import os
import random
from fractions import Fraction
from math import gcd

import pytest

from gradix import cli
from gradix.division import GradedDivisionRing
from gradix.elimination import invert_square, row_reduce
from gradix.fields import MAX_PRIME, PrimeField, Rationals, is_prime
from gradix.groupoids import ConnectedBlock, FiniteGroup, FiniteGroupoid
from gradix.matrices import HomMatrix
from oracles import (
    coboundary_twist,
    graded_product,
    matrix_ring_product,
    negate,
    random_element,
    random_matrix_on,
    random_matrix_ring,
    random_signature,
)

Q = Rationals()
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
NEAR_MAX = next(p for p in range(MAX_PRIME, 2, -1) if is_prime(p))


def full_ring(field, objects, group):
    """Full support on one block, factor set identically 1."""
    g = FiniteGroupoid([ConnectedBlock(objects, group)])
    support = list(g.morphisms())
    one = field.one()
    factor = {(s, t): one for s in support for t in support if g.is_composable(s, t)}
    return GradedDivisionRing(field, g, support, factor)


def big_denominator_ring():
    """Two objects with C_2 isotropy over Q, twisted by a coboundary whose
    values have the coprime denominators 7^20 and 11^15."""
    ring = full_ring(Q, [0, 1], FiniteGroup.cyclic(2))
    g = ring.groupoid
    scalars = [Fraction(3, 7**20), Fraction(-(5**9), 11**15), Fraction(7**20, 11**15), Fraction(-(11**15), 13)]
    c = {}
    for k, m in enumerate(sorted(ring.support)):
        c[m] = Q.one() if g.is_identity(m) else scalars[k % len(scalars)]
    factor = {(s, t): v * c[s] * c[t] / c[g.compose(s, t)] for (s, t), v in ring.factor.items()}
    return GradedDivisionRing(Q, g, ring.support, factor)


def stress_rings():
    rng = random.Random(11)
    return [
        big_denominator_ring(),
        full_ring(PrimeField(2), [0, 1, 2], FiniteGroup.cyclic(2)),
        coboundary_twist(full_ring(PrimeField(NEAR_MAX), [0, 1], FiniteGroup.cyclic(3)), rng),
    ]


def assert_canonical(field, entries):
    for c in entries.values():
        if field.kind == "Q":
            assert isinstance(c, Fraction) and c != 0
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        else:
            assert type(c) is int and 0 < c < field.p


def test_big_denominator_ring_has_large_coprime_denominators():
    dens = {v.denominator for v in big_denominator_ring().factor.values()}
    assert any(d % 7**20 == 0 for d in dens) and any(d % 11**15 == 0 for d in dens)


@pytest.mark.parametrize("ring", stress_rings(), ids=["q_big_denominators", "f2", "fp_near_max"])
class TestKernelStress:
    def test_hom_matrix_product_matches_the_definition(self, ring):
        rng = random.Random(5)
        for _ in range(25):
            m, k, n = (rng.randrange(1, 7) for _ in range(3))
            middle = random_signature(rng, ring, k)
            a = random_matrix_on(rng, ring, random_signature(rng, ring, m), middle, 0.8)
            b = random_matrix_on(rng, ring, middle, random_signature(rng, ring, n), 0.8)
            ab = a.mul(b)
            assert ab.entries == graded_product(a, b).entries
            assert_canonical(ring.field, ab.entries)

    def test_matrix_ring_product_matches_the_definition(self, ring):
        rng = random.Random(6)
        pool = sorted(ring.support)
        for _ in range(8):
            r = random_matrix_ring(rng, ring, 4)
            for _ in range(4):
                gamma1 = rng.choice(pool)
                gamma2 = rng.choice([m for m in pool if m.target == gamma1.source])
                x, y = random_element(rng, r, gamma1), random_element(rng, r, gamma2)
                xy = x.mul(y)
                assert xy.equal(matrix_ring_product(x, y))
                assert_canonical(ring.field, xy.entries)

    def test_cancelling_sums_store_no_entry(self, ring):
        # Two equal columns of a times rows y and -y of b: every sum is t - t.
        rng = random.Random(7)
        field = ring.field
        for _ in range(10):
            s = rng.choice(sorted(ring.support))
            a = random_matrix_on(rng, ring, random_signature(rng, ring, 4), [s], 1.0)
            a = a.hstack(a)
            b = random_matrix_on(rng, ring, [s], random_signature(rng, ring, 4), 1.0)
            b = HomMatrix(ring, [s, s], b.col_sig, {
                **{(0, j): c for (_, j), c in b.entries.items()},
                **{(1, j): negate(field, c) for (_, j), c in b.entries.items()},
            })
            assert a.mul(b).entries == {} == graded_product(a, b).entries

    def test_reduction_and_inverse_entries_are_canonical(self, ring):
        rng = random.Random(8)
        pool = [m for m in ring.groupoid.morphisms() if m.target in ring.gamma0()]
        inverted = 0
        for _ in range(40):
            n = rng.randrange(1, 6)
            a = random_matrix_on(rng, ring, [rng.choice(pool) for _ in range(n)], [rng.choice(pool) for _ in range(n)], 0.9)
            assert_canonical(ring.field, row_reduce(a).echelon.entries)
            inv = invert_square(a)
            if inv is not None:
                inverted += 1
                assert_canonical(ring.field, inv.entries)
                assert graded_product(a, inv).entries == HomMatrix.identity(ring, a.row_sig).entries
        assert inverted > 0


class TestFactorRows:
    def test_construction_and_validation_build_no_table(self, monkeypatch, capsys):
        def refuse(ring):
            raise AssertionError("factor rows built during validation")

        monkeypatch.setattr(GradedDivisionRing, "factor_rows", refuse)
        assert cli.run(["validate", os.path.join(FIXTURES, "pfm_m3.ring.json")]) == 0
        assert full_ring(Q, [0, 1], FiniteGroup.cyclic(2))._factor_rows is None

    def test_rows_hold_exactly_the_factor_set(self):
        ring = full_ring(PrimeField(10007), range(16), FiniteGroup.trivial())
        assert len(ring.factor) == 4096
        sig = [ring.groupoid.identity(x) for x in range(16)]
        one = HomMatrix.identity(ring, sig)
        assert ring._factor_rows is None
        assert one.mul(one).equal(one)
        rows = ring._factor_rows
        assert len(rows.pos) == len(ring.support) == 256
        assert sum(map(len, rows.values.values())) == sum(map(len, rows.numerators.values())) == 4096
        for s, row in rows.values.items():
            for t, k in rows.pos.items():
                if t.target == s.source:
                    assert row[k] == ring.factor[(s, t)]

    def test_q_rows_share_one_denominator(self):
        ring = big_denominator_ring()
        rows = ring.factor_rows()
        for s, nums in rows.numerators.items():
            assert [Fraction(v, rows.denominator) for v in nums] == rows.values[s]
