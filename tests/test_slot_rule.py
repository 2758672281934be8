"""The slot rule and the entry check, against their definitions.

Slot (i, j) of a hom-space matrix over [alpha][beta] sits at the degree
alpha_i beta_j^-1 and is alive when that degree is defined and in the
support.  ``FiniteGroupoid.compose_inverse`` and
``GradedDivisionRing.slot`` compute it in one step; here they are
compared with ``compose(a, inverse(b))`` plus a support test on every
morphism pair of the fixture rings and of the product test rings, each
also under a coboundary twist.  The one entry check, ``live_entries``,
is exercised through its three callers: each refuses an entry outside
the index range and a nonzero entry at a dead slot under its own
invariant name, and drops a zero.  Operands over different rings are
refused by ``matrix.common_ring``.
"""

import random

import pytest

from gradix.division import GradedDivisionRing
from gradix.errors import ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrices import HomMatrix
from gradix.matrix_ring import MatrixRing
from gradix.modules import GradedModule
from oracles import coboundary_twist, product_test_rings
from test_trusted import RING_FIXTURES, fixture_ring

Q = Rationals()


def rings():
    rng = random.Random(43)
    fixtures = [(name, fixture_ring(name)) for name in RING_FIXTURES]
    fixtures += [(name + " twisted", coboundary_twist(d, rng)) for name, d in fixtures]
    products = [(f"product ring {k}", d) for k, d in enumerate(product_test_rings(random.Random(41)))]
    return fixtures + products


RINGS = rings()


@pytest.mark.parametrize("label, ring", RINGS, ids=[label for label, _ in RINGS])
def test_slot_is_compose_inverse_plus_support(label, ring):
    g = ring.groupoid
    morphisms = list(g.morphisms())
    for a in morphisms:
        for b in morphisms:
            inv = g.inverse(b)
            want = g.compose(a, inv) if g.is_composable(a, inv) else None
            assert g.compose_inverse(a, b) == want, (a, b)
            assert ring.slot(a, b) == (want if want in ring.support else None), (a, b)


def point_pair():
    """The pair groupoid on {1, 2} graded only at the identity of 1."""
    g = FiniteGroupoid.pair([1, 2])
    one = g.identity(1)
    return GradedDivisionRing(Q, g, [one], {(one, one): Q.one()}), one, Morphism(0, 1, 0, 2)


def test_matrix_entry_check():
    ring, one, cross = point_pair()
    assert HomMatrix(ring, [one], [one, cross], {(0, 0): 2, (0, 1): 0}).entries == {(0, 0): 2}
    for entries in ({(0, 2): 1}, {(-1, 0): 1}, {(0, 1): 1}):
        with pytest.raises(ValidationError) as err:
            HomMatrix(ring, [one], [one, cross], entries)
        assert err.value.invariant == "matrix.entry_slot"


def test_vector_entry_check():
    ring, one, cross = point_pair()
    module = GradedModule(ring, [one, cross])
    assert module.vector(one, {0: 3, 1: 0}).entries == {(0, 0): 3}
    for entries in ({2: 1}, {-1: 1}, {1: 1}):
        with pytest.raises(ValidationError) as err:
            module.vector(one, entries)
        assert err.value.invariant == "vector.entry_slot"


def test_element_entry_check():
    ring, one, cross = point_pair()
    mring = MatrixRing(ring, [[one], [cross]])
    # at the identity of 1, index 0 is live and index 1 (source 2) is dead
    assert mring.element(one, {(0, 0): 5, (1, 1): 0}).entries == {(0, 0): 5}
    for entries in ({(0, 2): 1}, {(-1, 0): 1}, {(1, 1): 1}):
        with pytest.raises(ValidationError) as err:
            mring.element(one, entries)
        assert err.value.invariant == "element.entry_slot"


def test_same_ring_compares_field_groupoid_support_and_factor():
    ring, one, _ = point_pair()
    g = ring.groupoid
    full = list(g.morphisms())
    f5, c2 = PrimeField(5), FiniteGroup.cyclic(2)
    assert ring.same_ring(GradedDivisionRing(Q, FiniteGroupoid.pair([1, 2]), [one], {(one, one): Q.one()}))
    assert not ring.same_ring(GradedDivisionRing(f5, g, [one], {(one, one): 1}))
    assert not ring.same_ring(GradedDivisionRing.group_ring(Q, FiniteGroup.trivial(), 1))
    assert not ring.same_ring(
        GradedDivisionRing(Q, g, full, {(s, t): Q.one() for s in full for t in full if g.is_composable(s, t)})
    )
    twisted = GradedDivisionRing.twisted_group_ring(f5, c2, lambda i, j: 2 if i == j == 1 else 1)
    assert not GradedDivisionRing.group_ring(f5, c2).same_ring(twisted)


def test_operands_over_different_rings():
    """Equal support and factor set, but another field or another groupoid."""
    ring, one, _ = point_pair()
    a = HomMatrix(ring, [one], [one], {(0, 0): 1})
    for other in (GradedDivisionRing(PrimeField(5), ring.groupoid, [one], {(one, one): 1}), GradedDivisionRing.group_ring(Q, FiniteGroup.trivial(), 1)):
        b = HomMatrix(other, [one], [one], {(0, 0): 1})
        assert not a.equal(b)
        for op in (a.mul, a.hstack):
            with pytest.raises(ValidationError) as err:
                op(b)
            assert err.value.invariant == "matrix.common_ring"
        assert not MatrixRing(ring, [[one]]).same_shape(MatrixRing(other, [[one]]))
