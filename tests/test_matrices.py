import random

import pytest

from gradix.division import GradedDivisionRing
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrices import HomMatrix
from oracles import (
    graded_product,
    product_test_rings,
    random_matrix_on,
    random_module,
    random_signature,
    random_vectors,
    sample_nonzero,
)

Q = Rationals()


def rational_point():
    return GradedDivisionRing.group_ring(Q, FiniteGroup.trivial(), 0)


def f5_c2():
    return GradedDivisionRing.group_ring(PrimeField(5), FiniteGroup.cyclic(2))


def pair_ring():
    """Trivially twisted pair groupoid ring on two objects over Q."""
    g = FiniteGroupoid.pair([0, 1])
    support = list(g.morphisms())
    factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
    return GradedDivisionRing(Q, g, support, factor)


def test_slot_degrees_and_dead_slots():
    d = pair_ring()
    e0, e1 = d.groupoid.identity(0), d.groupoid.identity(1)
    a = HomMatrix(d, [e0, e1], [e0, e1])
    assert a.slot_degree(0, 0) == e0
    assert a.slot_degree(0, 1) is None  # sources differ, degree undefined
    assert a.slot_degree(1, 0) is None
    with pytest.raises(ValidationError) as err:
        HomMatrix(d, [e0, e1], [e0, e1], {(0, 1): Q.one()})
    assert err.value.invariant == "matrix.entry_slot"


def test_entry_slot_outside_support():
    d = GradedDivisionRing.group_ring(Q, FiniteGroup.trivial(), 0)
    # A ring with a second object not touched by the support.
    g = FiniteGroupoid.pair([0, 1])
    ident = g.identity(0)
    ring = GradedDivisionRing(Q, g, [ident], {(ident, ident): Q.one()})
    cross = Morphism(0, 1, 0, 0)
    m = HomMatrix(ring, [ident], [g.inverse(cross)])
    assert m.slot_degree(0, 0) is None  # the degree exists but is outside the support
    with pytest.raises(ValidationError):
        HomMatrix(ring, [ident], [g.inverse(cross)], {(0, 0): Q.one()})


def test_identity_neutrality():
    d = f5_c2()
    e = d.groupoid.identity(0)
    g = Morphism(0, 0, 1, 0)
    a = HomMatrix(d, [e, g], [e, g], {(0, 0): 2, (0, 1): 3, (1, 0): 1, (1, 1): 4})
    i_left = HomMatrix.identity(d, [e, g])
    assert i_left.mul(a).equal(a)
    assert a.mul(HomMatrix.identity(d, [e, g])).equal(a)


def test_mul_signature_mismatch():
    d = rational_point()
    e = d.groupoid.identity(0)
    a = HomMatrix(d, [e], [e, e])
    b = HomMatrix(d, [e], [e])
    with pytest.raises(GradixError):
        a.mul(a)
    assert a.mul(HomMatrix(d, [e, e], [e])).shape == (1, 1)
    with pytest.raises(GradixError):
        b.hstack(HomMatrix(d, [e, e], [e]))


def test_product_degree_coherence_group_ring():
    d = f5_c2()
    e = d.groupoid.identity(0)
    g = Morphism(0, 0, 1, 0)
    # x = [e g] row against mixed signatures exercises slot arithmetic.
    a = HomMatrix(d, [e], [e, g], {(0, 0): 1, (0, 1): 2})
    b = HomMatrix(d, [e, g], [g], {(0, 0): 3, (1, 0): 4})
    ab = a.mul(b)
    assert ab.shape == (1, 1)
    # slot degree e*g^{ -1} = g; contributions 1*3 at degree g and 2*4 at g*e... both land at g.
    assert ab.slot_degree(0, 0) == g
    assert ab.coeff(0, 0) == (1 * 3 + 2 * 4) % 5


def test_transpose_opposite_antimultiplicative():
    d = f5_c2()
    e = d.groupoid.identity(0)
    g = Morphism(0, 0, 1, 0)
    rng = random.Random(7)
    sigs = [e, g]
    for _ in range(25):
        rs = [rng.choice(sigs) for _ in range(2)]
        ms = [rng.choice(sigs) for _ in range(2)]
        cs = [rng.choice(sigs) for _ in range(2)]
        a = HomMatrix(d, rs, ms)
        b = HomMatrix(d, ms, cs)
        for i in range(2):
            for j in range(2):
                if a.slot_degree(i, j) is not None and rng.random() < 0.7:
                    a.entries[(i, j)] = rng.randrange(1, 5)
                if b.slot_degree(i, j) is not None and rng.random() < 0.7:
                    b.entries[(i, j)] = rng.randrange(1, 5)
        lhs = a.mul(b).transpose_opposite()
        rhs = b.transpose_opposite().mul(a.transpose_opposite())
        assert lhs.equal(rhs)


def test_double_transpose_opposite_is_identity():
    d = f5_c2()
    e = d.groupoid.identity(0)
    g = Morphism(0, 0, 1, 0)
    a = HomMatrix(d, [e, g], [g, e], {(0, 1): 2, (1, 0): 3})
    back = a.transpose_opposite().transpose_opposite()
    assert back.equal(a)


def test_submatrix_hstack_column():
    d = rational_point()
    e = d.groupoid.identity(0)
    a = HomMatrix(d, [e, e], [e, e], {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
    sub = a.submatrix([1], [0, 1])
    assert sub.shape == (1, 2)
    assert sub.coeff(0, 1) == 4
    st = a.hstack(a.submatrix([0, 1], [0]))
    assert st.shape == (2, 3)
    assert st.coeff(0, 2) == 1
    assert st.coeff(1, 2) == 3


def test_submatrix_matches_a_slot_by_slot_copy():
    # positions repeated and out of order, as well as dropped
    rng = random.Random(32)
    for ring in product_test_rings(rng):
        a = random_matrix_on(rng, ring, random_signature(rng, ring, 5), random_signature(rng, ring, 4))
        rows = [rng.randrange(5) for _ in range(rng.randrange(1, 7))]
        cols = [rng.randrange(4) for _ in range(rng.randrange(1, 6))]
        sub = a.submatrix(rows, cols)
        assert sub.row_sig == tuple(a.row_sig[i] for i in rows)
        assert sub.col_sig == tuple(a.col_sig[j] for j in cols)
        assert sub.entries == {
            (p, q): a.entries[(i, j)]
            for p, i in enumerate(rows)
            for q, j in enumerate(cols)
            if (i, j) in a.entries
        }


def test_identity_requires_gamma0_targets():
    g = FiniteGroupoid.pair([0, 1])
    ident = g.identity(0)
    ring = GradedDivisionRing(Q, g, [ident], {(ident, ident): Q.one()})
    cross = Morphism(0, 1, 0, 0)  # target 1 is outside gamma0
    with pytest.raises(GradixError):
        HomMatrix.identity(ring, [cross])


def test_mul_matches_the_definition():
    rng = random.Random(31)
    rings = product_test_rings(rng)
    for ring in rings:
        for _ in range(15):
            m, k, n = (rng.randrange(1, 6) for _ in range(3))
            middle = random_signature(rng, ring, k)
            a = random_matrix_on(rng, ring, random_signature(rng, ring, m), middle)
            b = random_matrix_on(rng, ring, middle, random_signature(rng, ring, n))
            assert a.mul(b).entries == graded_product(a, b).entries
    # A vector of degree tau times the 1x1 matrix [tau^-1][(tau s)^-1] is the
    # right action of a ring element of degree s; it lands at degree tau s.
    for ring in rings:
        g = ring.groupoid
        for _ in range(10):
            (v,) = random_vectors(rng, random_module(rng, ring, max_pdim=4), 1)
            tau = g.inverse(v.col_sig[0])
            degrees = [d for d in sorted(ring.support) if d.target == tau.source]
            if not degrees:
                continue
            s = rng.choice(degrees)
            x = (s, sample_nonzero(ring.field, rng))
            a = HomMatrix(ring, v.col_sig, [g.inverse(g.compose(tau, s))], {(0, 0): x[1]})
            assert a.slot_degree(0, 0) == s
            va = v.mul(a)
            assert va.entries == graded_product(v, a).entries
            assert g.inverse(va.col_sig[0]) == g.compose(tau, s)
            # acting by x and then by x^-1 gives v back; acting twice is acting by the product
            back = HomMatrix(ring, va.col_sig, v.col_sig, {(0, 0): ring.inv(x)[1]})
            assert va.mul(back).equal(v)
            t = rng.choice([d for d in sorted(ring.support) if d.target == s.source])
            b = HomMatrix(ring, va.col_sig, [g.inverse(g.compose(g.compose(tau, s), t))], {(0, 0): sample_nonzero(ring.field, rng)})
            assert va.mul(b).equal(v.mul(a.mul(b)))
