import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradix.division import GradedDivisionRing
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrices import HomMatrix
from gradix.matrix_ring import MatrixRing
from oracles import gr_prime_by_products, sample_nonzero

Q = Rationals()


def two_block_ring():
    """4x4 pair groupoid over Q, support = {1,2}^2 union {3,4}^2, factor 1.

    A graded division ring with two primality classes.
    """
    g = FiniteGroupoid.pair([1, 2, 3, 4])
    support = [m for m in g.morphisms() if {m.source, m.target} <= {1, 2} or {m.source, m.target} <= {3, 4}]
    factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
    return GradedDivisionRing(Q, g, support, factor)


def twisted_c2_f3():
    """F_3 with C_2 twisted by factor(g,g) = 2: not equivalent to the plain group ring."""
    F3 = PrimeField(3)
    c2 = FiniteGroup.cyclic(2)
    return GradedDivisionRing.twisted_group_ring(F3, c2, lambda a, b: 2 if a == 1 and b == 1 else 1)


class TestConstruction:
    def test_trivial(self):
        d = GradedDivisionRing.group_ring(Q, FiniteGroup.trivial(), 7)
        assert d.gamma0() == (7,)
        assert len(d.support) == 1
        one = (d.groupoid.identity(7), Q.one())
        assert d.mul(one, one) == one

    def test_group_ring(self):
        d = GradedDivisionRing.group_ring(PrimeField(5), FiniteGroup.cyclic(2))
        assert len(d.support) == 2
        g = next(m for m in sorted(d.support) if m.elem == 1)
        x = (g, 3)
        assert d.mul(x, x) == (d.groupoid.identity(0), 9 % 5)

    def test_twisted_group_ring_validates(self):
        d = twisted_c2_f3()
        g = next(m for m in sorted(d.support) if m.elem == 1)
        x = (g, d.field.one())
        assert d.mul(x, x) == (d.groupoid.identity(0), 2)

    def test_bad_cocycle_rejected(self):
        F5 = PrimeField(5)
        c4 = FiniteGroup.cyclic(4)
        # factor(a,b) = 2 only for a=b=1 is not a cocycle on C4.
        with pytest.raises(ValidationError) as e:
            GradedDivisionRing.twisted_group_ring(F5, c4, lambda a, b: 2 if (a, b) == (1, 1) else 1)
        assert e.value.invariant == "factor.cocycle"

    def test_zero_factor_rejected(self):
        F5 = PrimeField(5)
        c2 = FiniteGroup.cyclic(2)
        with pytest.raises(ValidationError) as e:
            GradedDivisionRing.twisted_group_ring(F5, c2, lambda a, b: 0 if a == b == 1 else 1)
        assert e.value.invariant == "factor.nonzero"

    def test_support_closure_rejected(self):
        g = FiniteGroupoid.pair([1, 2])
        support = [g.identity(1), g.identity(2), Morphism(0, 2, 0, 1)]  # lacks the inverse 2 -> 1
        factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
        with pytest.raises(ValidationError) as e:
            GradedDivisionRing(Q, g, support, factor)
        assert e.value.invariant == "support.inverse_closed"

    def test_missing_identity_rejected(self):
        g = FiniteGroupoid.pair([1, 2])
        support = [g.identity(1), Morphism(0, 2, 0, 1), Morphism(0, 1, 0, 2), g.identity(2)]
        factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
        ok = GradedDivisionRing(Q, g, support, factor)
        assert ok.is_gr_prime()
        support2 = [m for m in support if m != g.identity(2)]
        factor2 = {(s, t): Q.one() for s in support2 for t in support2 if g.is_composable(s, t)}
        with pytest.raises(ValidationError) as e:
            GradedDivisionRing(Q, g, support2, factor2)
        assert e.value.invariant in ("support.identities", "support.composition_closed")

    def test_missing_factor_entry_rejected(self):
        g = FiniteGroupoid.pair([1])
        ident = g.identity(1)
        with pytest.raises(ValidationError) as e:
            GradedDivisionRing(Q, g, [ident], {})
        assert e.value.invariant == "factor.domain"

    def test_empty_support_rejected(self):
        g = FiniteGroupoid.pair([1])
        with pytest.raises(ValidationError) as e:
            GradedDivisionRing(Q, g, [], {})
        assert e.value.invariant == "support.nonempty"


class TestArithmetic:
    def test_inverse_two_sided(self):
        for d in (two_block_ring(), twisted_c2_f3()):
            rng = random.Random(11)
            for m in sorted(d.support):
                x = (m, sample_nonzero(d.field, rng))
                xi = d.inv(x)
                assert d.mul(x, xi) == (d.groupoid.identity(m.target), d.field.one())
                assert d.mul(xi, x) == (d.groupoid.identity(m.source), d.field.one())

    def test_non_composable_product_is_zero(self):
        d = two_block_ring()
        a = (Morphism(0, 1, 0, 2), Q.one())  # 2 -> 1
        b = (Morphism(0, 3, 0, 4), Q.one())  # 4 -> 3
        assert d.mul(a, b) is None
        assert d.mul(b, a) is None

    def test_add_same_degree_only(self):
        # Homogeneous elements add only within one degree: over D they are
        # the 1x1 elements of the matrix ring with signatures {1_1, 1_2}.
        d = two_block_ring()
        r = MatrixRing(d, [[d.groupoid.identity(1), d.groupoid.identity(2)]])
        a = r.element(Morphism(0, 1, 0, 2), {(0, 0): 1})
        with pytest.raises(GradixError):
            a.add(r.identity_at(1))
        assert a.add(r.element(Morphism(0, 1, 0, 2), {(0, 0): -1})).is_zero
        assert a.add(r.zero()).equal(a)

    def test_scalar_outside_support(self):
        # A coefficient lives only at a support degree; a zero one carries none.
        d = two_block_ring()
        outside, at_3 = Morphism(0, 1, 0, 3), d.groupoid.identity(3)  # 3 -> 1 is outside the support
        with pytest.raises(GradixError):
            HomMatrix(d, [outside], [at_3], {(0, 0): 1})
        assert HomMatrix(d, [outside], [at_3], {(0, 0): 0}).entries == {}

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(1, 4), st.integers(1, 4))
    def test_associativity_in_twisted_ring(self, e1, e2, c1, c2):
        d = twisted_c2_f3()
        ms = sorted(d.support)
        x = (ms[e1], c1 % 3 or 1)
        y = (ms[e2], c2 % 3 or 1)
        z = (ms[1], 1)
        assert d.mul(d.mul(x, y), z) == d.mul(x, d.mul(y, z))


class TestPrimality:
    def test_two_block_classes(self):
        d = two_block_ring()
        assert d.primality_classes() == [[1, 2], [3, 4]]
        assert not d.is_gr_prime()
        assert gr_prime_by_products(d) is False

    def test_decompose_prime(self):
        d = two_block_ring()
        blocks = d.decompose_prime()
        assert len(blocks) == 2
        for blk in blocks:
            assert blk.is_gr_prime()
            assert gr_prime_by_products(blk) is True
        # Component dimensions add up degree by degree.
        for m in d.groupoid.morphisms():
            assert (m in d.support) == sum(m in b.support for b in blocks)

    def test_one_object_ring_is_prime(self):
        assert twisted_c2_f3().is_gr_prime()
        assert gr_prime_by_products(twisted_c2_f3()) is True

    def test_annihilation_across_blocks(self):
        d = two_block_ring()
        for a in d.support:
            for b in d.support:
                if {a.source, a.target} <= {1, 2} and {b.source, b.target} <= {3, 4}:
                    assert d.mul((a, Q.one()), (b, Q.one())) is None


class TestCornersAndOpposite:
    def test_corner(self):
        d = two_block_ring()
        c = d.corner(1)
        assert c.gamma0() == (1,)
        assert len(c.support) == 1

    def test_opposite_is_antimultiplicative(self):
        d = twisted_c2_f3()
        op = d.opposite()
        assert op.support == d.support
        rng = random.Random(3)
        ms = sorted(d.support)
        for a in ms:
            for b in ms:
                x = (a, sample_nonzero(d.field, rng))
                y = (b, sample_nonzero(d.field, rng))
                # In the opposite ring x *op y must equal y * x computed in d.
                assert op.mul(x, y) == d.mul(y, x)

    def test_opposite_involution(self):
        d = twisted_c2_f3()
        opop = d.opposite().opposite()
        assert opop.factor == d.factor

    def test_opposite_is_built_once(self):
        d = twisted_c2_f3()
        assert d.opposite() is d.opposite()
        assert d.opposite().opposite() is d


class TestKeptStructure:
    """Corners, primality classes and connectors are built once per ring."""

    def test_corner_is_built_once(self):
        d = two_block_ring()
        c = d.corner(1)
        assert d.corner(1) is c
        assert d.corner(3) is not c and d.corner(3) is d.corner(3)
        # the corner's own kept structure survives with it
        assert d.corner(1).factor_rows() is c.factor_rows()

    def test_corner_outside_gamma0_is_refused_every_time(self):
        d = GradedDivisionRing.group_ring(Q, FiniteGroup.cyclic(2), 0)
        for _ in range(2):
            with pytest.raises(GradixError, match="not in gamma0"):
                d.corner(5)

    def test_opposite_has_its_own_corners(self):
        d = twisted_c2_f3()
        op = d.opposite()
        assert op.corner(0) is op.corner(0)
        assert op.corner(0) is not d.corner(0)
        g = d.groupoid
        for (s, t), v in d.corner(0).factor.items():
            assert op.corner(0).factor[(g.inverse(t), g.inverse(s))] == v

    def test_changing_the_classes_handed_out_changes_no_later_answer(self):
        d = two_block_ring()
        classes = d.primality_classes()
        classes[0].append(3)
        classes.append([9])
        assert d.primality_classes() == [[1, 2], [3, 4]]
        assert not d.is_gr_prime()
        assert [blk.gamma0() for blk in d.decompose_prime()] == [(1, 2), (3, 4)]

    def test_connector_is_found_once(self):
        d = two_block_ring()
        m = d.connector(2, 1)
        assert m == Morphism(0, 1, 0, 2) and d.connector(2, 1) is m
        assert d.connector(1, 1) == d.groupoid.identity(1)
        for _ in range(2):
            with pytest.raises(GradixError, match="no supported morphism"):
                d.connector(3, 1)


class TestPrimeForm:
    def build(self):
        corner = twisted_c2_f3()
        g = corner.groupoid
        # Extend the one-object groupoid by a second object.
        big = FiniteGroupoid(
            [type(g.blocks[0])([0, 1], g.blocks[0].group)]
        )
        corner_on_big = GradedDivisionRing(
            corner.field,
            big,
            [Morphism(0, 0, m.elem, 0) for m in corner.support],
            {
                (Morphism(0, 0, s.elem, 0), Morphism(0, 0, t.elem, 0)): v
                for (s, t), v in corner.factor.items()
            },
        )
        sections = [big.identity(0), Morphism(0, 0, 0, 1)]
        return GradedDivisionRing.prime_form(corner_on_big, sections), corner_on_big

    def test_prime_form_is_prime_division(self):
        d, corner = self.build()
        assert d.is_gr_prime()
        assert d.gamma0() == (0, 1)
        assert len(d.support) == 2 * 2 * 2
        assert gr_prime_by_products(d) is True

    def test_prime_form_restricts_to_corner(self):
        d, corner = self.build()
        back = d.corner(0)
        assert back.support == corner.support
        assert back.factor == corner.factor

    def test_prime_form_rejects_bad_sections(self):
        _, corner = self.build()
        big = corner.groupoid
        with pytest.raises(GradixError):
            GradedDivisionRing.prime_form(corner, [Morphism(0, 0, 1, 0)])  # base section not identity
        with pytest.raises(GradixError):
            GradedDivisionRing.prime_form(corner, [Morphism(0, 0, 0, 1)])  # missing base object
