import random

import pytest

from gradix.division import GradedDivisionRing
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import ConnectedBlock, FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrix_ring import MatrixRing, matrix_form
from gradix.specfiles import load_matrix_ring
from gradix.structure import wedderburn_decompose
from oracles import (
    benchmark_structure_inputs,
    component_dimension_by_slots,
    matrix_ring_product,
    product_test_rings,
    random_element,
    random_matrix_ring,
    sample_nonzero,
)

Q = Rationals()


def pair_ring(objs=(1, 2)):
    g = FiniteGroupoid.pair(list(objs))
    support = list(g.morphisms())
    factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
    return GradedDivisionRing(Q, g, support, factor)


def m3_shape_ring():
    """Three indices over the two-object pair ring: sources 1, 1, 2."""
    d = pair_ring()
    g = d.groupoid
    one_1 = g.identity(1)
    cross = Morphism(0, 1, 0, 2)  # 2 -> 1
    return d, MatrixRing(d, [[one_1], [one_1], [cross]])


class TestSignatureValidation:
    def test_r_unique_rejects_repeated_target(self):
        d = pair_ring()
        g = d.groupoid
        # two morphisms in one set, both landing on object 1
        with pytest.raises(ValidationError) as err:
            MatrixRing(d, [[g.identity(1), Morphism(0, 1, 0, 2)]])
        assert err.value.invariant == "signature.r_unique"

    def test_d_unique_rejects_repeated_source(self):
        d = pair_ring()
        g = d.groupoid
        with pytest.raises(ValidationError) as err:
            MatrixRing(d, [[g.identity(1), Morphism(0, 2, 0, 1)]])
        assert err.value.invariant == "signature.d_unique"

    def test_target_outside_gamma0(self):
        g = FiniteGroupoid.pair([1, 2])
        ident = g.identity(1)
        d = GradedDivisionRing(Q, g, [ident], {(ident, ident): Q.one()})
        with pytest.raises(ValidationError) as err:
            MatrixRing(d, [[g.identity(2)]])
        assert err.value.invariant == "signature.r_unique"

    def test_empty_signature_set(self):
        d = pair_ring()
        with pytest.raises(ValidationError) as err:
            MatrixRing(d, [[d.groupoid.identity(1)], []])
        assert err.value.invariant == "signature.nonempty"

    def test_mixed_targets_allowed_across_indices(self):
        d = pair_ring()
        g = d.groupoid
        r = MatrixRing(d, [[g.identity(1)], [g.identity(2)]])
        assert r.size == 2


class TestComponents:
    def test_component_dimensions_total_nine(self):
        d, r = m3_shape_ring()
        g = d.groupoid
        dims = r.dimension_table()
        assert dims == {gamma: component_dimension_by_slots(r, Morphism(*gamma)) for gamma in dims}
        assert dims[g.identity(1)] == 4
        assert dims[g.identity(2)] == 1
        assert dims[Morphism(0, 1, 0, 2)] == 2
        assert dims[Morphism(0, 2, 0, 1)] == 2
        assert sum(dims.values()) == 9

    def test_dimension_table_keys_are_plain_tuples(self):
        _, r = m3_shape_ring()
        table = r.dimension_table()
        assert all(type(gamma) is tuple and len(gamma) == 4 for gamma in table)
        assert sorted(table) == sorted(Morphism(*gamma) for gamma in table)

    @staticmethod
    def _matches_slot_scan(r):
        table = r.dimension_table()
        assert all(n > 0 for n in table.values())
        for gamma in r.ring.groupoid.morphisms():
            assert table.get(gamma, 0) == component_dimension_by_slots(r, gamma)

    def test_dimension_table_matches_a_slot_scan(self):
        # product_test_rings holds each ring and a coboundary twist of it;
        # random_matrix_ring draws signature sets of one or several morphisms
        rng = random.Random(12)
        for ring in product_test_rings(rng):
            for size in (1, 3, 5):
                self._matches_slot_scan(random_matrix_ring(rng, ring, size))

    def test_dimension_table_with_order_four_isotropy(self):
        # Signatures in C_4 need not be their own inverses, and the support
        # holds only element 0, so a degree delta^-1 s sigma differs from
        # delta s sigma
        rng = random.Random(4)
        g = FiniteGroupoid([ConnectedBlock([0, 1, 2], FiniteGroup.cyclic(4))])
        support = [m for m in g.morphisms() if m.elem == 0]
        factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
        ring = GradedDivisionRing(Q, g, support, factor)
        for size in (1, 3, 5):
            self._matches_slot_scan(random_matrix_ring(rng, ring, size))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dimension_table_on_benchmark_rings(self, seed):
        # the matrix rings of the benchmark's structure workload, and their blocks
        for r in benchmark_structure_inputs(seed)["rings"]:
            for key in ("spec", "iso_spec", "other_spec"):
                ring = load_matrix_ring(r[key])
                self._matches_slot_scan(ring)
                for blk in wedderburn_decompose(ring).blocks:
                    self._matches_slot_scan(blk)

    def test_dead_slot_rejected(self):
        d, r = m3_shape_ring()
        g = d.groupoid
        # at degree 1_2 only index 2 is live
        with pytest.raises(ValidationError) as err:
            r.element(g.identity(2), {(0, 0): 1})
        assert err.value.invariant == "element.entry_slot"

    def test_zero_entries_dropped(self):
        d, r = m3_shape_ring()
        el = r.element(d.groupoid.identity(1), {(0, 0): 0})
        assert el.is_zero


    def test_live_indices_match_a_signature_scan(self):
        rng = random.Random(11)
        for ring in product_test_rings(rng):
            for size in (1, 3, 5):
                r = random_matrix_ring(rng, ring, size)
                for e in sorted(e for blk in ring.groupoid.blocks for e in blk.objects):
                    scan = tuple(i for i in range(r.size) if any(s.source == e for s in r.signatures[i]))
                    assert r.live_indices(e) == scan


class TestUnitRelations:
    def test_unit_products(self):
        d, r = m3_shape_ring()
        assert r.e_unit(0, 2).mul(r.e_unit(2, 0)).equal(r.e_unit(0, 0))
        assert r.e_unit(2, 0).mul(r.e_unit(0, 2)).equal(r.e_unit(2, 2))
        assert r.e_unit(0, 1).mul(r.e_unit(1, 2)).equal(r.e_unit(0, 2))
        # mismatched middle index annihilates
        assert r.e_unit(0, 1).mul(r.e_unit(0, 1)).is_zero
        assert r.e_unit(0, 0).mul(r.e_unit(1, 2)).is_zero

    def test_local_identities(self):
        d, r = m3_shape_ring()
        assert r.e_unit(0, 0).add(r.e_unit(1, 1)).equal(r.identity_at(1))
        assert r.identity_at(2).equal(r.e_unit(2, 2))
        objects = sorted(e for blk in d.groupoid.blocks for e in blk.objects)
        assert [e for e in objects if not r.identity_at(e).is_zero] == [1, 2]

    def test_identity_absorbs(self):
        d, r = m3_shape_ring()
        g = d.groupoid
        rng = random.Random(2)
        degrees = list(g.morphisms())
        for _ in range(20):
            gamma = rng.choice(degrees)
            entries = {}
            for i in r.live_indices(gamma.target):
                for j in r.live_indices(gamma.source):
                    if r.slot_degree(i, j, gamma) is not None and rng.random() < 0.7:
                        entries[(i, j)] = sample_nonzero(Q, rng)
            x = r.element(gamma, entries)
            if x.is_zero:
                continue
            assert r.identity_at(gamma.target).mul(x).equal(x)
            assert x.mul(r.identity_at(gamma.source)).equal(x)
            # the identity at the far object annihilates from the wrong side
            other = 2 if gamma.target == 1 else 1
            assert r.identity_at(other).mul(x).is_zero

    def test_unit_needs_common_target(self):
        d = pair_ring()
        g = d.groupoid
        r = MatrixRing(d, [[g.identity(1)], [g.identity(2)]])
        with pytest.raises(GradixError):
            r.e_unit(0, 1)


class TestArithmetic:
    def test_associativity_random(self):
        d, r = m3_shape_ring()
        g = d.groupoid
        rng = random.Random(5)
        degrees = list(g.morphisms())

        def rand_el():
            gamma = rng.choice(degrees)
            entries = {}
            for i in r.live_indices(gamma.target):
                for j in r.live_indices(gamma.source):
                    if r.slot_degree(i, j, gamma) is not None and rng.random() < 0.6:
                        entries[(i, j)] = sample_nonzero(Q, rng)
            return r.element(gamma, entries)

        for _ in range(40):
            x, y, z = rand_el(), rand_el(), rand_el()
            assert x.mul(y).mul(z).equal(x.mul(y.mul(z)))

    def test_distributive_same_degree(self):
        d, r = m3_shape_ring()
        g = d.groupoid
        one_1 = g.identity(1)
        x = r.element(one_1, {(0, 0): 2, (0, 1): 3})
        y = r.element(one_1, {(1, 0): 5})
        z = r.element(one_1, {(0, 0): 7, (1, 1): 1})
        lhs = x.add(y).mul(z)
        rhs = x.mul(z).add(y.mul(z))
        assert lhs.equal(rhs)

    def test_add_degree_mismatch(self):
        d, r = m3_shape_ring()
        g = d.groupoid
        x = r.element(g.identity(1), {(0, 0): 1})
        y = r.element(g.identity(2), {(2, 2): 1})
        with pytest.raises(GradixError):
            x.add(y)

    def test_add_cancellation_gives_zero(self):
        d, r = m3_shape_ring()
        one_1 = d.groupoid.identity(1)
        x = r.element(one_1, {(0, 1): 4})
        assert x.add(r.element(one_1, {(0, 1): -4})).is_zero


class TestAgainstDefinitionProduct:
    def test_product_matches_the_oracle(self):
        # The coboundary twists make factor(s, t) differ from factor(t, s),
        # so a product that swaps the slot degrees gives a different answer.
        rng = random.Random(41)
        nonzero = 0
        for ring in product_test_rings(rng):
            r = random_matrix_ring(rng, ring, rng.randrange(1, 4))
            degrees = list(ring.groupoid.morphisms())
            for _ in range(20):
                gamma = rng.choice(degrees)
                after = [m for m in degrees if m.target == gamma.source]
                x = random_element(rng, r, gamma)
                y = random_element(rng, r, rng.choice(after if rng.random() < 0.9 else degrees))
                product = x.mul(y)
                assert product.equal(matrix_ring_product(x, y))
                nonzero += not product.is_zero
        assert nonzero > 100


class TestMatrixForm:
    def test_prime_required(self):
        g = FiniteGroupoid.pair([1, 2, 3, 4])
        keep = {1, 2}, {3, 4}
        support = [
            m
            for m in g.morphisms()
            if any(m.source in part and m.target in part for part in keep)
        ]
        factor = {
            (s, t): Q.one() for s in support for t in support if g.is_composable(s, t)
        }
        d = GradedDivisionRing(Q, g, support, factor)
        with pytest.raises(GradixError):
            matrix_form(d)

    def test_sections_are_canonical(self):
        d = pair_ring(objs=(0, 1))
        mf = matrix_form(d)
        assert mf.base_object == 0
        assert mf.sections[0] == d.groupoid.identity(0)
        assert mf.sections[1] == Morphism(0, 0, 0, 1)

    def test_multiplicative_and_round_trip(self):
        d = pair_ring(objs=(0, 1))
        mf = matrix_form(d)
        for a in sorted(d.support):
            for b in sorted(d.support):
                x, y = (a, Q.one()), (b, Q.coerce(3))
                assert mf.to_matrix(d.mul(x, y)).equal(mf.to_matrix(x).mul(mf.to_matrix(y)))
            assert mf.from_matrix(mf.to_matrix((a, Q.one()))) == (a, Q.one())

    def test_corner_embeds_verbatim_when_the_identity_is_not_element_0(self):
        # Klein four as bit pairs with the identity listed last, and the
        # cocycle (-1)^(x1 y2): the least loop (element 0) does not commute
        # with two of the others up to the twist.
        elems = [(1, 0), (0, 1), (1, 1), (0, 0)]
        index = {x: i for i, x in enumerate(elems)}
        klein = FiniteGroup([[index[(x[0] ^ y[0], x[1] ^ y[1])] for y in elems] for x in elems])
        d = GradedDivisionRing.twisted_group_ring(Q, klein, lambda x, y: (-1) ** (elems[x][0] * elems[y][1]))
        mf = matrix_form(d)
        assert mf.sections[mf.base_object] == d.groupoid.identity(mf.base_object)
        for a in sorted(d.support):
            assert mf.to_matrix((a, Q.one())).equal(mf.matrix_ring.element(a, {(0, 0): Q.one()}))

    def test_twisted_two_object_form(self):
        f3 = PrimeField(3)
        g2 = FiniteGroupoid(
            [ConnectedBlock([0, 1], FiniteGroup.cyclic(2))]
        )
        base = g2.identity(0)
        cross = Morphism(0, 0, 0, 1)
        d = GradedDivisionRing.prime_form(_corner_on(g2, f3), [base, cross])
        mf = matrix_form(d)
        assert mf.base_object == 0
        # the corner recovered by the bridge is the twisted group ring again
        twist = mf.corner.factor_value(
            Morphism(0, 0, 1, 0), Morphism(0, 0, 1, 0)
        )
        assert twist == 2
        for a in sorted(d.support):
            for b in sorted(d.support):
                x, y = (a, f3.one()), (b, f3.one())
                assert mf.to_matrix(d.mul(x, y)).equal(mf.to_matrix(x).mul(mf.to_matrix(y)))
                assert mf.from_matrix(mf.to_matrix(x)) == x


def _corner_on(g2, f3):
    """The twisted C2 ring concentrated at object 0 of a two-object groupoid."""
    loops = [m for m in g2.morphisms() if m.source == 0 and m.target == 0]
    factor = {}
    for s in loops:
        for t in loops:
            v = 2 if (s.elem, t.elem) == (1, 1) else 1
            factor[(s, t)] = f3.coerce(v)
    return GradedDivisionRing(f3, g2, loops, factor)
