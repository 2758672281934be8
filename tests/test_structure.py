import json
import os
import random
import time
from itertools import product
from math import gcd, isqrt

import pytest

import gradix.structure as structure
from gradix.division import GradedDivisionRing
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import ConnectedBlock, FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrix_ring import MatrixRing, matrix_form
from gradix.specfiles import load_matrix_ring
from gradix.structure import (
    IsoCertificate,
    SemisimpleRingSpec,
    classify,
    corner_structure,
    iso_test,
    multiplicities,
    simple_dimension,
    solve_coboundary,
    spec_iso,
    wedderburn_decompose,
)

from oracles import (
    certificate_is_isomorphism,
    coboundary_exists,
    coboundary_twist,
    is_coboundary,
    multiplicity_flags,
)

Q = Rationals()
FIXTURES = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "fixtures"))


def concentrated(field, groupoid, obj):
    """The field sitting at one object of a larger groupoid."""
    ident = groupoid.identity(obj)
    return GradedDivisionRing(field, groupoid, [ident], {(ident, ident): field.one()})


def loops_c2(field, groupoid, obj, twist=None):
    """The group ring of the C2 isotropy at obj, optionally twisted."""
    one = groupoid.identity(obj)
    g = Morphism(one.block, obj, 1, obj)
    support = [one, g]
    factor = {}
    for s in support:
        for t in support:
            val = field.one()
            if twist is not None and s.elem == 1 and t.elem == 1:
                val = field.coerce(twist)
            factor[(s, t)] = val
    return GradedDivisionRing(field, groupoid, support, factor)


def pfm_m3():
    """Three indices over the field at object 1 of the two-object pair
    groupoid: sources 1, 1, 2, all signatures into object 1."""
    g = FiniteGroupoid.pair([1, 2])
    d = concentrated(Q, g, 1)
    cross = Morphism(0, 1, 0, 2)
    ring = MatrixRing(d, [[g.identity(1)], [g.identity(1)], [cross]])
    return d, ring


def m2_one_object():
    d = GradedDivisionRing.group_ring(Q, FiniteGroup.trivial())
    e = d.groupoid.identity(0)
    return MatrixRing(d, [[e], [e]])


def two_class_ring():
    """Identity-signature matrix ring over a division ring whose support
    splits the four objects into the classes {1,2} and {3,4}."""
    g = FiniteGroupoid.pair([1, 2, 3, 4])
    support = {g.identity(e) for e in (1, 2, 3, 4)}
    for a, b in ((1, 2), (3, 4)):
        support.add(Morphism(0, a, 0, b))
        support.add(Morphism(0, b, 0, a))
    support = sorted(support)
    factor = {
        (s, t): Q.one() for s in support for t in support if g.is_composable(s, t)
    }
    d = GradedDivisionRing(Q, g, support, factor)
    sigs = [[g.identity(e)] for e in (1, 2, 3, 4)]
    return d, MatrixRing(d, sigs)


class TestSpecValidation:
    def test_block_must_be_concentrated(self):
        g = FiniteGroupoid.pair([1, 2])
        support = list(g.morphisms())
        factor = {
            (s, t): Q.one() for s in support for t in support if g.is_composable(s, t)
        }
        d = GradedDivisionRing(Q, g, support, factor)
        blk = MatrixRing(d, [[g.identity(1)]])
        with pytest.raises(ValidationError) as err:
            SemisimpleRingSpec([blk])
        assert err.value.invariant == "block.support_at_base"

    def test_blocks_share_the_grading(self):
        d1, ring1 = pfm_m3()
        blk2 = m2_one_object()
        with pytest.raises(ValidationError) as err:
            SemisimpleRingSpec([ring1, blk2])
        assert err.value.invariant == "block.common_grading"

    def test_counts(self):
        _, ring = pfm_m3()
        spec = SemisimpleRingSpec([ring])
        assert spec.table == (((1, 2), (2, 1)),)
        assert spec.blocks[0].live_indices(1) == (0, 1)
        assert spec.blocks[0].live_indices(2) == (2,)
        counts, crowded, singles = multiplicities(spec.table, [1, 2])
        assert counts == {1: 2, 2: 1}
        assert crowded == [1]
        assert singles == [2]

    def test_runs_keep_index_order(self):
        # sources 2, 1, 1, 2, 3: object 2 comes back after object 1, so it
        # is two runs, and the total at 2 sums them
        g = FiniteGroupoid.pair([1, 2, 3])
        d = concentrated(Q, g, 1)
        ring = MatrixRing(d, [[Morphism(0, 1, 0, src)] for src in (2, 1, 1, 2, 3)])
        spec = SemisimpleRingSpec([ring])
        assert spec.table == (((2, 1), (1, 2), (2, 1), (3, 1)),)
        counts, crowded, singles = multiplicities(spec.table, [1, 2, 3])
        assert counts == {1: 2, 2: 2, 3: 1}
        assert crowded == [1, 2]
        assert singles == [3]


class TestClassify:
    def test_pfm_fixture(self):
        _, ring = pfm_m3()
        flags = classify(ring)
        assert flags.gr_semisimple
        assert flags.gr_simple
        assert flags.pfm
        assert not flags.gr_division
        assert not flags.ipbn
        assert flags.witnesses["gr_division"] == "E11 has no right inverse"
        assert flags.witnesses["pfm"] == {0: 2}
        assert flags.witnesses["ipbn_data"]["sizes"] == (1, 2)

    def test_pfm_witness_is_the_first_index_in_index_order(self):
        # sources 3, 1, 1, 2 into object 1: objects 3 and 2 each hold one
        # index, and 3 comes first in index order though last in object order
        g = FiniteGroupoid.pair([1, 2, 3])
        sources = [3, 1, 1, 2]
        ring = MatrixRing(concentrated(Q, g, 1), [[Morphism(0, 1, 0, src)] for src in sources])
        spec = wedderburn_decompose(ring)
        flags = classify(spec)
        dims = {e: [sources.count(e)] for e in (1, 2, 3)}
        assert flags.pfm == multiplicity_flags(dims)["all_functors_free"]
        assert flags.gr_division == multiplicity_flags(dims)["division"]
        first = next(src for src in sources if sources.count(src) == 1)
        assert flags.witnesses["pfm"] == {0: first} == {0: 3}
        assert flags.witnesses["gr_division"] == "E22 has no right inverse"

    def test_two_by_two_over_a_field(self):
        flags = classify(m2_one_object())
        assert not flags.pfm
        assert flags.ipbn
        assert not flags.gr_division
        assert flags.gr_simple

    def test_division_ring_in_matrix_form(self):
        g = FiniteGroupoid.pair([1, 2])
        support = list(g.morphisms())
        factor = {
            (s, t): Q.one() for s in support for t in support if g.is_composable(s, t)
        }
        d = GradedDivisionRing(Q, g, support, factor)
        bridge = matrix_form(d)
        flags = classify(bridge.matrix_ring)
        assert flags.gr_division
        assert flags.pfm
        assert flags.ipbn
        assert flags.gr_simple

    def test_flag_coherence_on_random_specs(self):
        rng = random.Random(20260822)
        groupoid = FiniteGroupoid([ConnectedBlock([0, 1, 2, 3], FiniteGroup.cyclic(2))])
        for _ in range(40):
            n_blocks = rng.randint(1, 3)
            bases = rng.sample([0, 1, 2, 3], n_blocks)
            blocks = []
            for e in bases:
                if rng.random() < 0.5:
                    d = concentrated(Q, groupoid, e)
                else:
                    d = loops_c2(Q, groupoid, e)
                sigs = []
                for _ in range(rng.randint(1, 3)):
                    src = rng.randint(0, 3)
                    elem = rng.randint(0, 1)
                    sigs.append([Morphism(0, e, elem, src)])
                blocks.append(MatrixRing(d, sigs))
            flags = classify(SemisimpleRingSpec(blocks))
            assert flags.gr_semisimple and flags.gamma0_artinian
            assert flags.gr_division == (flags.pfm and flags.ipbn)
            if flags.gr_division:
                assert flags.pfm


class TestWedderburn:
    def test_two_classes_give_two_blocks(self):
        d, ring = two_class_ring()
        spec = wedderburn_decompose(ring)
        assert len(spec.blocks) == 2
        assert [blk.size for blk in spec.blocks] == [2, 2]
        assert [spec.base_object(j) for j in (0, 1)] == [1, 3]
        # the off-base index connects through the supported cross morphism
        assert spec.blocks[0].signatures[1] == (Morphism(0, 1, 0, 2),)
        assert spec.blocks[1].signatures[1] == (Morphism(0, 3, 0, 4),)
        assert spec.table == (((1, 1), (2, 1)), ((3, 1), (4, 1)))
        assert spec.provenance[0][0] == (0, d.groupoid.identity(1))

    def test_trivially_graded_field_stays_one_block(self):
        ring = m2_one_object()
        spec = wedderburn_decompose(ring)
        assert len(spec.blocks) == 1
        assert spec.blocks[0].size == 2
        assert spec.table == (((0, 2),),)

    def test_prime_ring_is_a_single_block(self):
        _, ring = pfm_m3()
        spec = wedderburn_decompose(ring)
        assert len(spec.blocks) == 1
        assert spec.blocks[0].signatures == ring.signatures

    def test_bad_signatures_rejected_up_front(self):
        d = GradedDivisionRing.group_ring(Q, FiniteGroup.trivial())
        g = d.groupoid
        with pytest.raises(ValidationError):
            wedderburn_decompose(d, [[g.identity(0)], []])

    def test_round_trip_from_a_spec(self):
        groupoid = FiniteGroupoid.pair([0, 1, 2])
        d0 = concentrated(Q, groupoid, 0)
        d2 = concentrated(Q, groupoid, 2)
        b0 = MatrixRing(d0, [[groupoid.identity(0)], [Morphism(0, 0, 0, 1)]])
        b2 = MatrixRing(d2, [[groupoid.identity(2)]])
        spec = SemisimpleRingSpec([b0, b2])

        support = sorted(set(d0.support) | set(d2.support))
        factor = {}
        factor.update(d0.factor)
        factor.update(d2.factor)
        union = GradedDivisionRing(Q, groupoid, support, factor)
        sigs = [list(s) for blk in spec.blocks for s in blk.signatures]
        recovered = wedderburn_decompose(union, sigs)
        assert len(recovered.blocks) == 2
        assert [recovered.base_object(j) for j in (0, 1)] == [0, 2]
        assert [
            [s[0] for s in blk.signatures] for blk in recovered.blocks
        ] == [[groupoid.identity(0), Morphism(0, 0, 0, 1)], [groupoid.identity(2)]]


def power_system(field, rows, base, b):
    """_multiplicative_solve on the ratios base^b_i; a returned c is checked."""
    c = structure._multiplicative_solve(field, rows, [field.power(base, bi) for bi in b])
    if c is not None:
        for row, bi in zip(rows, b):
            lhs = field.one()
            for cj, aij in zip(c, row):
                lhs = field.mul(lhs, field.power(cj, aij))
            assert field.equal(lhs, field.power(base, bi))
    return c


class TestIntegerSolvers:
    """The multiplicative solve on integer exponent systems, ratios base^b."""

    def test_integer_system(self):
        rows = [[2, 0], [0, 3]]
        c = power_system(Q, rows, Q.coerce(2), [4, 9])
        assert c is not None and c[0] ** 2 == 16 and c[1] == 8
        # c_0^2 = 2^3 has no rational root, nor a root in F_13, where 2
        # generates the units
        assert power_system(Q, rows, Q.coerce(2), [3, 9]) is None
        assert power_system(PrimeField(13), rows, 2, [3, 9]) is None
        assert power_system(PrimeField(13), rows, 2, [4, 9]) is not None

    def test_inconsistent_row(self):
        rows = [[1, 1], [1, 1]]
        for field, base in ((Q, Q.coerce(2)), (PrimeField(7), 3)):
            assert power_system(field, rows, base, [1, 2]) is None
            c = power_system(field, rows, base, [5, 5])
            assert c is not None and field.equal(field.mul(c[0], c[1]), field.power(base, 5))

    def test_modular_system(self):
        # 2 x = 1 (mod 12) has no solution, 2 x = 2 (mod 12) has
        f13 = PrimeField(13)
        assert power_system(f13, [[2]], 2, [1]) is None
        c = power_system(f13, [[2]], 2, [2])
        assert c is not None and c[0] in (2, 11)

    def test_random_solvable_systems(self):
        rng = random.Random(7)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
            x = [rng.randint(-3, 3) for _ in range(ncols)]
            b = [sum(a[i][j] * x[j] for j in range(ncols)) for i in range(nrows)]
            assert power_system(Q, a, Q.coerce(rng.choice([2, -3, "2/5"])), b) is not None
            field = PrimeField(rng.choice([7, 13]))
            assert power_system(field, a, rng.randrange(1, field.p), b) is not None


class TestIso:
    def _c2_block(self, field, sources, left=None, twist=None):
        groupoid = FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.cyclic(2))])
        d = loops_c2(field, groupoid, 0, twist=twist)
        sigs = []
        for src in sources:
            s = Morphism(0, 0, 0, src)
            if left is not None:
                s = groupoid.compose(left, s)
            sigs.append([s])
        return d, MatrixRing(d, sigs)

    def test_left_translation_is_an_isomorphism(self):
        f5 = PrimeField(5)
        d, block1 = self._c2_block(f5, [0, 1])
        g_loop = Morphism(0, 0, 1, 0)
        _, block2 = self._c2_block(f5, [0, 1], left=g_loop)
        cert = iso_test(block1, block2)
        assert cert is not None and cert.verified
        x = block1.e_unit(0, 1)
        y = block1.e_unit(1, 0)
        assert cert.apply(x.mul(y)).equal(cert.apply(x).mul(cert.apply(y)))

    def test_self_isomorphism(self):
        f5 = PrimeField(5)
        _, block = self._c2_block(f5, [0, 1])
        cert = iso_test(block, block)
        assert cert is not None and cert.verified

    def test_mismatched_source_counts(self):
        f5 = PrimeField(5)
        _, block1 = self._c2_block(f5, [0, 1])
        _, block2 = self._c2_block(f5, [0, 0])
        assert iso_test(block1, block2) is None

    def test_twist_obstruction_mod_3(self):
        f3 = PrimeField(3)
        plain = GradedDivisionRing.group_ring(f3, FiniteGroup.cyclic(2))
        twisted = GradedDivisionRing.twisted_group_ring(
            f3, FiniteGroup.cyclic(2), lambda a, b: 2 if a == 1 and b == 1 else 1
        )
        e = plain.groupoid.identity(0)
        b1 = MatrixRing(plain, [[e]])
        b2 = MatrixRing(twisted, [[e]])
        assert iso_test(b1, b2) is None

    def test_square_twist_splits_over_q(self):
        plain = GradedDivisionRing.group_ring(Q, FiniteGroup.cyclic(2))
        twisted = GradedDivisionRing.twisted_group_ring(
            Q, FiniteGroup.cyclic(2), lambda a, b: 4 if a == 1 and b == 1 else 1
        )
        e = plain.groupoid.identity(0)
        cert = iso_test(MatrixRing(twisted, [[e]]), MatrixRing(plain, [[e]]))
        assert cert is not None and cert.verified
        g_loop = Morphism(0, 0, 1, 0)
        assert abs(cert.coboundary[g_loop]) == 2

    def test_nonsquare_twist_does_not_split_over_q(self):
        plain = GradedDivisionRing.group_ring(Q, FiniteGroup.cyclic(2))
        twisted = GradedDivisionRing.twisted_group_ring(
            Q, FiniteGroup.cyclic(2), lambda a, b: 2 if a == 1 and b == 1 else 1
        )
        e = plain.groupoid.identity(0)
        assert iso_test(MatrixRing(twisted, [[e]]), MatrixRing(plain, [[e]])) is None

    def test_coboundary_solver_direct(self):
        plain = GradedDivisionRing.group_ring(Q, FiniteGroup.cyclic(2))
        twisted = GradedDivisionRing.twisted_group_ring(
            Q, FiniteGroup.cyclic(2), lambda a, b: 4 if a == 1 and b == 1 else 1
        )
        e = plain.groupoid.identity(0)
        c = solve_coboundary(twisted, plain, e)
        assert c is not None
        g_loop = Morphism(0, 0, 1, 0)
        # c(g)^2 = f1(g,g) = 4 has the exact solutions +-2
        assert c[g_loop] ** 2 == Q.coerce(4)

    def test_non_simple_inputs_rejected(self):
        g = FiniteGroupoid.pair([1, 2])
        support = list(g.morphisms())
        factor = {
            (s, t): Q.one() for s in support for t in support if g.is_composable(s, t)
        }
        d = GradedDivisionRing(Q, g, support, factor)
        blk = MatrixRing(d, [[g.identity(1)]])
        with pytest.raises(ValidationError):
            iso_test(blk, blk)

    def test_blocks_over_different_groupoids_name_the_common_grading(self):
        _, ring = pfm_m3()
        with pytest.raises(ValidationError) as err:
            iso_test(ring, m2_one_object())
        assert err.value.invariant == "block.common_grading"

    def test_blocks_over_different_fields_name_the_common_grading(self):
        _, block5 = self._c2_block(PrimeField(5), [0, 1])
        _, block7 = self._c2_block(PrimeField(7), [0, 1])
        with pytest.raises(ValidationError) as err:
            iso_test(block5, block7)
        assert err.value.invariant == "block.common_grading"
        with pytest.raises(ValidationError) as err:
            spec_iso(SemisimpleRingSpec([block5]), SemisimpleRingSpec([block7]))
        assert err.value.invariant == "block.common_grading"

    def test_spec_iso_matches_blocks_across_order(self):
        f5 = PrimeField(5)
        groupoid = FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.cyclic(2))])
        d = loops_c2(f5, groupoid, 0)
        small = MatrixRing(d, [[groupoid.identity(0)]])
        big = MatrixRing(d, [[groupoid.identity(0)], [Morphism(0, 0, 0, 1)]])
        # the one-block specs pair up across the listed order
        left = SemisimpleRingSpec([small])
        right = SemisimpleRingSpec([small])
        match = spec_iso(left, right)
        assert match is not None and match[0][:2] == (0, 0)
        assert spec_iso(SemisimpleRingSpec([big]), left) is None


def c2_groupoid():
    return FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.cyclic(2))])


def corrupted(cert, pi=None, coboundary=None, units=None):
    """A fresh, unverified copy of a certificate with some of its data replaced."""
    return IsoCertificate(
        cert.source,
        cert.target,
        cert.tau,
        cert.pi if pi is None else pi,
        cert.coboundary if coboundary is None else coboundary,
        cert.units if units is None else units,
    )


def pruned_accepts(cert):
    try:
        structure._verify_certificate(cert)
    except GradixError:
        return False
    return True


class TestCertificateVerification:
    LOOP = Morphism(0, 0, 1, 0)

    def _found(self, field=PrimeField(7)):
        """A certificate between a block over the C_2 loops at object 0 (u_g^2 = 3)
        and a copy: factor set twisted by a coboundary, signatures moved by the
        loop and listed in reverse."""
        d = loops_c2(field, c2_groupoid(), 0, twist=3)
        g = d.groupoid
        sigs = [Morphism(0, 0, 0, 0), Morphism(0, 0, 1, 1), Morphism(0, 0, 0, 1)]
        moved = [g.compose(self.LOOP, s) for s in reversed(sigs)]
        block1 = MatrixRing(d, [[s] for s in sigs])
        block2 = MatrixRing(coboundary_twist(d, random.Random(4)), [[s] for s in moved])
        cert = structure._find_certificate(block1, block2)
        assert cert is not None and not cert.verified
        return cert

    def test_found_certificate_verifies(self):
        cert = self._found()
        assert structure._verify_certificate(cert) == 3**3 * 2**2
        assert cert.verified
        assert certificate_is_isomorphism(cert)

    def test_scaled_coboundary_value_is_rejected(self):
        cert = self._found()
        field = cert.source.ring.field
        c = dict(cert.coboundary)
        # 2^2 != 1 in F_7, so c(g) c(g) f2(g, g) = f1(g, g) breaks
        c[self.LOOP] = field.mul(c[self.LOOP], 2)
        bad = corrupted(cert, coboundary=c)
        with pytest.raises(GradixError, match="not multiplicative"):
            structure._verify_certificate(bad)
        assert not bad.verified
        assert not certificate_is_isomorphism(bad)

    def test_swapped_index_targets_are_rejected(self):
        cert = self._found()
        pi = list(cert.pi)
        # indices 1 and 2 both start at object 1, so the swap keeps a
        # source-preserving bijection, but their partners differ
        pi[1], pi[2] = pi[2], pi[1]
        bad = corrupted(cert, pi=pi)
        with pytest.raises(GradixError, match="internal error"):
            structure._verify_certificate(bad)
        assert not certificate_is_isomorphism(bad)

    def test_scaled_unit_is_rejected(self):
        cert = self._found()
        d = cert.source.ring
        units = dict(cert.units)
        units[0] = d.mul(units[0], (self.LOOP, d.field.one()))
        bad = corrupted(cert, units=units)
        with pytest.raises(GradixError, match="internal error"):
            structure._verify_certificate(bad)
        assert not certificate_is_isomorphism(bad)

    def test_unit_times_a_field_scalar_stays_an_isomorphism(self):
        # conjugation by a diagonal of nonzero scalars is an automorphism
        cert = self._found()
        d = cert.source.ring
        units = dict(cert.units)
        units[0] = d.mul(units[0], (d.groupoid.identity(0), d.field.coerce(5)))
        ok = corrupted(cert, units=units)
        assert pruned_accepts(ok)
        assert certificate_is_isomorphism(ok)

    def test_shifts_of_order_four_keep_degrees(self):
        # signatures moved by a loop of order four: the shifts r_i are not
        # their own inverses, and each image lands at r_i h r_j^-1
        g = FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.cyclic(4))])
        loops = [m for m in g.morphisms() if m.source == m.target == 0]
        d = GradedDivisionRing(Q, g, loops, {(s, t): Q.one() for s in loops for t in loops})
        sigs = [Morphism(0, 0, 0, 0), Morphism(0, 0, 3, 1)]
        block1 = MatrixRing(d, [[s] for s in sigs])
        block2 = MatrixRing(coboundary_twist(d, random.Random(5)), [[g.compose(loops[1], s)] for s in sigs])
        cert = iso_test(block1, block2)
        assert cert is not None and cert.verified and certificate_is_isomorphism(cert)

    def test_a_coefficient_wrong_only_in_its_denominator_is_rejected(self):
        # u_g^2 = 4/9 against the plain C_2 ring: c(g) = +-2/3, and 2/5 has
        # the same numerator but squares to 4/25
        twisted, plain = cyclic_twist(Q, 2, Q.coerce("4/9")), cyclic_twist(Q, 2, 1)
        e = plain.groupoid.identity(0)
        cert = iso_test(MatrixRing(twisted, [[e], [e]]), MatrixRing(plain, [[e], [e]]))
        good = cert.coboundary[self.LOOP]
        assert cert.verified and abs(good) == Q.coerce("2/3")
        c = dict(cert.coboundary)
        c[self.LOOP] = Q.coerce(good.numerator) / 5
        bad = corrupted(cert, coboundary=c)
        with pytest.raises(GradixError, match="not multiplicative"):
            structure._verify_certificate(bad)
        assert not certificate_is_isomorphism(bad)
        assert pruned_accepts(corrupted(cert))

    def test_pruned_check_agrees_with_the_exhaustive_oracle(self):
        rng = random.Random(20261018)
        g = c2_groupoid()
        verdicts = set()
        for trial in range(24):
            field = PrimeField(7) if trial % 2 else Q
            kind = trial % 3
            d = concentrated(field, g, 0) if kind == 0 else loops_c2(field, g, 0, twist=3 if kind == 2 else None)
            sigs = [Morphism(0, 0, rng.randint(0, 1), rng.randint(0, 1)) for _ in range(rng.randint(1, 3))]
            h = rng.choice([g.identity(0), self.LOOP])
            moved = [g.compose(h, s) for s in sigs]
            rng.shuffle(moved)
            block1 = MatrixRing(d, [[s] for s in sigs])
            block2 = MatrixRing(coboundary_twist(d, rng), [[s] for s in moved])
            cert = structure._find_certificate(block1, block2)
            assert cert is not None

            supp = sorted(d.support)
            c = dict(cert.coboundary)
            s = rng.choice(supp)
            c[s] = field.mul(c[s], field.coerce(rng.choice([-1, 2, 3])))
            variants = [cert, corrupted(cert, coboundary=c)]
            n = block1.size
            if n > 1:
                i, k = rng.sample(range(n), 2)
                pi = list(cert.pi)
                pi[i], pi[k] = pi[k], pi[i]
                variants.append(corrupted(cert, pi=pi))
            i = rng.randrange(n)
            for factor in ((g.identity(0), field.coerce(2)), (self.LOOP, field.one()) if self.LOOP in d.support else None):
                if factor is not None:
                    units = dict(cert.units)
                    units[i] = d.mul(units[i], factor)
                    variants.append(corrupted(cert, units=units))
            for v in variants:
                verdict = certificate_is_isomorphism(v)
                assert pruned_accepts(v) == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestVerificationWork:
    """Deterministic work counts: certificates verified and products compared."""

    @pytest.fixture
    def verified(self, monkeypatch):
        log = []
        real = structure._verify_certificate

        def counting(cert):
            checked = real(cert)
            log.append((cert, checked))
            return checked

        monkeypatch.setattr(structure, "_verify_certificate", counting)
        return log

    def _blocks(self):
        d = loops_c2(PrimeField(5), c2_groupoid(), 0)
        g = d.groupoid
        small = MatrixRing(d, [[g.identity(0)]])
        big = MatrixRing(d, [[g.identity(0)], [Morphism(0, 0, 0, 1)]])
        return small, big

    def test_spec_iso_verifies_one_certificate_per_matched_block(self, verified):
        small, big = self._blocks()
        spec = SemisimpleRingSpec([small, small, big])
        # five block pairs have a certificate; three survive the matching
        match = spec_iso(spec, spec)
        assert match is not None and len(match) == 3
        assert [cert for cert, _ in verified] == [cert for _, _, cert in match]
        assert all(cert.verified for _, _, cert in match)

    def test_no_match_verifies_nothing(self, verified):
        small, big = self._blocks()
        # small pairs with small twice, but nothing pairs with big
        assert spec_iso(SemisimpleRingSpec([small, small]), SemisimpleRingSpec([small, big])) is None
        assert verified == []

    def test_pfm_m3_self_iso_pair_count(self, verified):
        with open(os.path.join(FIXTURES, "pfm_m3.ring.json")) as fh:
            spec = wedderburn_decompose(load_matrix_ring(json.load(fh)))
        match = spec_iso(spec, spec)
        assert match is not None
        # three indices over a one-dimensional support: 3^3 products
        # E_ij E_jl, against 9^2 = 81 for all generator pairs
        assert [checked for _, checked in verified] == [27]
        assert iso_test(spec.blocks[0], spec.blocks[0]).verified
        assert [checked for _, checked in verified] == [27, 27]

    def test_pfm_m3_self_iso_compose_count(self, monkeypatch):
        # groupoid compositions of decomposing pfm_m3 twice and matching it
        # with itself: 6 moved signatures, 9 connector candidates, 2 tau-
        # conjugates for the search and 2 each for the coboundary and the
        # check, which multiply support positions by the group table
        with open(os.path.join(FIXTURES, "pfm_m3.ring.json")) as fh:
            ring = load_matrix_ring(json.load(fh))
        calls = []
        compose = FiniteGroupoid.compose
        monkeypatch.setattr(FiniteGroupoid, "compose", lambda g, a, b: calls.append(1) or compose(g, a, b))
        assert spec_iso(wedderburn_decompose(ring), wedderburn_decompose(ring)) is not None
        assert len(calls) == 21


def cyclic_twist(field, n, lam):
    """F[x]/(x^n - lam) as a twisted group ring of C_n: factor lam when the
    exponents wrap around."""
    return GradedDivisionRing.twisted_group_ring(
        field, FiniteGroup.cyclic(n), lambda a, b: lam if a + b >= n else 1
    )


def klein_twist(field, lam1, lam2, mu):
    """A twist of the Klein four group C2 x C2: generators square to lam1
    and lam2, and commute up to the sign mu.  Every twist class has this
    form."""
    group = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))

    def twist(a, b):
        (a1, a2), (b1, b2) = divmod(a, 2), divmod(b, 2)
        return field.mul(field.mul(field.power(lam1, a1 * b1), field.power(lam2, a2 * b2)), field.power(mu, a1 * b2))

    return GradedDivisionRing.twisted_group_ring(field, group, twist)


def timed_coboundary(d1, d2):
    start = time.perf_counter()
    c = solve_coboundary(d1, d2, d1.groupoid.identity(0))
    assert time.perf_counter() - start < 1
    return c


class TestCoboundaryExistence:
    """solve_coboundary finds a coboundary exactly when enumerating every
    c in (F_p^*)^supp finds one."""

    @staticmethod
    def agree(d1, d2):
        tau = d1.groupoid.identity(0)
        c = solve_coboundary(d1, d2, tau)
        assert (c is not None) == coboundary_exists(d1, d2, tau)
        assert c is None or is_coboundary(d1, d2, tau, c)
        return c is not None

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cyclic_twists(self, p, n):
        field = PrimeField(p)
        rings = [cyclic_twist(field, n, lam) for lam in range(1, p)]
        found = [self.agree(d1, d2) for d1 in rings for d2 in rings]
        # the twists fall into gcd(n, p - 1) classes, F_p^* mod n-th powers
        assert all(found) == (gcd(n, p - 1) == 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_klein_twists(self, p):
        field = PrimeField(p)
        units = range(1, p)
        rings = [klein_twist(field, lam1, lam2, mu) for lam1, lam2 in product(units, repeat=2) for mu in (1, p - 1)]
        plain, other = rings[0], rings[-1]
        for d in rings:
            self.agree(d, plain)
            self.agree(d, other)

    def test_klein_twists_over_q(self, monkeypatch):
        # Over Q a twist of C2 x C2 is fixed by mu and by lam1, lam2 up to
        # rational squares.  With mu = -1 against mu = 1 the pairs (x, y) and
        # (y, x) share their exponent row but not their ratio, so the merged
        # rows reject the pair before the solver runs.
        solves = []
        solve = structure._multiplicative_solve
        monkeypatch.setattr(structure, "_multiplicative_solve", lambda *args: solves.append(1) or solve(*args))

        def is_square(q):
            return q > 0 and all(isqrt(k) ** 2 == k for k in (q.numerator, q.denominator))

        # a coboundary twist keeps the class and gives f2 other denominators
        target = coboundary_twist(klein_twist(Q, Q.coerce(3), Q.coerce(10), Q.one()), random.Random(17))
        lams = [Q.coerce(x) for x in ("1/3", "5/2", "12", "-3/4")]
        found = []
        for lam1, lam2, mu in product(lams, lams, (Q.one(), -Q.one())):
            d = klein_twist(Q, lam1, lam2, mu)
            before = len(solves)
            tau = d.groupoid.identity(0)
            c = solve_coboundary(d, target, tau)
            expected = mu == 1 and is_square(lam1 / 3) and is_square(lam2 / 10)
            assert (c is not None) == expected
            assert c is None or is_coboundary(d, target, tau, c)
            if mu == -1:
                assert len(solves) == before
            found.append(c is not None)
        assert found.count(True) == 2

    def test_order_three_commutators(self):
        # C3 x C3 over F_7 with u_x u_y = mu u_y u_x, mu of order 3.  The pairs
        # (x, y) and (y, x) share a row, and their ratios agree exactly when
        # the two commutators do; their products f1 f2 then differ by
        # mu mu' = mu^2 != 1.
        f7 = PrimeField(7)
        group = FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3))

        def twisted(mu):
            return GradedDivisionRing.twisted_group_ring(f7, group, lambda a, b: pow(mu, (a // 3) * (b % 3), 7))

        d = twisted(2)
        tau = d.groupoid.identity(0)
        for other, same in ((coboundary_twist(d, random.Random(3)), True), (twisted(4), False), (twisted(1), False)):
            c = solve_coboundary(d, other, tau)
            assert (c is not None) == same
            assert c is None or is_coboundary(d, other, tau, c)


class TestCoboundarySelfCheck:
    """The self-check tests c(s)c(t)f2(s', t') = f1(s, t)c(st) on every pair,
    cross-multiplied as integers.  Over C_2 the pair (g, g), g the loop of
    order two, is c(g)^2 f2(g, g) = f1(g, g) c(1): c(g) twice on one side."""

    @pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
    def test_a_squared_loop_passes(self, field):
        d1, d2 = cyclic_twist(field, 2, 4), cyclic_twist(field, 2, 1)
        tau = d1.groupoid.identity(0)
        c = solve_coboundary(d1, d2, tau)
        assert c is not None and is_coboundary(d1, d2, tau, c)
        assert field.equal(field.power(c[Morphism(0, 0, 1, 0)], 2), field.coerce(4))

    @pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
    def test_a_wrong_squared_loop_is_caught(self, field, monkeypatch):
        # Doubling c(g) breaks only the (g, g) row, since 2^2 != 1; the rows
        # (1, g) and (g, 1) hold c(g) once on each side.
        solve = structure._multiplicative_solve

        def doubled(fld, rows, ratios):
            sol = solve(fld, rows, ratios)
            sol[1] = fld.mul(sol[1], fld.coerce(2))
            return sol

        monkeypatch.setattr(structure, "_multiplicative_solve", doubled)
        d1, d2 = cyclic_twist(field, 2, 4), cyclic_twist(field, 2, 1)
        with pytest.raises(GradixError, match="internal error: coboundary solution failed verification"):
            solve_coboundary(d1, d2, d1.groupoid.identity(0))


class TestLargeInputs:
    """Coboundaries over a huge prime field and with huge rational ratios."""

    P = 10**18 + 3

    def test_large_prime_field_solves(self):
        field = PrimeField(self.P)
        plain = cyclic_twist(field, 2, 1)
        assert timed_coboundary(plain, plain) is not None
        # P = 3 (mod 4): 4 is a square, -1 is not
        assert timed_coboundary(cyclic_twist(field, 2, 4), plain) is not None
        assert timed_coboundary(cyclic_twist(field, 2, self.P - 1), plain) is None

    def test_square_of_a_large_prime_splits_over_q(self):
        plain = cyclic_twist(Q, 2, 1)
        c = timed_coboundary(cyclic_twist(Q, 2, self.P**2), plain)
        assert c is not None and abs(c[Morphism(0, 0, 1, 0)]) == self.P

    def test_large_prime_does_not_split_over_q(self):
        plain = cyclic_twist(Q, 2, 1)
        assert timed_coboundary(cyclic_twist(Q, 2, self.P), plain) is None


class TestCoboundaryCeiling:
    """The coboundary system is solved for supports of up to
    MAX_COBOUNDARY_SUPPORT degrees; a larger one names its invariant."""

    def _block(self, n):
        d = GradedDivisionRing.group_ring(Q, FiniteGroup.cyclic(n))
        return MatrixRing(d, [[d.groupoid.identity(0)]])

    def test_cyclic_group_of_order_twelve_solves(self):
        assert structure.MAX_COBOUNDARY_SUPPORT == 12
        block = self._block(12)
        cert = iso_test(block, block)
        assert cert is not None and cert.verified

    def test_cyclic_group_of_order_thirteen_names_the_ceiling(self):
        block = self._block(13)
        with pytest.raises(ValidationError) as err:
            iso_test(block, block)
        assert err.value.invariant == "coboundary.size"


class TestBlockwiseChecks:
    """The pseudo-basis witness and the dimension audit catch a wrong block."""

    @pytest.mark.parametrize(
        "wrong_at, message",
        [(1, "failed the AB identity"), (2, "failed the BA diagonal")],
    )
    def test_wrong_local_identity_fails_the_witness(self, monkeypatch, wrong_at, message):
        # pfm_m3 is crowded at object 1 (indices 0, 1); index 2 is alone at object 2.
        _, ring = pfm_m3()
        identity_at = MatrixRing.identity_at
        monkeypatch.setattr(
            MatrixRing, "identity_at", lambda self, e: self.zero() if e == wrong_at else identity_at(self, e)
        )
        with pytest.raises(GradixError, match=message):
            classify(ring)

    def test_wrong_matrix_unit_fails_the_witness(self, monkeypatch):
        # B gets E_20 + E_21 in place of E_20, and the identity at 1 the matching
        # E_01, so AB and the BA diagonal still hold but B_0 A_1 = E_22 does not vanish.
        _, ring = pfm_m3()
        e_unit, identity_at = MatrixRing.e_unit, MatrixRing.identity_at

        def wrong_unit(self, i, j):
            x = e_unit(self, i, j)
            return x.add(e_unit(self, 2, 1)) if (i, j) == (2, 0) else x

        def wrong_identity(self, e):
            x = identity_at(self, e)
            return x.add(e_unit(self, 0, 1)) if e == 1 else x

        monkeypatch.setattr(MatrixRing, "e_unit", wrong_unit)
        monkeypatch.setattr(MatrixRing, "identity_at", wrong_identity)
        with pytest.raises(GradixError, match="has off-diagonal terms"):
            classify(ring)

    def test_corrupt_block_dimension_fails_the_audit(self, monkeypatch):
        _, ring = two_class_ring()
        dimension_table = MatrixRing.dimension_table
        second = []

        def corrupt(self):
            # only the second block, whose ring sits at object 3: one more at each of its degrees
            table = dimension_table(self)
            if self.ring.gamma0()[0] == 3:
                table = {gamma: n + 1 for gamma, n in table.items()}
                second.append(min(table))
            return table

        monkeypatch.setattr(MatrixRing, "dimension_table", corrupt)
        with pytest.raises(GradixError, match="dimension audit failed") as err:
            wedderburn_decompose(ring)
        assert f"at {second[0]}:" in str(err.value)


class TestCorners:
    def _two_object_c2(self):
        return FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.cyclic(2))])

    def test_trivial_support_splits(self):
        g = self._two_object_c2()
        d = concentrated(Q, g, 0)
        sigma = Morphism(0, 0, 0, 1)
        tau = Morphism(0, 0, 1, 1)
        block = MatrixRing(d, [[sigma], [tau]])
        assert corner_structure(block, 1) == [1, 1]

    def test_full_support_merges(self):
        g = self._two_object_c2()
        d = loops_c2(Q, g, 0)
        sigma = Morphism(0, 0, 0, 1)
        tau = Morphism(0, 0, 1, 1)
        block = MatrixRing(d, [[sigma], [tau]])
        assert corner_structure(block, 1) == [2]

    def test_loop_signatures_merge_at_the_base(self):
        d = GradedDivisionRing.group_ring(Q, FiniteGroup.cyclic(2))
        g = d.groupoid
        block = MatrixRing(d, [[g.identity(0)], [Morphism(0, 0, 1, 0)]])
        assert corner_structure(block, 0) == [2]

    def test_object_without_indices(self):
        g = self._two_object_c2()
        d = loops_c2(Q, g, 0)
        block = MatrixRing(d, [[g.identity(0)]])
        with pytest.raises(GradixError):
            corner_structure(block, 1)


class TestSimpleDimension:
    def test_shifted_summand(self):
        _, ring = pfm_m3()
        g = ring.ring.groupoid
        assert simple_dimension(ring, [g.identity(1)]) == 2

    def test_regular_module(self):
        _, ring = pfm_m3()
        g = ring.ring.groupoid
        assert simple_dimension(ring, [g.identity(1), g.identity(2)]) == 3

    def test_zero_module(self):
        _, ring = pfm_m3()
        assert simple_dimension(ring, []) == 0

    def test_needs_pfm(self):
        with pytest.raises(GradixError):
            simple_dimension(m2_one_object(), [])
