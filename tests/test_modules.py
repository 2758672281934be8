import random

import pytest

from gradix import elimination, modules
from gradix.division import GradedDivisionRing
from gradix.elimination import rank_all, row_reduce
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrices import HomMatrix
from gradix.modules import GradedModule, hom_degree_dimension
from oracles import (
    first_scan_basis,
    hom_slot,
    is_live_coordinate,
    product_test_rings,
    random_matrix_on,
    random_module,
    random_vectors,
    ring_two_object_prime,
    sample_nonzero,
    times,
)
from test_trusted import fixture_ring

Q = Rationals()


def pair_ring(field=Q):
    g = FiniteGroupoid.pair([0, 1])
    support = list(g.morphisms())
    factor = {(s, t): field.one() for s in support for t in support if g.is_composable(s, t)}
    return GradedDivisionRing(field, g, support, factor)


def f5_c2():
    return GradedDivisionRing.group_ring(PrimeField(5), FiniteGroup.cyclic(2))


def random_vector(module, rng, density=0.7):
    ring = module.ring
    tau = ring.groupoid.inverse(rng.choice(sorted(ring.support)))
    entries = {}
    for i in range(module.pdim()):
        if is_live_coordinate(module, i, tau) and rng.random() < density:
            entries[i] = sample_nonzero(ring.field, rng)
    return module.vector(tau, entries)


def act_right(v, x):
    """v x: the vector v of degree tau times the 1x1 hom matrix holding the
    ring element x = (s, c), a vector of degree tau s."""
    g = v.ring.groupoid
    tau = g.inverse(v.col_sig[0])
    s, c = x
    a = HomMatrix(v.ring, v.col_sig, [g.inverse(g.compose(tau, s))], {(0, 0): c})
    return v.mul(a)


class TestConstruction:
    def test_shift_targets_must_hit_gamma0(self):
        g = FiniteGroupoid.pair([0, 1])
        ident = g.identity(0)
        ring = GradedDivisionRing(Q, g, [ident], {(ident, ident): Q.one()})
        with pytest.raises(ValidationError) as err:
            GradedModule(ring, [g.identity(1)])
        assert err.value.invariant == "module.shift_target"

    def test_dead_coordinate_rejected(self):
        d = pair_ring()
        g = d.groupoid
        m = GradedModule(d, [g.identity(0), g.identity(1)])
        tau = g.identity(0)
        with pytest.raises(ValidationError) as err:
            m.vector(tau, {1: 1})  # shift 1_1 does not compose with tau at 0
        assert err.value.invariant == "vector.entry_slot"

    def test_a_vector_is_a_one_column_hom_matrix(self):
        d = pair_ring()
        g = d.groupoid
        cross = Morphism(0, 1, 0, 0)  # 0 -> 1
        m = GradedModule(d, [g.identity(0), g.identity(1), cross])
        v = m.vector(g.identity(0), {0: 2, 2: 3})
        assert isinstance(v, HomMatrix)
        assert (v.row_sig, v.col_sig) == (m.shifts, (g.identity(0),))
        assert v.entries == {(0, 0): 2, (2, 0): 3}
        assert [hom_slot(v, i, 0) for i in range(3)] == [g.identity(0), None, cross]
        with pytest.raises(ValidationError) as err:
            m.vector(Morphism(0, 1, 0, 7), {})
        assert err.value.invariant == "vector.degree"

    def test_vector_of_a_larger_module_rejected(self):
        # was an IndexError in row_reduce: the third coordinate has no row here
        d = pair_ring()
        e = d.groupoid.identity(0)
        v = GradedModule(d, [e, e, e]).vector(e, {2: 1})
        with pytest.raises(ValidationError) as err:
            GradedModule(d, [e, e]).pdim_of_span([v])
        assert err.value.invariant == "vector.module"

    def test_vector_over_another_ring_rejected(self):
        d, other = pair_ring(), pair_ring(PrimeField(5))
        e = d.groupoid.identity(0)
        v = GradedModule(other, [e]).vector(e, {0: 1})
        for ask in (GradedModule(d, [e]).pdim_of_span, GradedModule(d, [e]).quotient_pdim):
            with pytest.raises(ValidationError) as err:
                ask([v])
            assert err.value.invariant == "vector.module"


class TestVectors:
    def test_standard_generators_are_a_basis(self):
        d = pair_ring()
        g = d.groupoid
        m = GradedModule(d, [g.identity(0), g.identity(1), Morphism(0, 1, 0, 0)])
        gens = [m.standard_generator(i) for i in range(3)]
        assert m.is_pseudo_independent(gens)
        assert m.pdim_of_span(gens) == m.pdim() == 3

    def test_right_action_shifts_degree(self):
        d = f5_c2()
        g = d.groupoid
        e = g.identity(0)
        flip = Morphism(0, 0, 1, 0)
        m = GradedModule(d, [e, flip])
        v = m.vector(e, {0: 2, 1: 3})
        w = act_right(v, (flip, 1))
        assert g.inverse(w.col_sig[0]) == flip
        assert w.coeff(0, 0) == 2
        assert w.coeff(1, 0) == 3
        # acting is invertible: acting back recovers v
        back = act_right(w, d.inv((flip, 1)))
        assert back.equal(v)

    def test_action_respects_ring_product(self):
        d = f5_c2()
        g = d.groupoid
        e = g.identity(0)
        flip = Morphism(0, 0, 1, 0)
        m = GradedModule(d, [e, flip])
        rng = random.Random(4)
        for _ in range(20):
            v = random_vector(m, rng)
            a = (rng.choice([e, flip]), rng.randrange(1, 5))
            b = (rng.choice([e, flip]), rng.randrange(1, 5))
            lhs = act_right(act_right(v, a), b)
            rhs = act_right(v, d.mul(a, b))
            assert lhs.equal(rhs)


class TestCoefficientAction:
    def test_scale_right_matches_ring_product(self):
        rng = random.Random(43)
        for ring in product_test_rings(rng):
            support = sorted(ring.support)
            m = GradedModule(ring, [d for d in support if d.target in ring.gamma0()][:4])
            for _ in range(10):
                v = random_vector(m, rng)
                tau = ring.groupoid.inverse(v.col_sig[0])
                degree = rng.choice([d for d in support if d.target == tau.source])
                a = (degree, sample_nonzero(ring.field, rng))
                expected = {(i, 0): times(ring, (hom_slot(v, i, 0), c), a)[1] for (i, _), c in v.entries.items()}
                assert act_right(v, a).entries == expected


class TestSpans:
    def test_dependent_family_detected(self):
        d = pair_ring()
        g = d.groupoid
        e0 = g.identity(0)
        m = GradedModule(d, [e0, e0])
        v = m.vector(e0, {0: 1, 1: 2})
        w = m.vector(e0, {0: 2, 1: 4})
        assert not m.is_pseudo_independent([v, w])
        assert m.pdim_of_span([v, w]) == 1

    def test_basis_from_generators_drops_dependents(self):
        d = pair_ring()
        g = d.groupoid
        e0 = g.identity(0)
        m = GradedModule(d, [e0, e0, g.identity(1)])
        v = m.vector(e0, {0: 1, 1: 2})
        w = m.vector(e0, {0: 2, 1: 4})
        u = m.vector(e0, {0: 0, 1: 1})
        basis = m.basis_from_generators([v, w, u, m.vector(e0, {})])
        assert len(basis) == 2
        assert basis[0].equal(v)
        assert basis[1].equal(u)

    def test_extension_reaches_full_pdim(self):
        rng = random.Random(19)
        for ring in (pair_ring(), f5_c2()):
            g = ring.groupoid
            shifts = []
            for mdeg in sorted(ring.support):
                shifts.append(mdeg)
            m = GradedModule(ring, shifts)
            for _ in range(10):
                vecs = [random_vector(m, rng) for _ in range(2)]
                basis = m.basis_from_generators(vecs)
                full = m.extend_to_pseudo_basis(basis)
                assert len(full) == m.pdim()
                assert m.is_pseudo_independent(full)

    def test_quotient_additivity(self):
        rng = random.Random(23)
        d = pair_ring()
        g = d.groupoid
        m = GradedModule(d, [g.identity(0), g.identity(1), Morphism(0, 1, 0, 0), g.identity(0)])
        for _ in range(15):
            vecs = [random_vector(m, rng) for _ in range(rng.randrange(1, 4))]
            n_dim = m.pdim_of_span(vecs)
            assert n_dim + m.quotient_pdim(vecs) == m.pdim()

    def test_extension_requires_independence(self):
        d = pair_ring()
        e0 = d.groupoid.identity(0)
        m = GradedModule(d, [e0, e0])
        v = m.vector(e0, {0: 1})
        with pytest.raises(GradixError):
            m.extend_to_pseudo_basis([v, v])


def _count_builds(monkeypatch):
    """A list that collects every GradedDivisionRing built from now on, by
    the validating constructor or by the trusted one."""
    built = []
    init = GradedDivisionRing.__init__
    trusted = GradedDivisionRing._trusted.__func__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_trusted(cls, *args):
        ring = trusted(cls, *args)
        built.append(ring)
        return ring

    monkeypatch.setattr(GradedDivisionRing, "__init__", counting_init)
    monkeypatch.setattr(GradedDivisionRing, "_trusted", classmethod(counting_trusted))
    return built


def _count_reductions(monkeypatch):
    """A list that collects every row_reduce call made by elimination or modules."""
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return row_reduce(matrix)

    monkeypatch.setattr(elimination, "row_reduce", counting)
    monkeypatch.setattr(modules, "row_reduce", counting)
    return calls


def two_object_module():
    ring = ring_two_object_prime()
    g = ring.groupoid
    return GradedModule(ring, [g.identity(1), g.identity(2), Morphism(0, 1, 0, 2), g.identity(1)])


class TestOppositeRingBuilds:
    def test_spans_build_no_opposite(self, monkeypatch):
        m = two_object_module()
        rng = random.Random(47)
        vectors = [random_vector(m, rng) for _ in range(3)]
        built = _count_builds(monkeypatch)
        m.quotient_pdim(vectors)
        m.pdim_of_span(vectors)
        assert built == []

    def test_rank_all_builds_the_first_opposite_only(self, monkeypatch):
        ring = ring_two_object_prime()
        a = random_matrix_on(random.Random(53), ring, [ring.groupoid.identity(1)] * 3, [ring.groupoid.identity(2)] * 2)
        built = _count_builds(monkeypatch)
        first = rank_all(a).rho
        assert len(built) == 1 and built[0] is ring.opposite()
        built.clear()
        assert rank_all(a).rho == first
        assert built == []


class TestReductionCounts:
    """One reduction per span question, inverse and solve; three per rank_all (two when rho_i is skipped)."""

    def test_one_reduction_per_span_question(self, monkeypatch):
        m = two_object_module()
        rng = random.Random(59)
        vectors = [random_vector(m, rng) for _ in range(4)]
        calls = _count_reductions(monkeypatch)
        for ask in (m.pdim_of_span, m.basis_from_generators, m.quotient_pdim):
            calls.clear()
            ask(vectors)
            assert len(calls) == 1, ask.__name__
        basis = m.basis_from_generators(vectors)
        calls.clear()
        m.extend_to_pseudo_basis(basis)
        assert len(calls) == 1

    def test_three_reductions_per_rank_all(self, monkeypatch):
        rng = random.Random(61)
        ring = f5_c2()
        e = ring.groupoid.identity(0)
        # a 6x6 matrix of rank 4: the product of random 6x4 and 4x6 factors
        while True:
            a = random_matrix_on(rng, ring, [e] * 6, [e] * 4).mul(random_matrix_on(rng, ring, [e] * 4, [e] * 6))
            if rank_all(a).rho == 4:
                break
        calls = _count_reductions(monkeypatch)
        assert rank_all(a).rho_i == 4
        assert len(calls) == 3
        calls.clear()
        # nine rows, one more than rank_all computes rho_i for
        assert rank_all(random_matrix_on(rng, ring, [e] * 9, [e] * 6)).rho_i_skipped
        assert len(calls) == 2

    def test_one_reduction_per_inverse_and_solve(self, monkeypatch):
        rng = random.Random(79)
        ring = f5_c2()
        e, g = ring.groupoid.identity(0), Morphism(0, 0, 1, 0)
        sig = [e, g, e, g]
        while True:
            a = random_matrix_on(rng, ring, sig, sig, density=0.9)
            if rank_all(a).rho == 4:
                break
        b = a.mul(random_matrix_on(rng, ring, sig, [g], density=0.9))
        calls = _count_reductions(monkeypatch)
        assert elimination.invert_square(a) is not None
        assert len(calls) == 1
        calls.clear()
        assert elimination.solve(a, b) is not None
        assert len(calls) == 1


def _corrupting(monkeypatch, corrupt):
    """Make the modules' row_reduce hand back a reduction that corrupt(reduction) has damaged."""

    def reduce_then_corrupt(matrix):
        red = row_reduce(matrix)
        corrupt(red)
        return red

    monkeypatch.setattr(modules, "row_reduce", reduce_then_corrupt)


class TestSelfChecks:
    def test_a_wrong_echelon_entry_is_caught(self, monkeypatch):
        d = pair_ring()
        e0 = d.groupoid.identity(0)
        m = GradedModule(d, [e0, e0])
        v = m.vector(e0, {0: 1, 1: 2})
        w = m.vector(e0, {0: 2, 1: 4})

        def bump(red):
            (row, _), = [p for p in red.pivots if p[1] == 0]
            red.echelon.entries[(row, 1)] += 1

        _corrupting(monkeypatch, bump)
        with pytest.raises(GradixError, match="dropped generator is outside the kept span"):
            m.basis_from_generators([v, w])

    def test_a_lost_pivot_is_caught(self, monkeypatch):
        m = two_object_module()
        vectors = [random_vector(m, random.Random(67)) for _ in range(2)]

        def drop_last(red):
            red.pivots = red.pivots[:-1]

        _corrupting(monkeypatch, drop_last)
        with pytest.raises(GradixError, match="standard generators failed to complete the family"):
            m.quotient_pdim(vectors)


class TestFirstScanOracle:
    """basis_from_generators and extend_to_pseudo_basis choose what a scan by minor_rank chooses."""

    def test_same_choices_as_the_scan(self):
        rng = random.Random(71)
        for ring in product_test_rings(rng):
            for _ in range(4):
                m = random_module(rng, ring, max_pdim=4)
                vectors = random_vectors(rng, m, 4)
                # a repeat, a zero and a right multiple of another degree
                g = ring.groupoid
                tau = g.inverse(vectors[2].col_sig[0])
                s = rng.choice([d for d in sorted(ring.support) if d.target == tau.source])
                scalar = HomMatrix(ring, [g.inverse(tau)], [g.inverse(g.compose(tau, s))], {(0, 0): sample_nonzero(ring.field, rng)})
                multiple = vectors[2].mul(scalar)
                family = vectors + [vectors[0], m.vector(g.inverse(vectors[1].col_sig[0]), {}), multiple]
                rng.shuffle(family)
                basis = m.basis_from_generators(family)
                expected = first_scan_basis(m, family)
                assert [id(v) for v in basis] == [id(v) for v in expected]
                full = m.extend_to_pseudo_basis(basis)
                scanned = first_scan_basis(m, basis + [m.standard_generator(i) for i in range(m.pdim())])
                assert len(full) == len(scanned) == m.pdim()
                assert all(v.equal(w) for v, w in zip(full, scanned))


class TestShifts:
    def test_shift_keeps_composable_summands(self):
        d = pair_ring()
        g = d.groupoid
        cross = Morphism(0, 1, 0, 0)  # 0 -> 1
        m = GradedModule(d, [g.identity(0), g.identity(1), cross])
        shifted, survivors = m.shift(g.identity(0))
        assert survivors == [0, 2]
        assert shifted.shifts == (g.identity(0), cross)
        shifted1, survivors1 = m.shift(g.identity(1))
        assert survivors1 == [1]

    def test_identity_shifts_partition(self):
        d = pair_ring()
        g = d.groupoid
        m = GradedModule(d, [g.identity(0), g.identity(1), Morphism(0, 1, 0, 0)])
        seen = []
        for e in sorted({s.source for s in m.shifts}):
            seen += m.shift(g.identity(e))[1]
        assert sorted(seen) == list(range(m.pdim()))

    def test_shift_by_cross_morphism(self):
        d = pair_ring()
        g = d.groupoid
        cross = Morphism(0, 1, 0, 0)
        m = GradedModule(d, [g.identity(0), g.identity(1)])
        shifted, survivors = m.shift(cross)
        # only the summand starting where cross ends survives... shifts compose on the right
        assert survivors == [1]
        assert shifted.shifts == (g.compose(g.identity(1), cross),)


class TestHomSpaces:
    def test_hom_dimension_full_support(self):
        d = pair_ring()
        g = d.groupoid
        m = GradedModule(d, [g.identity(0)])
        n = GradedModule(d, [g.identity(0), g.identity(1)])
        # each target summand shows up at exactly one degree out of object 0
        assert hom_degree_dimension(m, n, g.identity(0)) == 1
        assert hom_degree_dimension(m, n, Morphism(0, 1, 0, 0)) == 1
        assert hom_degree_dimension(m, n, g.identity(1)) == 0

    def test_hom_dimension_respects_support(self):
        g = FiniteGroupoid.pair([0, 1])
        e0 = g.identity(0)
        ring = GradedDivisionRing(Q, g, [e0], {(e0, e0): Q.one()})
        m = GradedModule(ring, [e0])
        assert hom_degree_dimension(m, m, e0) == 1
        cross = Morphism(0, 1, 0, 0)
        assert hom_degree_dimension(m, m, cross) == 0

    def test_hom_dimension_cross_shift(self):
        # a source summand shifted by a non-identity morphism contributes at
        # the degrees whose source matches the shift's source, not its target
        d = pair_ring()
        g = d.groupoid
        cross = Morphism(0, 0, 0, 1)  # runs 1 -> 0
        m = GradedModule(d, [cross])
        n = GradedModule(d, [g.identity(0)])
        # deg = 1_0 * gamma * cross^-1 needs gamma running 1 -> 0
        assert hom_degree_dimension(m, n, cross) == 1
        assert hom_degree_dimension(m, n, g.identity(0)) == 0
        assert hom_degree_dimension(m, n, g.identity(1)) == 0

    def test_hom_needs_same_ring(self):
        d1, d2 = pair_ring(), pair_ring(PrimeField(5))
        m = GradedModule(d1, [d1.groupoid.identity(0)])
        n = GradedModule(d2, [d2.groupoid.identity(0)])
        with pytest.raises(GradixError):
            hom_degree_dimension(m, n, d1.groupoid.identity(0))

    def test_rings_loaded_twice_are_one_ring(self):
        # Two loads of one ring file give equal rings, not one object: the
        # modules over them still have hom spaces and accept each other's vectors.
        d1, d2 = fixture_ring("pair_ring.json"), fixture_ring("pair_ring.json")
        assert d1 is not d2
        one, cross = d1.groupoid.identity(1), Morphism(0, 2, 0, 1)
        m, n = GradedModule(d1, [one, cross]), GradedModule(d2, [one, cross])
        assert hom_degree_dimension(m, n, one) == 4
        v = n.vector(one, {0: 1, 1: 2})
        assert m.pdim_of_span([v]) == 1
        assert m.quotient_pdim([v]) == 1
