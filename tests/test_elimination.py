import random
from fractions import Fraction

import pytest

from gradix import division
from gradix.division import GradedDivisionRing
from gradix.elimination import invert_square, rank_all, row_reduce, solve
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrices import HomMatrix
from oracles import (
    graded_product,
    product_test_rings,
    random_element,
    random_matrix_on,
    random_matrix_ring,
    sample_nonzero,
)
from oracles import random_matrix as oracle_matrix

Q = Rationals()


def rational_point():
    return GradedDivisionRing.trivial(Q, 0)


def f5_c2():
    return GradedDivisionRing.group_ring(PrimeField(5), FiniteGroup.cyclic(2))


def pair_ring():
    g = FiniteGroupoid.pair([0, 1])
    support = list(g.morphisms())
    factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
    return GradedDivisionRing(Q, g, support, factor)


def twisted_c2_f3():
    f3 = PrimeField(3)
    return GradedDivisionRing.twisted_group_ring(
        f3, FiniteGroup.cyclic(2), lambda a, b: 2 if (a, b) == (1, 1) else 1
    )


def random_matrix(ring, rng, rows, cols, density=0.6):
    degrees = list(ring.support)
    row_sig = [rng.choice(degrees) for _ in range(rows)]
    col_sig = [rng.choice(degrees) for _ in range(cols)]
    m = HomMatrix(ring, row_sig, col_sig)
    for i in range(rows):
        for j in range(cols):
            if m.slot_degree(i, j) is not None and rng.random() < density:
                m.entries[(i, j)] = sample_nonzero(ring.field, rng)
    return m


class TestRowReduce:
    def test_trivial_grading_rank_one(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        a = HomMatrix(d, [e, e], [e, e], {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
        red = row_reduce(a)
        assert red.rank == 1
        assert red.pivots == ((0, 0),)
        assert red.echelon.coeff(0, 0) == 1
        assert red.echelon.coeff(0, 1) == 2
        assert all(r != 1 for r, _ in red.echelon.entries)

    def test_pivot_columns_strictly_increase(self):
        rng = random.Random(3)
        ring = f5_c2()
        for _ in range(30):
            m = random_matrix(ring, rng, 4, 4)
            red = row_reduce(m)
            cols = [c for _, c in red.pivots]
            assert cols == sorted(set(cols))
            # full reduction: pivot columns clear except the pivot itself
            for r, c in red.pivots:
                for i in range(m.shape[0]):
                    if i != r:
                        assert red.echelon.coeff(i, c) == ring.field.zero()

    def test_pivots_are_local_units(self):
        rng = random.Random(5)
        ring = pair_ring()
        for _ in range(20):
            m = random_matrix(ring, rng, 3, 3)
            red = row_reduce(m)
            for r, c in red.pivots:
                assert red.echelon.coeff(r, c) == ring.field.one()
                assert ring.groupoid.is_identity(red.echelon.slot_degree(r, c))


class TestRanks:
    def test_rank_all_agreement_random(self):
        rng = random.Random(23)
        for ring in (rational_point(), f5_c2(), pair_ring(), twisted_c2_f3()):
            for _ in range(15):
                m = random_matrix(ring, rng, rng.randrange(1, 4), rng.randrange(1, 4))
                report = rank_all(m)
                assert report.all_equal()
                assert not report.rho_i_skipped

    def test_outer_product_rank_one(self):
        d = f5_c2()
        e = d.groupoid.identity(0)
        g = Morphism(0, 0, 1, 0)
        col = HomMatrix(d, [e, g], [e], {(0, 0): 2, (1, 0): 3})
        row = HomMatrix(d, [e], [g, e], {(0, 0): 1, (0, 1): 4})
        m = col.mul(row)
        report = rank_all(m)
        assert report.all_equal()
        assert report.rho == 1

    def test_identity_full_rank(self):
        d = pair_ring()
        sig = [d.groupoid.identity(0), d.groupoid.identity(1), Morphism(0, 0, 0, 1)]
        m = HomMatrix.identity(d, sig)
        report = rank_all(m)
        assert report.all_equal()
        assert report.rho == 3

    def test_zero_matrix_rank_zero(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        m = HomMatrix(d, [e, e], [e])
        report = rank_all(m)
        assert report.all_equal()
        assert report.rho == 0

    def test_minor_search_skip_bound(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        m = HomMatrix.identity(d, [e, e, e])
        report = rank_all(m, rank_bound=2)
        assert report.rho_i_skipped
        assert report.rho_i is None
        assert report.rho == 3

    def test_rank_invariant_under_elementary_products(self):
        # every invertible P is a product of elementary matrices
        rng = random.Random(41)
        ring = f5_c2()
        degrees = list(ring.support)
        multiplied = 0
        for _ in range(10):
            m = random_matrix(ring, rng, 3, 3)
            base = rank_all(m).rho
            for _ in range(4):
                sigma = [rng.choice(degrees) for _ in range(3)]
                p = random_matrix_on(rng, ring, sigma, list(m.row_sig), density=0.8)
                if invert_square(p) is None:
                    continue
                assert rank_all(p.mul(m)).rho == base
                multiplied += 1
        assert multiplied >= 10


class TestInvert:
    def test_invert_round_trip(self):
        rng = random.Random(9)
        for ring in (rational_point(), f5_c2(), pair_ring(), twisted_c2_f3()):
            inverted = 0
            for _ in range(30):
                n = rng.randrange(1, 4)
                degrees = [s for s in ring.support]
                sig = [rng.choice(degrees) for _ in range(n)]
                try:
                    m = random_matrix(ring, rng, n, n)
                except GradixError:
                    continue
                inv = invert_square(m)
                if inv is None:
                    assert rank_all(m).rho < n
                    continue
                inverted += 1
                assert inv.mul(m).equal(HomMatrix.identity(ring, list(m.col_sig)))
                assert m.mul(inv).equal(HomMatrix.identity(ring, list(m.row_sig)))
            assert inverted > 0

    def test_invert_rejects_rectangular(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        with pytest.raises(GradixError):
            invert_square(HomMatrix(d, [e], [e, e]))

    def test_singular_returns_none(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        m = HomMatrix(d, [e, e], [e, e], {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
        assert invert_square(m) is None


class TestSolve:
    def test_solve_round_trip(self):
        rng = random.Random(17)
        for ring in (rational_point(), f5_c2(), pair_ring()):
            solved = 0
            for _ in range(40):
                rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
                a = random_matrix(ring, rng, rows, cols)
                tau = rng.choice(list(ring.support))
                x_true = HomMatrix(ring, list(a.col_sig), [ring.groupoid.inverse(tau)])
                for i in range(cols):
                    if x_true.slot_degree(i, 0) is not None and rng.random() < 0.8:
                        x_true.entries[(i, 0)] = sample_nonzero(ring.field, rng)
                b = a.mul(x_true)
                x = solve(a, b)
                assert x is not None  # consistent by construction
                assert a.mul(x).equal(b)
                solved += 1
            assert solved > 0

    def test_inconsistent_returns_none(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        a = HomMatrix(d, [e, e], [e], {(0, 0): 1, (1, 0): 2})
        b = HomMatrix(d, [e, e], [e], {(0, 0): 1, (1, 0): 3})
        assert solve(a, b) is None

    def test_underdetermined_free_coords_zero(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        a = HomMatrix(d, [e], [e, e], {(0, 0): 1, (0, 1): 1})
        b = HomMatrix(d, [e], [e], {(0, 0): Fraction(5)})
        x = solve(a, b)
        assert x is not None
        assert x.coeff(0, 0) == Fraction(5)
        assert x.coeff(1, 0) == 0

    def test_solve_signature_mismatch(self):
        d = rational_point()
        e = d.groupoid.identity(0)
        a = HomMatrix(d, [e], [e])
        b = HomMatrix(d, [e, e], [e])
        with pytest.raises(GradixError):
            solve(a, b)


class TestAgainstDefinitionProduct:
    def test_pivot_columns_times_pivot_rows_reproduce_the_matrix(self):
        rng = random.Random(37)
        for ring in product_test_rings(rng):
            for _ in range(10):
                a = oracle_matrix(rng, ring, rng.randrange(1, 6), rng.randrange(1, 6))
                for mat in (a, a.transpose_opposite()):
                    red = row_reduce(mat)
                    m, n = mat.shape
                    assert [r for (r, _) in red.pivots] == list(range(red.rank))
                    b = mat.submatrix(range(m), [j for (_, j) in red.pivots])
                    c = red.echelon.submatrix(range(red.rank), range(n))
                    assert graded_product(b, c).entries == mat.entries
                    assert all(r < red.rank for r, _ in red.echelon.entries)

    def test_inverse_is_two_sided_under_the_definition_product(self):
        rng = random.Random(73)
        inverted = 0
        for ring in product_test_rings(rng):
            pool = [s for s in ring.groupoid.morphisms() if s.target in ring.gamma0()]
            for _ in range(10):
                n = rng.randrange(1, 5)
                a = random_matrix_on(rng, ring, [rng.choice(pool) for _ in range(n)], [rng.choice(pool) for _ in range(n)], 0.9)
                for mat in (a, a.transpose_opposite()):
                    inv = invert_square(mat)
                    if inv is None:
                        assert rank_all(mat).rho < n
                        continue
                    inverted += 1
                    assert graded_product(inv, mat).entries == HomMatrix.identity(mat.ring, mat.col_sig).entries
                    assert graded_product(mat, inv).entries == HomMatrix.identity(mat.ring, mat.row_sig).entries
        assert inverted > 20

    def test_row_outside_gamma0(self):
        # The support lives on objects 0 and 1; a row signature ending at 2
        # has only dead slots, and its local unit 1_2 is zero.
        g = FiniteGroupoid.pair([0, 1, 2])
        support = [m for m in g.morphisms() if m.source != 2 and m.target != 2]
        factor = {(s, t): Q.one() for s in support for t in support if g.is_composable(s, t)}
        ring = GradedDivisionRing(Q, g, support, factor)
        e0, into_1, into_2 = g.identity(0), Morphism(0, 1, 0, 0), Morphism(0, 2, 0, 0)
        a = HomMatrix(ring, [e0, into_2, into_1], [into_1, e0], {(0, 0): 2, (0, 1): 1, (2, 0): 3})
        red = row_reduce(a)
        assert all(red.echelon.slot_degree(i, j) is not None for (i, j) in red.echelon.entries)
        b, c = rank_all(a).factorization
        assert graded_product(b, c).entries == a.entries
        square = HomMatrix(ring, [e0, into_2], [into_1, e0], {(0, 0): 2, (0, 1): 1})
        with pytest.raises(ValidationError) as caught:
            invert_square(square)
        assert caught.value.invariant == "invert.gamma0"


class TestNoScalarWrappers:
    def test_kernels_build_no_homogeneous_scalar(self, monkeypatch):
        # Entries are bare coefficients from elimination to matrix-ring
        # products; HomogeneousScalar is only the division ring's element API.
        rng = random.Random(43)
        inputs = []
        for ring in product_test_rings(rng):
            pool = sorted(ring.support)
            sig = [rng.choice(pool) for _ in range(4)]
            a = random_matrix_on(rng, ring, sig, sig, density=0.9)
            b = random_matrix_on(rng, ring, sig, [rng.choice(pool) for _ in range(3)])
            r = random_matrix_ring(rng, ring, 3)
            gamma = rng.choice(pool)
            x, y = random_element(rng, r, gamma), random_element(rng, r, ring.groupoid.identity(gamma.source))
            inputs.append((a, b, x, y))
        built = []
        init = division.HomogeneousScalar.__init__

        def counting(self, degree, coeff):
            built.append(degree)
            init(self, degree, coeff)

        monkeypatch.setattr(division.HomogeneousScalar, "__init__", counting)
        inverted = 0
        for a, b, x, y in inputs:
            row_reduce(a)
            assert built == []
            inverted += invert_square(a) is not None
            assert built == []
            a.mul(b)
            assert built == []
            x.mul(y)
            assert built == []
        assert inverted > 0
