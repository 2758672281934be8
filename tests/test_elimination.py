import os
import random
from fractions import Fraction

import pytest

from gradix import elimination, matrices
from gradix.division import GradedDivisionRing
from gradix.elimination import invert_square, rank_all, row_reduce, solve
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import ConnectedBlock, FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrices import HomMatrix
from gradix.specfiles import load_json, load_matrix
from oracles import (
    benchmark_linalg_jobs,
    coboundary_twist,
    graded_product,
    hom_slot,
    is_two_sided_inverse,
    product_test_rings,
    random_matrix_on,
    random_signature,
    ring_two_object_c2,
    row_reduce_by_field,
    sample_nonzero,
)
from oracles import random_matrix as oracle_matrix

Q = Rationals()


def rational_point():
    return GradedDivisionRing.group_ring(Q, FiniteGroup.trivial(), 0)


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
            if hom_slot(m, i, j) is not None and rng.random() < density:
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
                assert ring.groupoid.is_identity(hom_slot(red.echelon, r, c))


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
        report = rank_all(HomMatrix.identity(d, [e] * 8))
        assert not report.rho_i_skipped
        assert report.rho_i == report.rho == 8
        report = rank_all(HomMatrix.identity(d, [e] * 9))
        assert report.rho_i_skipped
        assert report.rho_i is None
        assert report.rho == 9

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
                    if hom_slot(x_true, i, 0) is not None and rng.random() < 0.8:
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
        assert all(hom_slot(red.echelon, i, j) is not None for (i, j) in red.echelon.entries)
        b, c = rank_all(a).factorization
        assert graded_product(b, c).entries == a.entries
        square = HomMatrix(ring, [e0, into_2], [into_1, e0], {(0, 0): 2, (0, 1): 1})
        with pytest.raises(ValidationError) as caught:
            invert_square(square)
        assert caught.value.invariant == "invert.gamma0"


def sparse_ring(field, rng):
    """Full support on four objects with C_2 isotropy, twisted by a random
    coboundary: a slot is alive only when its row and column signatures
    leave the same object, so most slots of a random matrix are dead."""
    g = FiniteGroupoid([ConnectedBlock([0, 1, 2, 3], FiniteGroup.cyclic(2))])
    support = list(g.morphisms())
    factor = {(s, t): field.one() for s in support for t in support if g.is_composable(s, t)}
    return coboundary_twist(GradedDivisionRing(field, g, support, factor), rng)


def coprime_denominator_matrix(rng, ring, rows, cols):
    """Entries in every live slot over the pairwise coprime denominators 7^20, 11^15, 13^12 and 17^10."""
    dens = [7**20, 11**15, 13**12, 17**10]
    entries = {
        (i, j): Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10**12), rng.choice(dens))
        for i, a in enumerate(rows)
        for j, b in enumerate(cols)
        if ring.slot(a, b) is not None
    }
    return HomMatrix(ring, rows, cols, entries)


def assert_same_reduction(mat):
    red = row_reduce(mat)
    entries, pivots, row_sig = row_reduce_by_field(mat)
    assert red.echelon.entries == entries
    assert list(red.pivots) == pivots
    assert list(red.echelon.row_sig) == row_sig


class TestAgainstFieldReduction:
    """row_reduce on integer rows against the per-entry field reduction:
    the same echelon entries, pivots and row signatures, exactly."""

    @pytest.fixture(params=[PrimeField(7), Q], ids=["f7", "q"])
    def rings(self, request):
        rng = random.Random(41)
        field = request.param
        two = ring_two_object_c2(field)
        return [two, coboundary_twist(two, rng), coboundary_twist(two, rng), sparse_ring(field, rng)]

    def test_wide_tall_and_square(self, rings):
        rng = random.Random(43)
        for ring in rings:
            for m, n in [(3, 7), (7, 3), (5, 5), (1, 6), (6, 1)]:
                for _ in range(6):
                    a = random_matrix_on(rng, ring, random_signature(rng, ring, m), random_signature(rng, ring, n), 0.8)
                    assert_same_reduction(a)
                    assert_same_reduction(a.transpose_opposite())

    def test_rank_deficient(self, rings):
        rng = random.Random(47)
        deficient = 0
        for ring in rings:
            for _ in range(8):
                middle = random_signature(rng, ring, 2)
                b = random_matrix_on(rng, ring, random_signature(rng, ring, 6), middle, 1.0)
                c = random_matrix_on(rng, ring, middle, random_signature(rng, ring, 5), 1.0)
                a = b.mul(c)
                deficient += row_reduce(a).rank < 5
                assert_same_reduction(a)
        assert deficient == 8 * len(rings)

    def test_augmented_by_identity_and_by_a_column(self, rings):
        rng = random.Random(53)
        for ring in rings:
            pool = [s for s in ring.groupoid.morphisms() if s.target in ring.gamma0()]
            for n in (2, 4, 6):
                rows = [rng.choice(pool) for _ in range(n)]
                a = random_matrix_on(rng, ring, rows, [rng.choice(pool) for _ in range(n)], 0.9)
                assert_same_reduction(a.hstack(HomMatrix.identity(ring, rows)))
                b = random_matrix_on(rng, ring, rows, [rng.choice(pool)], 1.0)
                assert_same_reduction(a.hstack(b))

    def test_large_coprime_denominators(self):
        rng = random.Random(59)
        two = ring_two_object_c2(Q)
        for ring in (two, coboundary_twist(two, rng), sparse_ring(Q, rng)):
            pool = [s for s in ring.groupoid.morphisms() if s.target in ring.gamma0()]
            for m, n in [(4, 4), (3, 6), (6, 3)]:
                rows = [rng.choice(pool) for _ in range(m)]
                a = coprime_denominator_matrix(rng, ring, rows, [rng.choice(pool) for _ in range(n)])
                assert_same_reduction(a)
                if m == n:
                    assert_same_reduction(a.hstack(HomMatrix.identity(ring, rows)))


def test_a_wrong_transvection_degree_is_an_internal_error(monkeypatch):
    # slot is patched to answer the identity for every row but the pivot's,
    # so the degree meant to carry the pivot row onto row 1 does not
    ring = f5_c2()
    e, s = sorted(ring.support, key=ring.groupoid.is_identity, reverse=True)
    a = HomMatrix(ring, [e, s], [e], {(0, 0): 1, (1, 0): 1})
    assert row_reduce(a).rank == 1
    real = ring.slot
    monkeypatch.setattr(ring, "slot", lambda x, y: real(x, x) if x != y else real(x, y))
    with pytest.raises(GradixError, match="internal error"):
        row_reduce(a)


# -- the single verifying product ----------------------------------------------


def counting(monkeypatch, owner, name):
    """Wrap owner.name so that each call is counted; returns the count list."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def invertible(rng, ring, n):
    """A random invertible n x n matrix over ring and its inverse."""
    pool = [s for s in ring.groupoid.morphisms() if s.target in ring.gamma0()]
    while True:
        a = random_matrix_on(rng, ring, [rng.choice(pool) for _ in range(n)], [rng.choice(pool) for _ in range(n)], 0.9)
        b = invert_square(a)
        if b is not None:
            return a, b


def perturbations(rng, b):
    """Seeded wrong inverses, each differing from b: one entry changed, one
    entry zeroed, and two columns of one source swapped (a slot's life
    depends only on the sources of its signatures, so every entry stays
    in a live slot)."""
    field, (rows, cols) = b.ring.field, b.shape
    i, j = rng.randrange(rows), rng.randrange(cols)
    while hom_slot(b, i, j) is None:
        i, j = rng.randrange(rows), rng.randrange(cols)
    changed = dict(b.entries)
    old = b.coeff(i, j)
    # times 2 (not 1 over F_p for p > 2), or a nonzero value in an empty slot
    changed[(i, j)] = sample_nonzero(field, rng) if field.is_zero(old) else field.mul(old, field.coerce(2))
    zeroed = dict(b.entries)
    del zeroed[rng.choice(sorted(zeroed))]
    out = [changed, zeroed]
    pairs = [
        (j1, j2)
        for j1 in range(cols)
        for j2 in range(j1 + 1, cols)
        if b.col_sig[j1].source == b.col_sig[j2].source
        and any(b.coeff(r, j1) != b.coeff(r, j2) for r in range(rows))
    ]
    if pairs:
        j1, j2 = rng.choice(pairs)
        swap = {j1: j2, j2: j1}
        out.append({(r, swap.get(c, c)): v for (r, c), v in b.entries.items()})
    wrong = [HomMatrix(b.ring, b.row_sig, b.col_sig, entries) for entries in out]
    assert all(w.entries != b.entries for w in wrong)
    return wrong


def plant_in_reduction(monkeypatch, change, target=None):
    """row_reduce as before, but change(red) edits each reduction, or only
    the reduction of ``target`` when one is given."""
    real = elimination.row_reduce

    def planted(matrix):
        red = real(matrix)
        if target is None or matrix is target:
            change(red)
        return red

    monkeypatch.setattr(elimination, "row_reduce", planted)


@pytest.fixture(params=[Q, PrimeField(7)], ids=["q", "f7"])
def twisted_two_object(request):
    """Full support on two objects with C_2 isotropy, over Q or F_7, twisted
    by a seeded coboundary."""
    return coboundary_twist(ring_two_object_c2(request.param), random.Random(67))


class TestOneProductInverse:
    """invert_square verifies B with A*B = I alone; every wrong B that the
    two-sided check of tests/oracles.py rejects is still an internal error."""

    def test_every_perturbed_inverse_is_an_internal_error(self, monkeypatch, twisted_two_object):
        rng = random.Random(61)
        caught = 0
        for n in (2, 3, 4, 5, 6):
            a, b = invertible(rng, twisted_two_object, n)
            assert is_two_sided_inverse(a, b)
            for wrong in perturbations(rng, b):
                assert not is_two_sided_inverse(a, wrong)

                def right_block(red, wrong=wrong, n=n):
                    kept = {(i, j): c for (i, j), c in red.echelon.entries.items() if j < n}
                    red.echelon.entries = kept | {(i, n + j): c for (i, j), c in wrong.entries.items()}

                with monkeypatch.context() as patch:
                    plant_in_reduction(patch, right_block)
                    with pytest.raises(GradixError, match="internal error"):
                        invert_square(a)
                caught += 1
            assert invert_square(a).equal(b)
        assert caught >= 14

    def test_the_planted_inverse_itself_passes(self, monkeypatch, twisted_two_object):
        # the planting keeps a right block it is given unchanged
        a, b = invertible(random.Random(62), twisted_two_object, 4)

        def right_block(red):
            kept = {(i, j): c for (i, j), c in red.echelon.entries.items() if j < 4}
            red.echelon.entries = kept | {(i, 4 + j): c for (i, j), c in b.entries.items()}

        plant_in_reduction(monkeypatch, right_block)
        assert invert_square(a).equal(b)

    def test_one_verifying_product_per_inverse(self, monkeypatch, twisted_two_object):
        rng = random.Random(63)
        products = counting(monkeypatch, matrices, "sparse_product")
        for n in (1, 3, 6, 9):
            a, _ = invertible(rng, twisted_two_object, n)
            del products[:]
            assert invert_square(a) is not None
            assert len(products) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_benchmark_inverse_makes_one_verifying_product(self, monkeypatch, seed):
        jobs = [job for job in benchmark_linalg_jobs(seed) if job.name.endswith(".invert")]
        assert len(jobs) == 4
        products = counting(monkeypatch, matrices, "sparse_product")
        for job in jobs:
            del products[:]
            answer = job.run()
            assert len(products) == 1, job.name
            assert job.check(answer), job.name


class TestRankWitness:
    """rank_all checks that C's pivot columns are the local units and
    multiplies B*C only on the other columns."""

    def deficient(self, ring, seed):
        """A 4 x 7 matrix of rank 2, with pivot rows that reach a live non-pivot slot."""
        rng = random.Random(seed)
        while True:
            middle = random_signature(rng, ring, 2)
            b = random_matrix_on(rng, ring, random_signature(rng, ring, 4), middle, 1.0)
            a = b.mul(random_matrix_on(rng, ring, middle, random_signature(rng, ring, 7), 1.0))
            red = row_reduce(a)
            pivots = {j for _, j in red.pivots}
            live = [(t, j) for t in range(red.rank) for j in range(7) if j not in pivots and hom_slot(red.echelon, t, j) is not None]
            if red.rank == 2 and live:
                return a, live[0]

    def test_a_corrupted_non_pivot_column_is_an_internal_error(self, monkeypatch, twisted_two_object):
        ring = twisted_two_object
        for seed in range(5):
            a, (t, j) = self.deficient(ring, seed)
            assert rank_all(a).rho == 2

            def corrupt(red, t=t, j=j):
                old = red.echelon.coeff(t, j)
                red.echelon.entries[(t, j)] = ring.field.one() if ring.field.is_zero(old) else ring.field.mul(old, ring.field.coerce(2))

            with monkeypatch.context() as patch:
                plant_in_reduction(patch, corrupt, target=a)
                with pytest.raises(GradixError, match="internal error: factorization witness"):
                    rank_all(a)

    def test_a_pivot_column_that_is_not_a_local_unit_is_an_internal_error(self, monkeypatch, twisted_two_object):
        ring = twisted_two_object
        a, _ = self.deficient(ring, 0)
        square, _ = invertible(random.Random(64), ring, 5)
        for m in (a, square):
            t, j = row_reduce(m).pivots[-1]
            with monkeypatch.context() as patch:
                plant_in_reduction(patch, lambda red: red.echelon.entries.update({(t, j): ring.field.coerce(2)}), target=m)
                with pytest.raises(GradixError, match="internal error: a pivot column"):
                    rank_all(m)
            with monkeypatch.context() as patch:
                plant_in_reduction(patch, lambda red: red.echelon.entries.pop((t, j)), target=m)
                with pytest.raises(GradixError, match="internal error: a pivot column"):
                    rank_all(m)

    def test_full_rank_square_needs_no_product(self, monkeypatch, twisted_two_object):
        rng = random.Random(65)
        squares = [invertible(rng, twisted_two_object, n)[0] for n in (1, 4, 8, 9)]
        a, _ = self.deficient(twisted_two_object, 1)
        products = counting(monkeypatch, matrices, "sparse_product")
        for m in squares:
            report = rank_all(m)
            assert report.rho == m.shape[0] and report.all_equal()
        assert products == []
        assert rank_all(a).rho == 2
        assert len(products) == 1


# -- the slot table --------------------------------------------------------------


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def same_source_pairs(matrix):
    sigs = set(matrix.row_sig + matrix.col_sig)
    return {(a, b) for a in sigs for b in sigs if a.source == b.source}


class TestSlotTableWork:
    """Deterministic work counts: FiniteGroupoid.compose_inverse runs at
    most once per same-source signature pair of a ring, and never again."""

    def test_unimodular_fixture(self, monkeypatch):
        calls = counting(monkeypatch, FiniteGroupoid, "compose_inverse")
        path = os.path.join(FIXTURES, "unimodular.matrix.json")
        a = load_matrix(load_json(path), os.path.dirname(path))
        first = invert_square(a)
        # every signature is the one identity of the point ring
        assert len(same_source_pairs(a)) == 1
        assert [args[1:] for args in calls] == list(same_source_pairs(a))
        del calls[:]
        assert invert_square(a).equal(first)
        assert calls == []

    def test_first_inverse_composes_each_pair_once(self, monkeypatch, twisted_two_object):
        rng = random.Random(66)
        calls = counting(monkeypatch, FiniteGroupoid, "compose_inverse")
        for n in (3, 6, 9):
            ring = coboundary_twist(twisted_two_object, rng)
            found, first = invertible(rng, ring, n)
            # the same matrix on an equal ring whose slot table is empty
            fresh = GradedDivisionRing(ring.field, ring.groupoid, ring.support, ring.factor)
            del calls[:]
            a = HomMatrix(fresh, found.row_sig, found.col_sig, found.entries)
            assert invert_square(a).entries == first.entries
            pairs = [args[1:] for args in calls]
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) <= same_source_pairs(a)
            del calls[:]
            assert invert_square(a).entries == first.entries
            assert calls == []

    def test_dead_pairs_and_the_opposite_ring_compose_nothing(self, monkeypatch, twisted_two_object):
        ring = twisted_two_object
        g = ring.groupoid
        a, b = g.identity(0), Morphism(0, 1, 1, 1)
        calls = counting(monkeypatch, FiniteGroupoid, "compose_inverse")
        assert ring.slot(a, b) is None
        assert calls == []
        assert ring.slot(b, g.identity(1)) == b
        assert len(calls) == 1
        assert ring.opposite().slot(b, g.identity(1)) == b
        assert len(calls) == 1
