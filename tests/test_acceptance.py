"""The ten headline guarantees, each reported as a one-line verdict.

Every check here goes through an independent route where one exists:
minor ranks come from the oracle in oracles.py, inverses are rebuilt
from field-linear systems, and the broken fixture corpus is driven by
its manifest.  Run with -s to watch the verdict lines.
"""

import json
import os

import pytest

from gradix.categories import MatrixFormCategory, classify_category, category_to_semisimple_spec
from gradix.division import GradedDivisionRing
from gradix.elimination import invert_square, rank_all
from gradix.errors import ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import ConnectedBlock, FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrix_ring import MatrixRing
from gradix.modules import GradedModule
from gradix.specfiles import load_any
from gradix.structure import (
    SemisimpleRingSpec,
    classify,
    corner_structure,
    iso_test,
    simple_dimension,
    spec_iso,
    wedderburn_decompose,
)

from oracles import (
    element_slot,
    gr_prime_by_products,
    minor_rank,
    random_matrix,
    random_module,
    random_vectors,
    reference_rings,
    right_inverse,
    seeded,
)

FIXTURES = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "fixtures"))


def _verdict(n, body):
    try:
        body()
    except BaseException:
        print(f"criterion {n}: fail")
        raise
    print(f"criterion {n}: pass")


def test_criterion_1_four_ranks_agree():
    def body():
        rng = seeded(101)
        rings = reference_rings()
        for trial in range(500):
            ring = rings[trial % len(rings)]
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, ring, m, n)
            report = rank_all(a)
            assert report.all_equal()
            assert not report.rho_i_skipped
            oracle = minor_rank(a)
            assert report.rho_r == oracle
            assert report.rho_c == oracle
            assert report.rho == oracle
            assert report.rho_i == oracle

    _verdict(1, body)


def test_criterion_2_one_sided_inverse_is_two_sided():
    def body():
        rng = seeded(202)
        rings = reference_rings()
        invertible = singular = 0
        for trial in range(200):
            ring = rings[trial % len(rings)]
            field = ring.field
            n = rng.randint(1, 4)
            a = random_matrix(rng, ring, n, n, density=0.75)
            t = right_inverse(a)
            lib = invert_square(a)
            report = rank_all(a)
            if t is not None:
                invertible += 1
                p = t.mul(a)
                for i in range(n):
                    for j in range(n):
                        want = field.one() if i == j else field.zero()
                        assert field.equal(p.coeff(i, j), want)
                assert lib is not None
                assert report.rho == n
            else:
                singular += 1
                assert lib is None
                assert report.rho < n
        assert invertible >= 20
        assert singular >= 20

    _verdict(2, body)


def test_criterion_3_pdim_additivity():
    def body():
        rng = seeded(303)
        rings = reference_rings()
        for trial in range(200):
            ring = rings[trial % len(rings)]
            module = random_module(rng, ring, max_pdim=6)
            vectors = random_vectors(rng, module, rng.randint(0, 4))
            span = module.pdim_of_span(vectors)
            quotient = module.quotient_pdim(vectors)
            assert span + quotient == module.pdim()

    _verdict(3, body)


def test_criterion_4_two_cluster_division_ring():
    def body():
        q = Rationals()
        g = FiniteGroupoid.pair([1, 2, 3, 4])
        support = []
        for cluster in ([1, 2], [3, 4]):
            for a in cluster:
                for b in cluster:
                    support.append(Morphism(0, a, 0, b))
        factor = {
            (s, t): q.one()
            for s in support
            for t in support
            if g.is_composable(s, t)
        }
        d = GradedDivisionRing(q, g, support, factor)

        for m in support:
            x = (m, q.coerce(3))
            assert d.mul(x, d.inv(x)) == (g.identity(m.target), q.one())
            assert d.mul(d.inv(x), x) == (g.identity(m.source), q.one())

        assert not d.is_gr_prime()
        assert not gr_prime_by_products(d)
        assert d.primality_classes() == [[1, 2], [3, 4]]

        blocks = d.decompose_prime()
        assert len(blocks) == 2
        for b in blocks:
            assert b.is_gr_prime()
            assert gr_prime_by_products(b)
        for m in g.morphisms():
            assert sum(m in b.support for b in blocks) == (m in d.support)

    _verdict(4, body)


def _field_at(field, groupoid, obj):
    ident = groupoid.identity(obj)
    return GradedDivisionRing(field, groupoid, [ident], {(ident, ident): field.one()})


def test_criterion_5_pfm_and_ipbn_fixtures():
    def body():
        q = Rationals()
        g = FiniteGroupoid.pair([1, 2])
        d = _field_at(q, g, 1)
        ring = MatrixRing(
            d, [[g.identity(1)], [g.identity(1)], [Morphism(0, 1, 0, 2)]]
        )
        flags = classify(wedderburn_decompose(ring))
        assert flags.pfm
        assert not flags.gr_division
        assert flags.witnesses["gr_division"] == "E11 has no right inverse"
        assert not flags.ipbn
        assert flags.witnesses["ipbn_data"]["sizes"] == (1, 2)

        # the corner module at the doubled object: two simple summands,
        # yet it is generated by the single idempotent
        assert simple_dimension(ring, [g.identity(1)]) == 2
        assert GradedModule(d, [g.identity(1)]).pdim() == 1

        k = _field_at(q, FiniteGroupoid.pair([0]), 0)
        e = k.groupoid.identity(0)
        m2 = MatrixRing(k, [[e], [e]])
        flags2 = classify(wedderburn_decompose(m2))
        assert not flags2.pfm
        assert not flags2.gr_division

    _verdict(5, body)


def _random_semisimple_setup(rng, field):
    """A spec with known blocks plus the assembled ring that realizes it.

    Block 0 always has two indices over a trivial-support coefficient
    ring sitting inside C2 isotropy, so each perturbation below is
    guaranteed (not just likely) to break the comparison; the other
    blocks have sizes 1 or 3 to keep sizes distinctive.
    """
    g = FiniteGroupoid([ConnectedBlock(list(range(6)), FiniteGroup.cyclic(2))])
    n_blocks = rng.randint(1, 3)
    bases = rng.sample(range(6), n_blocks)
    block_rings = []
    for j in range(n_blocks):
        e = bases[j]
        full = j != 0 and rng.random() < 0.5
        loops = [Morphism(0, e, el, e) for el in ((0, 1) if full else (0,))]
        factor = {(s, t): field.one() for s in loops for t in loops}
        dj = GradedDivisionRing(field, g, loops, factor)
        count = 2 if j == 0 else rng.choice([1, 3])
        sigs = [
            Morphism(0, e, rng.choice([0, 1]), rng.randrange(6)) for _ in range(count)
        ]
        block_rings.append(MatrixRing(dj, [[s] for s in sigs]))
    spec = SemisimpleRingSpec(block_rings)

    union_support = []
    union_factor = {}
    for blk in block_rings:
        union_support.extend(blk.ring.support)
        union_factor.update(blk.ring.factor)
    du = GradedDivisionRing(field, g, union_support, union_factor)
    all_sigs = [sig for blk in block_rings for sig in blk.signatures]
    rng.shuffle(all_sigs)
    return spec, MatrixRing(du, all_sigs)


def _respec(spec, j, new_block):
    blocks = list(spec.blocks)
    blocks[j] = new_block
    return SemisimpleRingSpec(blocks)


def test_criterion_6_decompose_round_trip():
    def body():
        rng = seeded(606)
        field = Rationals()
        for trial in range(50):
            spec, big = _random_semisimple_setup(rng, field)
            dec = wedderburn_decompose(big)
            match = spec_iso(dec, spec)
            assert match is not None
            assert len(match) == len(spec.blocks)

            blk0 = spec.blocks[0]
            g = spec.groupoid

            smaller = MatrixRing(blk0.ring, [blk0.signatures[0]])
            assert spec_iso(dec, _respec(spec, 0, smaller)) is None

            e = blk0.signatures[0][0].target
            loops = [Morphism(0, e, 0, e), Morphism(0, e, 1, e)]
            factor = {(s, t): field.one() for s in loops for t in loops}
            fat = GradedDivisionRing(field, g, loops, factor)
            fat_block = MatrixRing(fat, blk0.signatures)
            assert spec_iso(dec, _respec(spec, 0, fat_block)) is None

            s0 = blk0.signatures[0][0]
            shifted = Morphism(0, s0.target, 1 - s0.elem, s0.source)
            moved = MatrixRing(blk0.ring, [[shifted], blk0.signatures[1]])
            assert spec_iso(dec, _respec(spec, 0, moved)) is None

    _verdict(6, body)


def _unit_generators(ring):
    out = []
    for i in range(ring.size):
        for j in range(ring.size):
            for gamma in ring.ring.groupoid.morphisms():
                if element_slot(ring, i, j, gamma) is not None:
                    out.append(ring.element(gamma, {(i, j): 1}))
    return out


def test_criterion_7_translation_isos():
    def body():
        rng = seeded(707)
        g = FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.cyclic(2))])
        field = PrimeField(5)
        loops = [Morphism(0, 0, 0, 0), Morphism(0, 0, 1, 0)]
        factor = {(s, t): field.one() for s in loops for t in loops}
        d = GradedDivisionRing(field, g, loops, factor)

        for trial in range(20):
            count = rng.randint(1, 3)
            sigs = [
                Morphism(0, 0, rng.choice([0, 1]), rng.choice([0, 1]))
                for _ in range(count)
            ]
            ring = MatrixRing(d, [[s] for s in sigs])
            h = loops[1]
            moved = MatrixRing(d, [[g.compose(h, s)] for s in sigs])
            cert = iso_test(ring, moved)
            assert cert is not None
            # tau is a genuine reach witness for the pairing it chose
            for i in range(count):
                s = ring.signatures[i][0]
                s2 = moved.signatures[cert.pi[i]][0]
                reach = g.compose(g.inverse(cert.tau), g.compose(s2, g.inverse(s)))
                assert reach in d.support
            gens = _unit_generators(ring)
            for a in gens:
                for b in gens:
                    image = cert.apply(a.mul(b))
                    split = cert.apply(a).mul(cert.apply(b))
                    assert image.equal(split)

        ident = Morphism(0, 0, 0, 0)
        cross = Morphism(0, 0, 0, 1)
        left = MatrixRing(d, [[ident], [ident], [cross]])
        right = MatrixRing(d, [[ident], [cross], [cross]])
        assert iso_test(left, right) is None

    _verdict(7, body)


def test_criterion_8_corner_sizes():
    def body():
        field = Rationals()
        g = FiniteGroupoid([ConnectedBlock([0], FiniteGroup.cyclic(2))])
        sigma = Morphism(0, 0, 0, 0)
        tau = Morphism(0, 0, 1, 0)

        thin = _field_at(field, g, 0)
        split = MatrixRing(thin, [[sigma], [tau]])
        assert corner_structure(split, 0) == [1, 1]

        loops = [sigma, tau]
        factor = {(s, t): field.one() for s in loops for t in loops}
        fat = GradedDivisionRing(field, g, loops, factor)
        joined = MatrixRing(fat, [[sigma], [tau]])
        assert corner_structure(joined, 0) == [2]

    _verdict(8, body)


def test_criterion_9_category_bridge():
    def body():
        rng = seeded(909)
        names = ["A", "B", "C", "D"]
        field_pool = [Rationals(), PrimeField(5), PrimeField(3)]
        for trial in range(100):
            n_obj = rng.randint(1, 4)
            n_rings = rng.randint(1, 3)
            field = rng.choice(field_pool)
            objects = names[:n_obj]
            dims = {o: [rng.randint(0, 3) for _ in range(n_rings)] for o in objects}
            if all(v == 0 for row in dims.values() for v in row):
                dims[objects[0]][0] = 1
            cat = MatrixFormCategory(objects, [field] * n_rings, dims)
            cflags = classify_category(cat)
            rflags = classify(category_to_semisimple_spec(cat))
            assert cflags.semisimple == rflags.gr_semisimple
            assert cflags.simple_artinian == rflags.gr_simple
            assert cflags.all_functors_free == rflags.pfm
            assert cflags.division == rflags.gr_division
            assert cflags.simple_division == (rflags.gr_simple and rflags.gr_division)

        one_block = MatrixFormCategory(["A", "B"], [Rationals()], {"A": [1], "B": [2]})
        verdict = classify_category(one_block)
        assert verdict.simple_artinian
        assert not verdict.division

        lone = MatrixFormCategory(["A", "B"], [Rationals()], {"A": [1], "B": [0]})
        assert classify_category(lone).simple_division

    _verdict(9, body)


def test_criterion_10_broken_fixture_corpus():
    def body():
        with open(os.path.join(FIXTURES, "broken", "manifest.json")) as fh:
            manifest = json.load(fh)
        assert len(manifest) >= 20
        axes = set(manifest.values())
        for required in (
            "group.associativity",
            "groupoid.associativity",
            "category.associativity",
            "factor.cocycle",
            "signature.d_unique",
            "signature.r_unique",
            "support.composition_closed",
        ):
            assert required in axes
        for name, invariant in sorted(manifest.items()):
            path = os.path.join(FIXTURES, "broken", name)
            with pytest.raises(ValidationError) as err:
                load_any(path)
            assert err.value.invariant == invariant, name

    _verdict(10, body)
