import json
import os
import random
import time
from itertools import product

import pytest

from gradix.categories import (
    MatrixFormCategory,
    RawCategory,
    category_to_semisimple_spec,
    classify_category,
    raw_from_matrix_form,
    ring_of_category,
)
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.specfiles import load_category, load_field
from gradix.structure import classify
from oracles import associativity_failure, multiplicity_flags, random_scalar

Q = Rationals()
FIXTURES = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "fixtures"))


class TestMatrixFormValidation:
    def test_missing_row(self):
        with pytest.raises(ValidationError) as err:
            MatrixFormCategory(["A", "B"], [Q], {"A": [1]})
        assert err.value.invariant == "category.dims"

    def test_negative_multiplicity(self):
        with pytest.raises(ValidationError) as err:
            MatrixFormCategory(["A"], [Q], {"A": [-1]})
        assert err.value.invariant == "category.dims"

    def test_row_length(self):
        with pytest.raises(ValidationError) as err:
            MatrixFormCategory(["A"], [Q, Q], {"A": [1]})
        assert err.value.invariant == "category.dims"

    def test_unknown_object_row(self):
        with pytest.raises(ValidationError) as err:
            MatrixFormCategory(["A"], [Q], {"A": [1], "B": [2]})
        assert err.value.invariant == "category.dims"


class TestClassifyCategory:
    def test_one_and_two_dimensional_spaces(self):
        cat = MatrixFormCategory(["A", "B"], [Q], {"A": [1], "B": [2]})
        flags = classify_category(cat)
        assert flags.semisimple
        assert flags.simple_artinian
        assert flags.all_functors_free
        assert flags.witnesses["all_functors_free"] == {0: "A"}
        assert not flags.division

    def test_uniform_dimension_two(self):
        cat = MatrixFormCategory(["A", "B"], [Q], {"A": [2], "B": [2]})
        flags = classify_category(cat)
        assert not flags.all_functors_free

    def test_simple_division(self):
        cat = MatrixFormCategory(["A", "B", "C"], [Q], {"A": [1], "B": [0], "C": [1]})
        flags = classify_category(cat)
        assert flags.division
        assert flags.simple_artinian
        assert flags.simple_division

    def test_two_blocks_disjoint_objects(self):
        cat = MatrixFormCategory(
            ["A", "B"], [Q, Q], {"A": [1, 0], "B": [0, 1]}
        )
        flags = classify_category(cat)
        assert flags.division
        assert not flags.simple_artinian
        assert not flags.simple_division
        assert flags.all_functors_free

    def test_raw_categories_are_refused(self):
        raw = RawCategory(
            ["A"], Q, {("A", "A"): 1}, {(("A", "A", 0), ("A", "A", 0)): {0: 1}}, {"A": {0: 1}}
        )
        with pytest.raises(GradixError):
            classify_category(raw)
        with pytest.raises(GradixError):
            classify_category(ring_of_category(raw))


class TestBridge:
    def test_three_index_block(self):
        cat = MatrixFormCategory(["A", "B"], [Q], {"A": [1], "B": [2]})
        spec = category_to_semisimple_spec(cat)
        assert len(spec.blocks) == 1
        assert spec.blocks[0].size == 3
        # objects A, B are 0, 1 of the pair groupoid: one index at A, two at B
        assert spec.table == (((0, 1), (1, 2)),)
        assert classify(spec).pfm

    def test_multiplicity_two_alone_is_not_pfm(self):
        cat = MatrixFormCategory(["A"], [Q], {"A": [2]})
        spec = category_to_semisimple_spec(cat)
        flags = classify(spec)
        assert not flags.pfm
        assert not flags.gr_division

    def test_mixed_fields_rejected(self):
        cat = MatrixFormCategory(["A", "B"], [Q, PrimeField(5)], {"A": [1, 0], "B": [0, 1]})
        with pytest.raises(GradixError):
            category_to_semisimple_spec(cat)

    def test_zero_category_rejected(self):
        cat = MatrixFormCategory(["A"], [Q], {"A": [0]})
        with pytest.raises(GradixError):
            category_to_semisimple_spec(cat)

    def test_flag_agreement_on_fixtures(self):
        fixtures = [
            MatrixFormCategory(["A", "B"], [Q], {"A": [1], "B": [2]}),
            MatrixFormCategory(["A", "B"], [Q, Q], {"A": [1, 0], "B": [0, 1]}),
            MatrixFormCategory(["A", "B", "C"], [Q], {"A": [1], "B": [0], "C": [1]}),
            MatrixFormCategory(["A"], [Q], {"A": [2]}),
        ]
        for cat in fixtures:
            cflags = classify_category(cat)
            rflags = classify(category_to_semisimple_spec(cat))
            assert cflags.semisimple == rflags.gr_semisimple
            assert cflags.simple_artinian == rflags.gr_simple
            assert cflags.all_functors_free == rflags.pfm
            assert cflags.division == rflags.gr_division

    def test_flag_agreement_on_random_categories(self):
        rng = random.Random(88)
        for _ in range(60):
            n_obj = rng.randint(1, 4)
            n_blocks = rng.randint(1, 3)
            names = [f"X{k}" for k in range(n_obj)]
            dims = {
                name: [rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(n_blocks)]
                for name in names
            }
            cat = MatrixFormCategory(names, [Q] * n_blocks, dims)
            if not cat.active_blocks():
                continue
            cflags = classify_category(cat)
            rflags = classify(category_to_semisimple_spec(cat))
            assert cflags.semisimple == rflags.gr_semisimple
            assert cflags.simple_artinian == rflags.gr_simple
            assert cflags.all_functors_free == rflags.pfm
            assert cflags.division == rflags.gr_division


def _category_flags(flags):
    return {k: getattr(flags, k) for k in ("simple_artinian", "all_functors_free", "division")}


def _ring_flags(flags):
    return {"simple_artinian": flags.gr_simple, "all_functors_free": flags.pfm, "division": flags.gr_division}


class TestMultiplicityOracle:
    """Both flag sets are read off one multiplicity table by
    structure.multiplicities; the oracle reads the definitions off the
    category's dims instead."""

    def test_random_tables_with_inactive_blocks(self):
        rng = random.Random(19)
        inactive = 0
        for _ in range(80):
            names = [f"X{k}" for k in range(rng.randint(1, 4))]
            n_blocks = rng.randint(1, 4)
            dead = set(rng.sample(range(n_blocks), rng.randint(0, n_blocks - 1)))
            dims = {
                name: [0 if j in dead else rng.choice([0, 0, 1, 1, 2, 3]) for j in range(n_blocks)]
                for name in names
            }
            cat = MatrixFormCategory(names, [Q] * n_blocks, dims)
            cflags = classify_category(cat)
            assert _category_flags(cflags) == multiplicity_flags(dims)
            active = cat.active_blocks()
            inactive += len(active) < n_blocks
            if not active:
                continue
            rflags = classify(category_to_semisimple_spec(cat))
            assert _ring_flags(rflags) == multiplicity_flags(dims)
            if rflags.pfm:
                # spec block p is active block p, and ring object k is names[k]
                free = {j: names[e] for j, e in zip(active, rflags.witnesses["pfm"].values())}
                assert free == cflags.witnesses["all_functors_free"]
        assert inactive

    def test_zero_category(self):
        dims = {"A": [0, 0], "B": [0, 0]}
        flags = classify_category(MatrixFormCategory(["A", "B"], [Q, Q], dims))
        want = {"simple_artinian": False, "all_functors_free": True, "division": True}
        assert _category_flags(flags) == multiplicity_flags(dims) == want
        assert flags.witnesses == {
            "simple_artinian": "0 nonzero blocks",
            "all_functors_free": {},
            "division": "every object has total multiplicity at most one",
        }

    def test_mixed_fields_classify_on_the_category_side(self):
        rng = random.Random(23)
        fields = [Q, PrimeField(5), PrimeField(7)]
        for _ in range(30):
            names = [f"X{k}" for k in range(rng.randint(1, 4))]
            dims = {name: [rng.choice([0, 1, 1, 2]) for _ in fields] for name in names}
            cat = MatrixFormCategory(names, fields, dims)
            assert _category_flags(classify_category(cat)) == multiplicity_flags(dims)

    def test_huge_multiplicity_is_summed_not_expanded(self):
        dims = {"A": [10**9, 0], "B": [0, 1], "C": [1, 0]}
        cat = MatrixFormCategory(list(dims), [Q, Q], dims)
        start = time.perf_counter()
        flags = classify_category(cat)
        assert time.perf_counter() - start < 0.1
        assert _category_flags(flags) == multiplicity_flags(dims)
        assert flags.witnesses["all_functors_free"] == {0: "C", 1: "B"}
        assert flags.witnesses["division"] == "object 'A' has total multiplicity 1000000000"


class TestRawCategories:
    def test_one_object_field(self):
        raw = RawCategory(
            ["A"], Q, {("A", "A"): 1}, {(("A", "A", 0), ("A", "A", 0)): {0: 1}}, {"A": {0: 1}}
        )
        ring = ring_of_category(raw)
        assert ring.component_dimension("A", "A") == 1
        # the local unit is idempotent: its composite with itself is itself
        assert raw.identities["A"] == {0: 1}
        assert raw.compose_table == {(("A", "A", 0), ("A", "A", 0)): {0: 1}}

    def test_two_objects_no_cross_homs(self):
        raw = RawCategory(
            ["A", "B"],
            Q,
            {("A", "A"): 1, ("B", "B"): 1},
            {
                (("A", "A", 0), ("A", "A", 0)): {0: 1},
                (("B", "B", 0), ("B", "B", 0)): {0: 1},
            },
            {"A": {0: 1}, "B": {0: 1}},
        )
        ring = ring_of_category(raw)
        assert ring.support() == [("A", "A"), ("B", "B")]
        # 1_A 1_B = 0: no composite pairs a morphism at A with one at B
        assert all(left[:2] == right[:2] for left, right in raw.compose_table)

    def test_spaces_of_dimension_one_and_two(self):
        cat = MatrixFormCategory(["V1", "V2"], [Q], {"V1": [1], "V2": [2]})
        ring = ring_of_category(raw_from_matrix_form(cat))
        dims = {
            (a, b): ring.component_dimension(a, b)
            for a in ("V1", "V2")
            for b in ("V1", "V2")
        }
        assert dims == {
            ("V1", "V1"): 1,
            ("V1", "V2"): 2,
            ("V2", "V1"): 2,
            ("V2", "V2"): 4,
        }
        assert sum(dims.values()) == 9

    def test_dimension_formula_on_random_matrix_forms(self):
        rng = random.Random(5)
        for _ in range(10):
            names = [f"X{k}" for k in range(rng.randint(1, 3))]
            n_blocks = rng.randint(1, 2)
            dims = {
                name: [rng.randint(0, 2) for _ in range(n_blocks)] for name in names
            }
            cat = MatrixFormCategory(names, [Q] * n_blocks, dims)
            ring = ring_of_category(raw_from_matrix_form(cat))
            for a in names:
                for b in names:
                    assert ring.component_dimension(a, b) == sum(x * y for x, y in zip(dims[a], dims[b]))

    def test_matrix_unit_relations(self):
        # Hom(B, A) has the matrix units E_pq, p < m_A and q < m_B, at index
        # p m_B + q.  E_pq o E_qs = E_ps, every other composite is zero, and
        # each identity is the sum of its diagonal units.
        mult = {"V1": 1, "V2": 2}
        cat = MatrixFormCategory(["V1", "V2"], [Q], {name: [m] for name, m in mult.items()})
        raw = raw_from_matrix_form(cat)
        want = {}
        for a, b, c in product(mult, repeat=3):
            for p, q, s in product(range(mult[a]), range(mult[b]), range(mult[c])):
                want[((a, b, p * mult[b] + q), (b, c, q * mult[c] + s))] = {p * mult[c] + s: 1}
        assert raw.compose_table == want
        assert raw.identities == {a: {p * m + p: 1 for p in range(m)} for a, m in mult.items()}

    def test_broken_associativity(self):
        # u o v = I_A while v o u = 0, so (u o v) o u differs from u o (v o u)
        with pytest.raises(ValidationError) as err:
            RawCategory(
                ["A", "B"],
                Q,
                {("A", "A"): 1, ("A", "B"): 1, ("B", "A"): 1, ("B", "B"): 1},
                {
                    (("A", "A", 0), ("A", "A", 0)): {0: 1},
                    (("A", "A", 0), ("A", "B", 0)): {0: 1},
                    (("A", "B", 0), ("B", "B", 0)): {0: 1},
                    (("B", "B", 0), ("B", "B", 0)): {0: 1},
                    (("B", "B", 0), ("B", "A", 0)): {0: 1},
                    (("B", "A", 0), ("A", "A", 0)): {0: 1},
                    (("A", "B", 0), ("B", "A", 0)): {0: 1},
                },
                {"A": {0: 1}, "B": {0: 1}},
            )
        assert err.value.invariant == "category.associativity"

    def test_broken_identity_law(self):
        with pytest.raises(ValidationError) as err:
            RawCategory(
                ["A"],
                Q,
                {("A", "A"): 1},
                {(("A", "A", 0), ("A", "A", 0)): {0: 2}},
                {"A": {0: 1}},
            )
        assert err.value.invariant == "category.identity"

    def test_middle_object_mismatch(self):
        with pytest.raises(ValidationError) as err:
            RawCategory(
                ["A", "B"],
                Q,
                {("A", "B"): 1, ("B", "B"): 1},
                {(("A", "B", 0), ("A", "B", 0)): {0: 1}},
                {"A": {}, "B": {0: 1}},
            )
        assert err.value.invariant == "category.hom"

    def test_identity_of_an_unknown_object(self):
        with pytest.raises(ValidationError) as err:
            RawCategory(
                ["A"],
                Q,
                {("A", "A"): 1},
                {(("A", "A", 0), ("A", "A", 0)): {0: 1}},
                {"A": {0: 1}, "Z": {5: 1}},
            )
        assert err.value.invariant == "category.identity"
        assert "'Z'" in str(err.value)


def _rejection(objects, field, hom_dims, compose, identities):
    """The constructor's verdict: None when the category is accepted, else
    the ValidationError it raised."""
    try:
        RawCategory(objects, field, hom_dims, compose, identities)
    except ValidationError as err:
        return err
    return None


def _agrees_with_oracle(objects, field, hom_dims, compose, identities):
    """Compare the constructor with the all-triples associativity oracle;
    returns the constructor's verdict.  A category rejected before
    associativity is looked at (bad homs, identity laws) is not compared."""
    err = _rejection(objects, field, hom_dims, compose, identities)
    if err is not None and err.invariant != "category.associativity":
        return err
    failure = associativity_failure(
        field,
        {pair: n for pair, n in hom_dims.items() if n},
        {key: {k: field.coerce(c) for k, c in coeffs.items()} for key, coeffs in compose.items()},
    )
    if err is None:
        assert failure is None
    else:
        u, v, w = failure
        assert f"({u} o {v}) o {w} differs" in str(err)
    return err


def _parts(raw):
    return raw.objects, raw.field, dict(raw.hom_dims), dict(raw.compose_table), dict(raw.identities)


def _random_matrix_form(rng, field):
    names = [f"X{k}" for k in range(rng.randint(1, 3))]
    n_blocks = rng.randint(1, 2)
    dims = {name: [rng.randint(0, 2) for _ in range(n_blocks)] for name in names}
    dims[names[0]][0] = 2
    return MatrixFormCategory(names, [field] * n_blocks, dims)


def _rescaled(rng, field, parts):
    """The same category in the basis lambda_x e_x, lambda random: a valid
    category whose structure constants are no longer 0 or 1."""
    objects, _, hom_dims, compose, identities = parts
    lam = {
        (a, b, i): random_scalar(rng, field, nonzero=True) for (a, b), n in hom_dims.items() for i in range(n)
    }
    new = {}
    for (x, y), coeffs in compose.items():
        z = (x[0], y[1])
        new[(x, y)] = {k: field.div(field.mul(field.mul(c, lam[x]), lam[y]), lam[z + (k,)]) for k, c in coeffs.items()}
    ids = {a: {k: field.div(c, lam[(a, a, k)]) for k, c in vec.items()} for a, vec in identities.items()}
    return objects, field, hom_dims, new, ids


def _perturbed(rng, field, parts):
    """One composite of two basis morphisms outside the identity vectors'
    supports replaced by a random vector, or dropped; the identity laws
    still hold, associativity usually fails."""
    objects, _, hom_dims, compose, identities = parts
    ident = {(a, a, k) for a, vec in identities.items() for k in vec}
    basis = [(a, b, i) for (a, b), n in hom_dims.items() for i in range(n) if (a, b, i) not in ident]
    pairs = [(x, y) for x in basis for y in basis if x[1] == y[0] and (x[0], y[1]) in hom_dims]
    if not pairs:
        return None
    x, y = rng.choice(pairs)
    compose = dict(compose)
    dim = hom_dims[(x[0], y[1])]
    if rng.random() < 0.25:
        compose.pop((x, y), None)
    else:
        compose[(x, y)] = {k: random_scalar(rng, field) for k in rng.sample(range(dim), rng.randint(1, dim))}
    return objects, field, hom_dims, compose, identities


class TestAssociativityOracle:
    """The triples the constructor checks give the verdict, and the first
    failure, of the all-triples oracle."""

    @pytest.mark.parametrize(
        "name, invariant",
        [
            ("broken/category_assoc.json", "category.associativity"),
            ("broken/category_identity_law.json", "category.identity"),
            ("broken/category_middle_mismatch.json", "category.hom"),
            ("two_sizes.category.json", None),
        ],
    )
    def test_category_fixtures(self, name, invariant):
        with open(os.path.join(FIXTURES, name)) as fh:
            data = json.load(fh)
        if "raw_category" in data:
            spec = data["raw_category"]
            parts = (
                spec["objects"],
                load_field(spec["field"]),
                {(a, b): n for a, b, n in spec["homs"]},
                {(tuple(x), tuple(y)): dict(coeffs) for x, y, coeffs in spec.get("compose", [])},
                {a: dict(vec) for a, vec in spec["identities"].items()},
            )
        else:
            parts = _parts(raw_from_matrix_form(load_category(data)))
        err = _agrees_with_oracle(*parts)
        assert (err and err.invariant) == invariant

    @pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["q", "f7"])
    def test_seeded_mutations(self, field):
        rng = random.Random(17)
        verdicts = []
        for _ in range(12):
            parts = _parts(raw_from_matrix_form(_random_matrix_form(rng, field)))
            assert _agrees_with_oracle(*parts) is None
            rescaled = _rescaled(rng, field, parts)
            assert _agrees_with_oracle(*rescaled) is None
            for source in (parts, rescaled):
                for _ in range(3):
                    mutated = _perturbed(rng, field, source)
                    if mutated is not None:
                        verdicts.append(_agrees_with_oracle(*mutated) is None)
        assert not all(verdicts) and any(verdicts)

    def test_a_composite_seen_only_from_the_right_is_rejected(self):
        # Arrows w: 4 -> 3, v: 3 -> 2, u: 2 -> 1, z: 4 -> 2 and y = u o z: 4 -> 1,
        # with u o v = 0 and v o w = 0.  Setting v o w = z makes (u o v) o w = 0
        # but u o (v o w) = y, and no other triple changes: only the triples
        # whose right-hand inner composite is nonzero can see it.
        arrows = {"w": ("3", "4"), "v": ("2", "3"), "u": ("1", "2"), "z": ("2", "4"), "y": ("1", "4")}
        objects = ["1", "2", "3", "4"]
        hom_dims = {**{(a, a): 1 for a in objects}, **{pair: 1 for pair in arrows.values()}}
        compose = {}
        for a, b in hom_dims:
            compose[((a, a, 0), (a, b, 0))] = {0: 1}
            compose[((a, b, 0), (b, b, 0))] = {0: 1}
        compose[(arrows["u"] + (0,), arrows["z"] + (0,))] = {0: 1}
        identities = {a: {0: 1} for a in objects}
        assert _agrees_with_oracle(objects, Q, hom_dims, compose, identities) is None
        u, v, w = (arrows[name] + (0,) for name in "uvw")
        assert (u, v) not in compose and (v, w) not in compose
        compose[(v, w)] = {0: 1}
        assert associativity_failure(Q, hom_dims, compose) == (u, v, w)
        err = _agrees_with_oracle(objects, Q, hom_dims, compose, identities)
        assert err.invariant == "category.associativity"
