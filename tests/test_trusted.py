"""Builds that skip validation are still valid, and nothing else skips it.

Corners, prime blocks and opposite rings of a validated graded division
ring, and the raw category of a matrix-form category, are built by the
private ``_trusted`` constructors without ``_validate``.  Here every such
build on the fixtures, on seeded random rings, on the benchmark's seeded
structure rings and on coboundary twists of them passes ``_validate``
when called explicitly, and equals the object the validating constructor
builds from the reference data.  A second group counts ``_validate``
calls: decomposition, classification and the matrix-form bridge make
none, and the CLI validates exactly the structures its files hold.
"""

import contextlib
import io
import json
import os
import random
from collections import Counter

import pytest

from gradix.categories import RawCategory, raw_from_matrix_form
from gradix.cli import run
from gradix.division import GradedDivisionRing
from gradix.errors import GradixError, ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.matrix_ring import MatrixRing, matrix_form
from gradix.specfiles import load_any, load_category, load_matrix_ring
from gradix.structure import classify, wedderburn_decompose
from oracles import benchmark_structure_inputs, coboundary_twist, product_test_rings
from test_categories import _random_matrix_form
from test_loader_fuzz import FIXTURES

RING_FIXTURES = ["pair_ring.json", "point_ring.json", "point_ring2.json", "pfm_m3.ring.json"]
SEEDS = (1, 2, 3)


def fixture(name):
    return os.path.join(FIXTURES, name)


def fixture_ring(name):
    kind, obj = load_any(fixture(name))
    return obj.ring if kind == "matrix ring" else obj


def rings():
    """(label, ring): the fixture rings, seeded random rings, the benchmark's
    structure rings, each also with a seeded coboundary twist."""
    rng = random.Random(31)
    base = [(name, fixture_ring(name)) for name in RING_FIXTURES]
    base += [(f"random {k}", d) for k, d in enumerate(product_test_rings(random.Random(29)))]
    for seed in SEEDS:
        for r in benchmark_structure_inputs(seed)["rings"]:
            base.append((f"{r['label']} seed {seed}", load_matrix_ring(r["spec"]).ring))
    return base + [(label + " twisted", coboundary_twist(d, rng)) for label, d in base]


RINGS = rings()


def restricted_by_init(d, objs):
    """The restriction as the validating constructor builds it, from the
    whole support and factor set of the parent."""
    support = {m for m in d.support if m.source in objs and m.target in objs}
    factor = {(s, t): v for (s, t), v in d.factor.items() if s in support and t in support}
    return GradedDivisionRing(d.field, d.groupoid, support, factor)


def opposite_by_init(d):
    g = d.groupoid
    factor = {(s, t): d.factor[(g.inverse(t), g.inverse(s))] for (s, t) in d.factor}
    return GradedDivisionRing(d.field, g, d.support, factor)


def assert_valid_and_same(trusted, reference):
    trusted._validate()
    assert trusted.field == reference.field
    assert trusted.groupoid is reference.groupoid
    assert trusted.support == reference.support
    assert trusted.factor == reference.factor
    assert trusted.gamma0() == reference.gamma0()


@pytest.mark.parametrize("label, d", RINGS, ids=[label for label, _ in RINGS])
class TestTrustedRings:
    def test_corners(self, label, d):
        for e in d.gamma0():
            corner = d.corner(e)
            assert_valid_and_same(corner, restricted_by_init(d, {e}))
            assert_valid_and_same(corner.opposite(), opposite_by_init(corner))

    def test_prime_blocks(self, label, d):
        blocks = d.decompose_prime()
        assert len(blocks) == len(d.primality_classes())
        for cls, blk in zip(d.primality_classes(), blocks):
            assert_valid_and_same(blk, restricted_by_init(d, set(cls)))

    def test_opposite(self, label, d):
        op = d.opposite()
        assert_valid_and_same(op, opposite_by_init(d))
        assert op.opposite() is d


def matrix_form_categories():
    """(label, category): the fixture, seeded random ones, the benchmark's."""
    cats = [("two_sizes", load_any(fixture("two_sizes.category.json"))[1])]
    for field in (Rationals(), PrimeField(7)):
        rng = random.Random(37)
        cats += [(f"random {field.describe()} {k}", _random_matrix_form(rng, field)) for k in range(8)]
    for seed in SEEDS:
        for c in benchmark_structure_inputs(seed)["categories"]:
            cats.append((f"{c['label']} seed {seed}", load_category(c["spec"])))
    return cats


CATEGORIES = matrix_form_categories()


@pytest.mark.parametrize("label, cat", CATEGORIES, ids=[label for label, _ in CATEGORIES])
def test_raw_from_matrix_form_is_valid_and_normal(label, cat):
    raw = raw_from_matrix_form(cat)
    raw._validate()
    ref = RawCategory(raw.objects, raw.field, raw.hom_dims, raw.compose_table, raw.identities)
    assert raw.objects == ref.objects and raw.field == ref.field
    assert list(raw.hom_dims.items()) == list(ref.hom_dims.items())
    assert raw.compose_table == ref.compose_table
    assert raw.identities == ref.identities


def test_restriction_outside_gamma0_is_refused():
    d = fixture_ring("pfm_m3.ring.json")  # gamma0 is {1}; object 2 carries no support
    with pytest.raises(ValidationError) as err:
        d.restrict_to_objects([2])
    assert err.value.invariant == "support.nonempty"
    with pytest.raises(ValidationError) as err:
        d.restrict_to_objects([])
    assert err.value.invariant == "support.nonempty"
    with pytest.raises(GradixError):
        d.corner(2)


# -- validation counts ---------------------------------------------------------


def count_validations(monkeypatch):
    """A Counter of _validate calls by class name, from now on."""
    calls = Counter()
    for cls in (GradedDivisionRing, RawCategory):
        original = cls._validate

        def counting(self, original=original, name=cls.__name__):
            calls[name] += 1
            return original(self)

        monkeypatch.setattr(cls, "_validate", counting)
    return calls


def lifted(name):
    """A fixture as a matrix ring, a bare ring lifted over its identity signature."""
    kind, obj = load_any(fixture(name))
    if kind == "matrix ring":
        return obj
    return MatrixRing(obj, [[obj.groupoid.identity(e) for e in obj.gamma0()]])


def test_structure_on_loaded_fixtures_validates_nothing(monkeypatch):
    loaded = [lifted(name) for name in RING_FIXTURES]
    seeded = [load_matrix_ring(r["spec"]) for seed in SEEDS for r in benchmark_structure_inputs(seed)["rings"]]
    categories = [cat for _, cat in CATEGORIES]
    calls = count_validations(monkeypatch)
    for m in loaded + seeded:
        spec = wedderburn_decompose(m)
        assert spec.blocks
        classify(m)
        classify(spec)
        for d in m.ring.decompose_prime():
            matrix_form(d)
    for cat in categories:
        raw_from_matrix_form(cat)
    assert calls == Counter()


def cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@pytest.mark.parametrize(
    "argv, validated",
    [
        (["decompose", "pfm_m3.ring.json"], {"GradedDivisionRing": 1}),
        (["decompose", "pair_ring.json"], {"GradedDivisionRing": 1}),
        (["classify", "point_ring.json"], {"GradedDivisionRing": 1}),
        (["classify", "pfm_m3.ring.json"], {"GradedDivisionRing": 1}),
        (["iso", "pfm_m3.ring.json", "pfm_m3.ring.json"], {"GradedDivisionRing": 2}),
        (["iso", "pair_ring.json", "pair_ring.json"], {"GradedDivisionRing": 2}),
        (["category", "to-ring", "two_sizes.category.json"], {}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_validates_what_its_files_hold(monkeypatch, argv, validated):
    calls = count_validations(monkeypatch)
    assert cli([fixture(a) if a.endswith(".json") else a for a in argv]) == 0
    assert calls == Counter(validated)


def test_raw_category_file_is_validated_in_full(monkeypatch, tmp_path):
    raw = raw_from_matrix_form(load_any(fixture("two_sizes.category.json"))[1])
    spec = {
        "raw_category": {
            "field": {"kind": "Q"},
            "objects": list(raw.objects),
            "homs": [[a, b, n] for (a, b), n in raw.hom_dims.items()],
            "compose": [
                [list(x), list(y), [[k, int(v)] for k, v in coeffs.items()]]
                for (x, y), coeffs in raw.compose_table.items()
            ],
            "identities": {a: [[k, int(v)] for k, v in vec.items()] for a, vec in raw.identities.items()},
        }
    }
    path = tmp_path / "raw.category.json"
    path.write_text(json.dumps(spec))
    calls = count_validations(monkeypatch)
    assert cli(["category", "to-ring", str(path)]) == 0
    assert calls == Counter({"RawCategory": 1})
