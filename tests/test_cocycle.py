"""The cocycle check on generators against the all-triples oracle.

GradedDivisionRing checks the cocycle identity only on triples whose
middle degree is a generator of the support (Light's test).  Here its
verdict is compared with ``cocycle_failure``, which checks every
composable triple: on the broken fixture, on every ring of
test_trusted.py (twisted ones included), and on seeded rings whose
supports have several components and non-cyclic isotropy, each also with
one or two non-identity factors changed, and on every +-1 factor set of
some small group rings and of the pair groupoid on 3 objects.  A second
group pins the size of the generating set and the number of triples
compared.  A third twists rings over Q by coboundaries whose values have
denominators up to 10^6 (``random_scalar_wide``): each twist is accepted,
each one-factor mutation of it is refused naming a pinned first failing
triple, and no factor set is put over a common denominator on the way.
"""

import json
import os
import random
from collections import Counter
from itertools import permutations, product

import pytest

from gradix.division import GradedDivisionRing, _cocycle_generators
from gradix.errors import ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import ConnectedBlock, FiniteGroup, FiniteGroupoid, Morphism
from gradix.specfiles import load_any, load_field, load_groupoid
from oracles import cocycle_failure, cocycle_failures, random_scalar_wide, sample_nonzero, two_generated_subgroups
from test_trusted import RINGS

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
Q = Rationals()


def verdict(field, groupoid, support, factor):
    """The constructor's verdict: None when it accepts the ring, else the
    invariant it names."""
    try:
        GradedDivisionRing(field, groupoid, support, factor)
    except ValidationError as err:
        return err.invariant
    return None


def assert_agrees(field, groupoid, support, factor):
    """The constructor rejects the factor set on factor.cocycle exactly
    when the oracle finds a failing triple; returns the verdict."""
    want = None if cocycle_failure(field, groupoid, support, factor) is None else "factor.cocycle"
    got = verdict(field, groupoid, support, factor)
    assert got == want
    return got


def mutated(rng, ring_parts):
    """The factor set with one or two factors at pairs of non-identity
    degrees multiplied by a random scalar other than 1; normalization
    still holds."""
    field, g, support, factor = ring_parts
    pairs = sorted(key for key in factor if not (g.is_identity(key[0]) or g.is_identity(key[1])))
    factor = dict(factor)
    for key in rng.sample(pairs, min(len(pairs), rng.randint(1, 2))):
        c = sample_nonzero(field, rng)
        while field.equal(c, field.one()):
            c = sample_nonzero(field, rng)
        factor[key] = field.mul(factor[key], c)
    return field, g, support, factor


def test_broken_fixture():
    with open(os.path.join(FIXTURES, "broken", "ring_cocycle.json")) as fh:
        data = json.load(fh)
    field, g = load_field(data["field"]), load_groupoid(data["groupoid"])
    support = [g.morphism_from_json(m) for m in data["support"]]
    factor = {(g.morphism_from_json(s), g.morphism_from_json(t)): field.coerce(v) for s, t, v in data["factor"]}
    assert assert_agrees(field, g, support, factor) == "factor.cocycle"


@pytest.mark.parametrize("label, d", RINGS, ids=[label for label, _ in RINGS])
def test_trusted_rings_and_their_mutations(label, d):
    parts = (d.field, d.groupoid, d.support, d.factor)
    assert assert_agrees(*parts) is None
    rng = random.Random(label)
    for _ in range(3):
        assert_agrees(*mutated(rng, parts))


# -- seeded partial supports ---------------------------------------------------


def symmetric3():
    perms = list(permutations(range(3)))
    return FiniteGroup([[perms.index(tuple(a[k] for k in b)) for b in perms] for a in perms])


def odd(perm_index):
    """Parity of the permutation at an index of permutations(range(3))."""
    return perm_index in (1, 2, 5)


def c2():
    return FiniteGroup.cyclic(2)


# Each group with a normalized 2-cocycle omega(x, y) = -1 or 1: the sign
# pulled back along S_3 -> C_2, and (-1)^(x_2 y_1) on the direct products,
# whose element x_1 m + x_2 has coordinates (x_1, x_2).
GROUPS = {
    "S3": (symmetric3(), lambda x, y: odd(x) and odd(y)),
    "C2xC2": (FiniteGroup.direct_product(c2(), c2()), lambda x, y: (x % 2) * (y // 2) % 2),
    "C4xC4": (
        FiniteGroup.direct_product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)),
        lambda x, y: (x % 4) * (y // 4) % 2,
    ),
}
FIELDS = [Q, PrimeField(5), PrimeField(7)]


def partial_ring(rng, field, group, omega):
    """A valid ring whose support has two to four components.

    The groupoid has a block on objects 0..5 with this isotropy group and
    a block on 6, 7 with C_2.  The first block's objects (one or none left
    out) split into two or three classes; class C carries the arrows
    (y, c_y k c_x^-1, x) for x, y in C and k in a random subgroup K_C, with
    random sections c.  The second block carries all its arrows.  The
    factor is omega on the group elements, over a random coboundary.
    """
    g = FiniteGroupoid([ConnectedBlock(range(6), group), ConnectedBlock([6, 7], c2())])
    objs = list(range(6))
    rng.shuffle(objs)
    objs = objs[: rng.randint(5, 6)]
    cuts = sorted(rng.sample(range(1, len(objs)), rng.randint(1, 2)))
    classes = [objs[a:b] for a, b in zip([0] + cuts, cuts + [len(objs)])]
    subgroups = two_generated_subgroups(group) + [tuple(range(group.order))]
    support = set()
    for cls in classes:
        k = rng.choice(subgroups)
        c = {x: rng.randrange(group.order) for x in cls}
        for x in cls:
            for y in cls:
                for h in k:
                    support.add(Morphism(0, y, group.mul(group.mul(c[y], h), group.inv(c[x])), x))
    support |= set(g.hom(6, 6) + g.hom(6, 7) + g.hom(7, 6) + g.hom(7, 7))
    minus = field.coerce(-1)
    cob = {m: field.one() if g.is_identity(m) else sample_nonzero(field, rng) for m in support}
    factor = {}
    for s in support:
        for t in support:
            if g.is_composable(s, t):
                sign = minus if s.block == 0 and omega(s.elem, t.elem) else field.one()
                factor[s, t] = field.div(field.mul(sign, field.mul(cob[s], cob[t])), cob[g.compose(s, t)])
    return field, g, support, factor


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_partial_supports_and_mutations(name):
    group, omega = GROUPS[name]
    rng = random.Random(name)
    verdicts = Counter()
    for k in range(12):
        parts = partial_ring(rng, FIELDS[k % len(FIELDS)], group, omega)
        assert assert_agrees(*parts) is None
        for _ in range(2):
            verdicts[assert_agrees(*mutated(rng, parts))] += 1
    assert verdicts["factor.cocycle"] >= 12, verdicts


@pytest.mark.parametrize("name, group", [("C2xC2", GROUPS["C2xC2"][0]), ("C4", FiniteGroup.cyclic(4))])
def test_every_sign_factor_set(name, group):
    """Every normalized factor set with values +-1 on the group ring: the
    constructor agrees with the oracle on each, and for every proper
    subgroup some broken factor set passes the identity on every middle
    degree in it, so a check on the middles of a proper subgroup alone
    would accept a factor set that is not a cocycle."""
    g = FiniteGroupoid.one_object(group)
    support = sorted(g.morphisms())
    free = [(s, t) for s in support for t in support if not (g.is_identity(s) or g.is_identity(t))]
    passing = set()
    for signs in product((1, -1), repeat=len(free)):
        factor = {(s, t): Q.one() for s in support for t in support}
        factor.update(zip(free, map(Q.coerce, signs)))
        failing = {t.elem for _, t, _ in cocycle_failures(Q, g, support, factor)}
        assert verdict(Q, g, support, factor) == ("factor.cocycle" if failing else None)
        if failing:
            passing.add(frozenset(range(group.order)) - failing)
    for k in two_generated_subgroups(group)[:-1]:
        assert any(passed >= set(k) for passed in passing), k


def test_every_sign_factor_set_on_the_pair_groupoid():
    """All 4096 normalized factor sets with values +-1 over F_7 on the pair
    groupoid on 3 objects: the generators are the two arrows 0 -> 1 and
    0 -> 2 alone, without their inverses, and the constructor still agrees
    with the oracle on every one."""
    f7 = PrimeField(7)
    g = FiniteGroupoid.pair(range(3))
    support = sorted(g.morphisms())
    assert _cocycle_generators(g, support) == [Morphism(0, 1, 0, 0), Morphism(0, 2, 0, 0)]
    composable = [(s, t) for s in support for t in support if g.is_composable(s, t)]
    free = [(s, t) for s, t in composable if not (g.is_identity(s) or g.is_identity(t))]
    verdicts = Counter()
    for signs in product((1, -1), repeat=len(free)):
        factor = dict.fromkeys(composable, f7.one())
        factor.update(zip(free, map(f7.coerce, signs)))
        want = "factor.cocycle" if next(cocycle_failures(f7, g, support, factor), None) else None
        assert verdict(f7, g, support, factor) == want, signs
        verdicts[want] += 1
    assert sum(verdicts.values()) == 4096 and verdicts[None] and verdicts["factor.cocycle"], verdicts


# -- work counts ---------------------------------------------------------------


def full_ring(field, objects, group):
    g = FiniteGroupoid([ConnectedBlock(objects, group)])
    support = list(g.morphisms())
    one = field.one()
    return GradedDivisionRing(field, g, support, {(s, t): one for s in support for t in support if g.is_composable(s, t)})


def elementary_abelian(rank):
    group = c2()
    for _ in range(rank - 1):
        group = FiniteGroup.direct_product(group, c2())
    return group


@pytest.mark.parametrize(
    "ring, size",
    [
        (lambda: full_ring(PrimeField(5), range(12), FiniteGroup.trivial()), 11),
        (lambda: GradedDivisionRing.group_ring(Q, FiniteGroup.cyclic(64)), 1),
        (lambda: GradedDivisionRing.group_ring(Q, elementary_abelian(6)), 6),
        (lambda: GradedDivisionRing.group_ring(Q, symmetric3()), 2),
    ],
    ids=["pair ring on 12 objects", "C_64", "C_2^6", "S_3"],
)
def test_generating_set_size(ring, size):
    d = ring()
    assert len(_cocycle_generators(d.groupoid, d.support)) == size


def test_triples_compared():
    # pair_ring: the pair groupoid on objects 1 and 2, so the one generator
    # is 1 -> 2, with 2 x 2 triples around it.  The pair ring on 12
    # objects: 11 generators, each with 12 x 12 triples.
    _, ring = load_any(os.path.join(FIXTURES, "pair_ring.json"))
    assert ring._check_cocycle() == 4
    assert full_ring(PrimeField(5), range(12), FiniteGroup.trivial())._check_cocycle() == 11 * 144


# -- varied denominators -------------------------------------------------------


def wide_twists():
    """(label, parts) of full-support rings over Q with the factor set
    c(s) c(t) / c(st), c drawn by random_scalar_wide and 1 on identities."""
    rng = random.Random(7)
    groupoids = [
        ("pair groupoid on 8 objects", FiniteGroupoid.pair(range(8))),
        ("pair groupoid on 12 objects", FiniteGroupoid.pair(range(12))),
        ("C_4", FiniteGroupoid.one_object(FiniteGroup.cyclic(4))),
        ("S_3", FiniteGroupoid.one_object(symmetric3())),
    ]
    out = []
    for label, g in groupoids:
        support = sorted(g.morphisms())
        c = {m: Q.one() if g.is_identity(m) else random_scalar_wide(rng, Q, nonzero=True) for m in support}
        factor = {(s, t): c[s] * c[t] / c[g.compose(s, t)] for s in support for t in support if g.is_composable(s, t)}
        out.append((label, (Q, g, support, factor)))
    return out


WIDE = wide_twists()
WIDE_IDS = [label for label, _ in WIDE]

# The first failing triple the constructor names for each wide mutation: the
# first in generator order, so a change of that order or of the test shows.
WIDE_MUTATION_TRIPLES = {
    "pair groupoid on 8 objects": [
        ((0, 7, 0, 2), (0, 2, 0, 0), (0, 0, 0, 5)),
        ((0, 7, 0, 2), (0, 2, 0, 0), (0, 0, 0, 3)),
        ((0, 3, 0, 6), (0, 6, 0, 0), (0, 0, 0, 2)),
    ],
    "pair groupoid on 12 objects": [
        ((0, 7, 0, 4), (0, 4, 0, 0), (0, 0, 0, 1)),
        ((0, 0, 0, 10), (0, 10, 0, 0), (0, 0, 0, 3)),
        ((0, 4, 0, 1), (0, 1, 0, 0), (0, 0, 0, 9)),
    ],
    "C_4": [
        ((0, 0, 2, 0), (0, 0, 1, 0), (0, 0, 3, 0)),
        ((0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0)),
        ((0, 0, 2, 0), (0, 0, 1, 0), (0, 0, 2, 0)),
    ],
    "S_3": [
        ((0, 0, 4, 0), (0, 0, 1, 0), (0, 0, 4, 0)),
        ((0, 0, 2, 0), (0, 0, 1, 0), (0, 0, 4, 0)),
        ((0, 0, 2, 0), (0, 0, 1, 0), (0, 0, 3, 0)),
    ],
}


def wide_mutations(label, parts):
    """Three copies of the factor set, each with one factor at a pair of
    non-identity degrees scaled by a wide scalar other than 1."""
    field, g, support, factor = parts
    rng = random.Random(label)
    pairs = sorted(key for key in factor if not (g.is_identity(key[0]) or g.is_identity(key[1])))
    for _ in range(3):
        c = random_scalar_wide(rng, field, nonzero=True)
        while c == 1:
            c = random_scalar_wide(rng, field, nonzero=True)
        key = rng.choice(pairs)
        yield field, g, support, {**factor, key: factor[key] * c}


@pytest.mark.parametrize("label, parts", WIDE, ids=WIDE_IDS)
def test_wide_coboundary_twists_are_accepted(label, parts):
    dens = {v.denominator for v in parts[3].values()}
    assert max(dens) > 10**6 and len(dens) > len(parts[2]) // 2
    assert next(cocycle_failures(*parts), None) is None
    assert verdict(*parts) is None


@pytest.mark.parametrize("label, parts", WIDE, ids=WIDE_IDS)
def test_wide_mutations_fail_on_the_same_triple(label, parts):
    named = []
    for mutation in wide_mutations(label, parts):
        with pytest.raises(ValidationError) as err:
            GradedDivisionRing(*mutation)
        assert err.value.invariant == "factor.cocycle"
        assert next(cocycle_failures(*mutation), None) is not None
        named.append(str(err.value))
    assert named == [
        f"factor.cocycle: cocycle identity fails on the triple ({', '.join(map(str, map(Morphism._make, triple)))})"
        for triple in WIDE_MUTATION_TRIPLES[label]
    ]


def test_wide_factor_sets_are_never_put_over_one_denominator(monkeypatch):
    calls = []
    integers = Rationals.integers
    monkeypatch.setattr(Rationals, "integers", lambda self, values: calls.append(len(values)) or integers(self, values))
    for label, parts in WIDE:
        GradedDivisionRing(*parts)
        for mutation in wide_mutations(label, parts):
            assert verdict(*mutation) == "factor.cocycle"
    assert calls == []
