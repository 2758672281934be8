import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradix.errors import FormatError, GradixError, ValidationError
from gradix.groupoids import (
    ConnectedBlock,
    FiniteGroup,
    FiniteGroupoid,
    Morphism,
    from_composition_table,
    groupoid_from_json,
)
from oracles import random_raw_groupoid, raw_groupoid_failure, relabel_is_isomorphism, seeded


def element_order(group, a):
    """The least k >= 1 with a^k the identity."""
    k, x = 1, a
    while x != group.identity:
        x, k = group.mul(x, a), k + 1
    return k


def two_block_groupoid():
    """Objects {0,1} with C2 isotropy, plus objects {5,7} with trivial isotropy."""
    return FiniteGroupoid(
        [
            ConnectedBlock([0, 1], FiniteGroup.cyclic(2)),
            ConnectedBlock([5, 7], FiniteGroup.trivial()),
        ]
    )


class TestFiniteGroup:
    def test_cyclic(self):
        c4 = FiniteGroup.cyclic(4)
        assert c4.identity == 0
        assert c4.mul(3, 2) == 1
        assert c4.inv(1) == 3
        assert element_order(c4, 1) == 4
        assert element_order(c4, 2) == 2

    def test_bad_tables_rejected(self):
        with pytest.raises(ValidationError) as e:
            FiniteGroup([[0, 1], [1, 1]])  # 1*1 = 1 but then no identity/inverse works out
        assert e.value.invariant in ("group.identity", "group.inverse", "group.associativity")
        with pytest.raises(ValidationError) as e:
            FiniteGroup([[0, 1], [1, 2]])
        assert e.value.invariant == "group.closure"
        # Non-associative magma with an identity: the quasigroup from a
        # subtraction table has x - 0 = x but fails associativity.
        with pytest.raises(ValidationError) as e:
            FiniteGroup([[(i - j) % 3 for j in range(3)] for i in range(3)])
        assert e.value.invariant in ("group.identity", "group.associativity")

    def test_size_ceiling(self):
        with pytest.raises(ValidationError) as e:
            FiniteGroup.cyclic(65)
        assert e.value.invariant == "group.size"

    @given(st.integers(1, 12))
    def test_cyclic_is_a_group(self, n):
        g = FiniteGroup.cyclic(n)
        assert g.order == n
        assert sorted(element_order(g, a) for a in range(n)) == sorted(n // math.gcd(a, n) for a in range(n))


class TestCanonicalForm:
    def test_compose_and_inverse(self):
        g = two_block_groupoid()
        m = Morphism(0, 1, 1, 0)  # 0 -> 1 decorated with the C2 flip
        w = Morphism(0, 0, 1, 1)  # 1 -> 0 with the flip
        assert g.is_composable(w, m)
        assert g.compose(w, m) == Morphism(0, 0, 0, 0)
        assert g.inverse(m) == Morphism(0, 0, 1, 1)
        assert g.compose(g.inverse(m), m) == g.identity(0)
        assert g.compose(m, g.inverse(m)) == g.identity(1)

    def test_non_composable_raises(self):
        g = two_block_groupoid()
        with pytest.raises(GradixError):
            g.compose(Morphism(0, 1, 0, 1), Morphism(0, 0, 0, 0))
        with pytest.raises(GradixError):
            g.compose(Morphism(0, 1, 0, 0), Morphism(1, 5, 0, 5))

    def test_identity_laws_everywhere(self):
        g = two_block_groupoid()
        for m in g.morphisms():
            assert g.compose(g.identity(m.target), m) == m
            assert g.compose(m, g.identity(m.source)) == m
            assert g.compose(m, g.inverse(m)) == g.identity(m.target)

    def test_morphism_count_and_order(self):
        g = two_block_groupoid()
        ms = list(g.morphisms())
        assert len(ms) == 2 * 2 * 2 + 2 * 2 * 1
        assert ms == sorted(ms)

    def test_object_collision_rejected(self):
        with pytest.raises(ValidationError) as e:
            FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.trivial()), ConnectedBlock([1], FiniteGroup.trivial())])
        assert e.value.invariant == "groupoid.object_ids"

    def test_object_ceiling(self):
        with pytest.raises(ValidationError) as e:
            FiniteGroupoid([ConnectedBlock(range(65), FiniteGroup.trivial())])
        assert e.value.invariant == "groupoid.size"

    def test_pair_groupoid(self):
        g = FiniteGroupoid.pair([2, 3, 4])
        assert len(g.blocks) == 1
        assert len(list(g.morphisms())) == 9
        assert g.blocks[0].objects == (2, 3, 4) and g.blocks[0].group.order == 1


class TestEquality:
    """Groupoids are equal when their blocks are: object ids and group
    tables, in block order."""

    def test_equal_blocks_make_equal_groupoids(self):
        g, h = two_block_groupoid(), two_block_groupoid()
        assert g is not h and g == h and hash(g) == hash(h)
        assert not g != h

    @pytest.mark.parametrize(
        "blocks",
        [
            # object 7 renamed 6
            [ConnectedBlock([0, 1], FiniteGroup.cyclic(2)), ConnectedBlock([5, 6], FiniteGroup.trivial())],
            # the same blocks listed the other way round
            [ConnectedBlock([5, 7], FiniteGroup.trivial()), ConnectedBlock([0, 1], FiniteGroup.cyclic(2))],
            # C_2 written with identity 1: the same group, another table
            [ConnectedBlock([0, 1], FiniteGroup([[1, 0], [0, 1]])), ConnectedBlock([5, 7], FiniteGroup.trivial())],
        ],
        ids=["object_id", "block_order", "group_table"],
    )
    def test_a_differing_block_makes_them_unequal(self, blocks):
        g, h = two_block_groupoid(), FiniteGroupoid(blocks)
        assert g != h and h != g
        assert len({g, h}) == 2

    def test_a_groupoid_is_not_equal_to_its_blocks(self):
        g = two_block_groupoid()
        assert g != g.blocks and g != None  # noqa: E711


class TestMorphismValue:
    """Morphisms are plain values; every factor table and sorted choice relies on it."""

    @staticmethod
    def groupoid():
        """Klein-four isotropy on objects {5, 7}, then a trivial block on {0, 1, 2}."""
        klein = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        return FiniteGroupoid([ConnectedBlock([5, 7], klein), ConnectedBlock([0, 1, 2], FiniteGroup.trivial())])

    def test_enumeration_is_sort_order(self):
        g = self.groupoid()
        ms = list(g.morphisms())
        assert ms == sorted(ms)
        assert len(set(ms)) == len(ms) == 2 * 2 * 4 + 3 * 3

    def test_rebuilt_from_key(self):
        g = self.groupoid()
        for m in g.morphisms():
            again = Morphism(*m.key())
            assert again == m and hash(again) == hash(m)
            assert repr(m) == f"Morphism(block={m.block}, target={m.target}, elem={m.elem}, source={m.source})"
            assert g.morphism_from_json(g.morphism_to_json(m)) == m

    def test_plain_tuple_is_not_a_morphism(self):
        g = self.groupoid()
        assert g.contains(Morphism(0, 7, 3, 5))
        assert not g.contains((0, 7, 3, 5))
        assert not g.contains((0, 1, 0, 1))


class TestRawConversion:
    def raw_c2(self):
        # One object, two loops: the cyclic group of order 2.
        objects = [0]
        morphisms = [{"source": 0, "target": 0}, {"source": 0, "target": 0}]
        table = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
        return objects, morphisms, table

    def test_one_object_c2(self):
        g, relabel = from_composition_table(*self.raw_c2())
        assert len(g.blocks) == 1
        assert len(g.blocks[0].objects) == 1
        assert g.blocks[0].group.order == 2
        assert relabel[0] == g.identity(0)

    def raw_pair(self):
        # Two objects, four morphisms: the pair groupoid on {0, 1}.
        objects = [0, 1]
        morphisms = [
            {"source": 0, "target": 0},
            {"source": 0, "target": 1},
            {"source": 1, "target": 0},
            {"source": 1, "target": 1},
        ]
        table = []
        src = [0, 0, 1, 1]
        tgt = [0, 1, 0, 1]
        for a in range(4):
            for b in range(4):
                if src[a] == tgt[b]:
                    for c in range(4):
                        if src[c] == src[b] and tgt[c] == tgt[a]:
                            table.append([a, b, c])
        return objects, morphisms, table

    def test_pair_groupoid_from_raw(self):
        g, relabel = from_composition_table(*self.raw_pair())
        pair = FiniteGroupoid.pair([0, 1])
        assert g is not pair and g == pair and hash(g) == hash(pair)
        assert relabel[1] == Morphism(0, 1, 0, 0)

    def test_functoriality_of_relabeling(self):
        objects, morphisms, table = self.raw_c2()
        g, relabel = from_composition_table(objects, morphisms, table)
        comp = {(a, b): c for a, b, c in table}
        for (a, b), c in comp.items():
            assert g.compose(relabel[a], relabel[b]) == relabel[c]

    def test_missing_identity_rejected(self):
        objects = [0]
        morphisms = [{"source": 0, "target": 0}]
        table = [[0, 0, 0]]
        g, _ = from_composition_table(objects, morphisms, table)  # trivial group is fine
        bad_table = []  # composable pair (0,0) missing
        with pytest.raises(ValidationError) as e:
            from_composition_table(objects, morphisms, bad_table)
        assert e.value.invariant == "groupoid.composability"

    def test_product_of_a_non_composable_pair_rejected(self):
        # The pair groupoid, plus a product for 0 -> 1 after itself.
        objects, morphisms, table = self.raw_pair()
        table.append([1, 1, 1])
        assert raw_groupoid_failure(objects, morphisms, table) == "groupoid.composability"
        with pytest.raises(ValidationError) as e:
            from_composition_table(objects, morphisms, table)
        assert e.value.invariant == "groupoid.composability"

    def test_broken_associativity_rejected(self):
        # Three loops with a non-associative "composition".
        objects = [0]
        morphisms = [{"source": 0, "target": 0} for _ in range(3)]
        table = [
            [0, 0, 0], [0, 1, 1], [0, 2, 2],
            [1, 0, 1], [1, 1, 2], [1, 2, 0],
            [2, 0, 2], [2, 1, 0], [2, 2, 2],  # 2*2 should be 1
        ]
        with pytest.raises(ValidationError) as e:
            from_composition_table(objects, morphisms, table)
        assert e.value.invariant == "groupoid.associativity"

    def test_left_inverse_alone_is_not_enough(self):
        # Loops e, a, b: b o a = e but a o b = a, so a has no two-sided inverse.
        objects = [0]
        morphisms = [{"source": 0, "target": 0} for _ in range(3)]
        table = [
            [0, 0, 0], [0, 1, 1], [0, 2, 2],
            [1, 0, 1], [1, 1, 2], [1, 2, 1],
            [2, 0, 2], [2, 1, 0], [2, 2, 0],
        ]
        assert raw_groupoid_failure(objects, morphisms, table) == "groupoid.inverse"
        with pytest.raises(ValidationError) as e:
            from_composition_table(objects, morphisms, table)
        assert e.value.invariant == "groupoid.inverse"

    def test_extra_loop_is_not_a_groupoid(self):
        # Objects 0 and 1 joined by s: 1 -> 0 and t = s^-1, with trivial
        # loops at 0 but a second loop a at 1 (a o a = 1_1).  Identities and
        # inverses hold and every product joins the right endpoints, yet
        # a = a o (t o s) != (a o t) o s = 1_1; both loops at 1 land on the
        # one block-form morphism 1 -> 1.
        objects = [0, 1]
        morphisms = [
            {"source": 0, "target": 0},
            {"source": 1, "target": 0},
            {"source": 0, "target": 1},
            {"source": 1, "target": 1},
            {"source": 1, "target": 1},
        ]
        table = [
            [0, 0, 0], [0, 1, 1], [2, 0, 2], [2, 1, 3], [1, 2, 0], [1, 3, 1], [1, 4, 1],
            [3, 2, 2], [3, 3, 3], [3, 4, 4], [4, 2, 2], [4, 3, 4], [4, 4, 3],
        ]
        assert raw_groupoid_failure(objects, morphisms, table) == "groupoid.associativity"
        with pytest.raises(ValidationError) as e:
            from_composition_table(objects, morphisms, table)
        assert e.value.invariant == "groupoid.associativity"

    def test_same_json_parsed_twice_is_equal(self):
        data = {
            "blocks": [
                {"objects": [1, 0], "group": {"order": 2, "mult": [[0, 1], [1, 0]]}},
                {"objects": [7, 5], "group": {"mult": [[0]]}},
            ]
        }
        g, h = groupoid_from_json(data), groupoid_from_json(data)
        assert g is not h
        assert g == h == two_block_groupoid()
        assert len({g, h, two_block_groupoid()}) == 1

    def test_json_rejects_malformed(self):
        with pytest.raises(FormatError):
            groupoid_from_json({"nope": 1})
        with pytest.raises(FormatError):
            groupoid_from_json({"blocks": [{"objects": [0]}]})
        with pytest.raises(FormatError):
            groupoid_from_json({"blocks": [{"objects": [0], "group": {"order": 3, "mult": [[0]]}}]})


def test_raw_tables_agree_with_the_axiom_oracle():
    """Random raw groupoids, about two thirds with one product changed, get
    the oracle's verdict and first broken axiom; an accepted table's
    relabelling is an isomorphism onto the block form."""
    rng = seeded(1818)
    verdicts = Counter()
    for _ in range(400):
        objects, morphisms, table = random_raw_groupoid(rng)
        if len(morphisms) > 1 and rng.random() < 2 / 3:
            entry = rng.choice(table)
            entry[2] = rng.choice([m for m in range(len(morphisms)) if m != entry[2]])
        want = raw_groupoid_failure(objects, morphisms, table)
        verdicts[want] += 1
        if want is None:
            g, relabel = from_composition_table(objects, morphisms, table)
            assert relabel_is_isomorphism(g, relabel, table)
        else:
            with pytest.raises(ValidationError) as e:
                from_composition_table(objects, morphisms, table)
            assert e.value.invariant == want
    names = ("composability", "identity", "inverse", "associativity")
    assert set(verdicts) == {None} | {f"groupoid.{name}" for name in names}, verdicts


@given(st.integers(1, 4), st.integers(1, 5))
def test_block_morphism_count(num_objects, group_order):
    g = FiniteGroupoid([ConnectedBlock(range(num_objects), FiniteGroup.cyclic(group_order))])
    ms = list(g.morphisms())
    assert len(set(ms)) == len(ms) == num_objects * num_objects * group_order
