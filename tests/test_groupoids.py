import math

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
        assert len(ms) == g.morphism_count() == 2 * 2 * 2 + 2 * 2 * 1
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
        assert g.morphism_count() == 9
        assert g.blocks[0].objects == (2, 3, 4) and g.blocks[0].group.order == 1


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
        assert len(set(ms)) == len(ms) == g.morphism_count() == 2 * 2 * 4 + 3 * 3

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

    def test_pair_groupoid_from_raw(self):
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
        g, relabel = from_composition_table(objects, morphisms, table)
        assert g.to_json() == FiniteGroupoid.pair([0, 1]).to_json()
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
        assert e.value.invariant in ("groupoid.associativity", "groupoid.inverse")

    def test_round_trip_through_json(self):
        g = two_block_groupoid()
        h = groupoid_from_json(g.to_json())
        assert h.to_json() == g.to_json()

    def test_json_rejects_malformed(self):
        with pytest.raises(FormatError):
            groupoid_from_json({"nope": 1})
        with pytest.raises(FormatError):
            groupoid_from_json({"blocks": [{"objects": [0]}]})
        with pytest.raises(FormatError):
            groupoid_from_json({"blocks": [{"objects": [0], "group": {"order": 3, "mult": [[0]]}}]})


@given(st.integers(1, 4), st.integers(1, 5))
def test_block_morphism_count(num_objects, group_order):
    g = FiniteGroupoid([ConnectedBlock(range(num_objects), FiniteGroup.cyclic(group_order))])
    assert g.morphism_count() == num_objects * num_objects * group_order
    assert len(list(g.morphisms())) == g.morphism_count()
