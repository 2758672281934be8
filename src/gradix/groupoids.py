"""Finite groupoids in canonical block form.

A finite groupoid decomposes into connected components, and each component
is isomorphic to X x G x X: pairs of objects decorated with an element of
the isotropy group G of a chosen base object.  We store exactly that.  A
morphism (y, g, x) runs from x to y; composition (z, h, w) o (y, g, x) is
defined when w == y and equals (z, h*g, x); inversion flips the endpoints
and inverts the group element; a o b^-1, the degree of a hom slot, is
the one fused step compose_inverse.  A morphism is the named tuple
Morphism(block, target, elem, source): a plain value whose tuple
equality, hash and order are what every factor table and sorted choice
relies on, so morphisms sort by block, target, element, source.

Raw groupoids (explicit morphism lists with a partial composition table)
are accepted at the boundary and converted to block form after exhaustive
validation of the axioms.

Size ceilings (at most 64 objects overall, group order at most 64 per
block) are enforced at construction so every later check can afford to be
exhaustive.
"""

from typing import NamedTuple

from .errors import FormatError, GradixError, ValidationError

MAX_OBJECTS = 64
MAX_GROUP_ORDER = 64


def is_index(x):
    """An integer id read from JSON; true and false are not ids."""
    return isinstance(x, int) and not isinstance(x, bool)


class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are the indices 0..order-1; ``mult[i][j]`` is the product i*j.
    The identity index and inverse table are computed and the full axiom
    set (closure, identity, inverses, associativity) is checked eagerly.
    """

    def __init__(self, mult):
        n = len(mult)
        if n == 0:
            raise ValidationError("group.size", "empty multiplication table")
        if n > MAX_GROUP_ORDER:
            raise ValidationError("group.size", f"order {n} exceeds ceiling {MAX_GROUP_ORDER}")
        self.order = n
        self.mult_table = tuple(tuple(row) for row in mult)
        for i, row in enumerate(self.mult_table):
            if len(row) != n:
                raise ValidationError("group.closure", f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not is_index(v) or not 0 <= v < n:
                    raise ValidationError("group.closure", f"entry ({i},{j}) = {v!r} is not an element index")

        identity = None
        for e in range(n):
            if all(self.mult_table[e][x] == x and self.mult_table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("group.identity", "no two-sided identity element")
        self.identity = identity

        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if self.mult_table[x][y] == identity and self.mult_table[y][x] == identity:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValidationError("group.inverse", f"element {x} has no two-sided inverse")
        self.inv_table = tuple(inv)

        for a in range(n):
            for b in range(n):
                ab = self.mult_table[a][b]
                for c in range(n):
                    if self.mult_table[ab][c] != self.mult_table[a][self.mult_table[b][c]]:
                        raise ValidationError(
                            "group.associativity",
                            f"(a*b)*c != a*(b*c) for (a,b,c)=({a},{b},{c})",
                        )

    def mul(self, a, b):
        return self.mult_table[a][b]

    def inv(self, a):
        return self.inv_table[a]

    @classmethod
    def trivial(cls):
        return cls([[0]])

    @classmethod
    def cyclic(cls, n):
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def direct_product(cls, g, h):
        n, m = g.order, h.order
        table = [[0] * (n * m) for _ in range(n * m)]
        for a in range(n):
            for b in range(m):
                for c in range(n):
                    for d in range(m):
                        table[a * m + b][c * m + d] = g.mul(a, c) * m + h.mul(b, d)
        return cls(table)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.mult_table == other.mult_table

    def __hash__(self):
        return hash(self.mult_table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class ConnectedBlock:
    """One connected component: a sorted tuple of object ids and a group."""

    def __init__(self, object_ids, group):
        ids = list(object_ids)
        if not ids:
            raise ValidationError("groupoid.object_ids", "block with no objects")
        for x in ids:
            if not is_index(x) or x < 0:
                raise ValidationError("groupoid.object_ids", f"object id {x!r} is not a nonnegative integer")
        if len(set(ids)) != len(ids):
            raise ValidationError("groupoid.object_ids", f"duplicate object ids in block: {sorted(ids)}")
        self.objects = tuple(sorted(ids))
        self.group = group

    def __repr__(self):
        return f"ConnectedBlock(objects={self.objects}, group_order={self.group.order})"


class Morphism(NamedTuple):
    """A groupoid morphism (block, target, elem, source), running source -> target.

    A plain value: equality, hashing and order are those of the tuple, so
    morphisms sort by block, then target, element and source.
    """

    block: int
    target: int
    elem: int
    source: int

    def key(self):
        return tuple(self)


class FiniteGroupoid:
    """Disjoint union of connected blocks."""

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise ValidationError("groupoid.object_ids", "groupoid with no objects")
        seen = set()
        total = 0
        for b in blocks:
            for x in b.objects:
                if x in seen:
                    raise ValidationError("groupoid.object_ids", f"object id {x} appears in two blocks")
                seen.add(x)
            total += len(b.objects)
        if total > MAX_OBJECTS:
            raise ValidationError("groupoid.size", f"{total} objects exceeds ceiling {MAX_OBJECTS}")
        self.blocks = tuple(blocks)
        self._block_of = {x: i for i, b in enumerate(blocks) for x in b.objects}

    # -- basic structure ----------------------------------------------------

    def objects(self):
        return sorted(self._block_of)

    def has_object(self, x):
        return x in self._block_of

    def block_of(self, x):
        try:
            return self._block_of[x]
        except KeyError:
            raise GradixError(f"unknown object {x!r}") from None

    def identity(self, x):
        b = self.block_of(x)
        return Morphism(b, x, self.blocks[b].group.identity, x)

    def is_identity(self, m):
        return m.source == m.target and m.elem == self.blocks[m.block].group.identity

    def inverse(self, m):
        g = self.blocks[m.block].group
        return Morphism(m.block, m.source, g.inv(m.elem), m.target)

    def is_composable(self, g, h):
        """True when the product g o h is defined: source of g == target of h."""
        return g.block == h.block and g.source == h.target

    def compose(self, g, h):
        """g o h: apply h first, then g.  Defined when source(g) == target(h)."""
        if not self.is_composable(g, h):
            raise GradixError(f"not composable: {g} o {h}")
        grp = self.blocks[g.block].group
        return Morphism(g.block, g.target, grp.mul(g.elem, h.elem), h.source)

    def compose_inverse(self, a, b):
        """a o b^-1 in one step, or None when a and b leave different objects."""
        if a.block != b.block or a.source != b.source:
            return None
        grp = self.blocks[a.block].group
        return Morphism(a.block, a.target, grp.mult_table[a.elem][grp.inv_table[b.elem]], b.target)

    def contains(self, m):
        if not isinstance(m, Morphism):
            return False
        if not 0 <= m.block < len(self.blocks):
            return False
        b = self.blocks[m.block]
        return m.source in b.objects and m.target in b.objects and 0 <= m.elem < b.group.order

    def morphisms(self):
        """All morphisms, in sort order of (block, target, elem, source)."""
        for bi, b in enumerate(self.blocks):
            for y in b.objects:
                for g in range(b.group.order):
                    for x in b.objects:
                        yield Morphism(bi, y, g, x)

    def morphism_count(self):
        return sum(len(b.objects) ** 2 * b.group.order for b in self.blocks)

    def hom(self, source, target):
        """All morphisms source -> target (empty across blocks)."""
        bs, bt = self.block_of(source), self.block_of(target)
        if bs != bt:
            return []
        grp = self.blocks[bs].group
        return [Morphism(bs, target, g, source) for g in range(grp.order)]

    # -- constructors -------------------------------------------------------

    @classmethod
    def pair(cls, object_ids):
        """The pair groupoid on the given objects: trivial isotropy, all connected."""
        return cls([ConnectedBlock(object_ids, FiniteGroup.trivial())])

    @classmethod
    def one_object(cls, group, object_id=0):
        """A group viewed as a groupoid with a single object."""
        return cls([ConnectedBlock([object_id], group)])

    # -- serialization ------------------------------------------------------

    def morphism_to_json(self, m):
        return list(m)

    def morphism_from_json(self, data):
        if not (isinstance(data, (list, tuple)) and len(data) == 4 and all(is_index(v) for v in data)):
            raise FormatError(f"morphism must be [block, target, elem, source], got {data!r}")
        m = Morphism(*data)
        if not self.contains(m):
            raise FormatError(f"morphism {data!r} does not belong to the groupoid")
        return m

    def to_json(self):
        return {
            "blocks": [
                {"objects": list(b.objects), "group": {"order": b.group.order, "mult": [list(r) for r in b.group.mult_table]}}
                for b in self.blocks
            ]
        }

    def __repr__(self):
        return f"FiniteGroupoid({len(self.blocks)} blocks, {len(self._block_of)} objects)"


def union_classes(elements, links):
    """Classes of the equivalence on ``elements`` generated by the pairs in
    ``links``, each a sorted list, ordered by least element."""
    parent = {x: x for x in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    classes = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return [sorted(classes[r]) for r in sorted(classes)]


def groupoid_from_json(data):
    """Build a groupoid from its JSON description (block form or raw)."""
    if not isinstance(data, dict):
        raise FormatError(f"groupoid description must be an object, got {type(data).__name__}")
    if "blocks" in data:
        if not isinstance(data["blocks"], (list, tuple)):
            raise FormatError(f"'blocks' must be a list of blocks, got {data['blocks']!r}")
        blocks = []
        for bd in data["blocks"]:
            if not isinstance(bd, dict) or "objects" not in bd or "group" not in bd:
                raise FormatError(f"block needs 'objects' and 'group', got {bd!r}")
            if not isinstance(bd["objects"], (list, tuple)):
                raise FormatError(f"block 'objects' must be a list of object ids, got {bd['objects']!r}")
            gd = bd["group"]
            if not isinstance(gd, dict) or "mult" not in gd:
                raise FormatError(f"group needs a 'mult' table, got {gd!r}")
            mult = gd["mult"]
            if not (isinstance(mult, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in mult)):
                raise FormatError(f"group 'mult' must be a list of rows, got {mult!r}")
            if not all(is_index(v) for row in mult for v in row):
                raise FormatError(f"group 'mult' entries must be element indices, got {mult!r}")
            group = FiniteGroup(mult)
            order = gd.get("order", group.order)
            if not is_index(order) or order != group.order:
                raise FormatError(f"stated group order {order!r} does not match table size {group.order}")
            blocks.append(ConnectedBlock(bd["objects"], group))
        return FiniteGroupoid(blocks)
    if "raw" in data:
        raw = data["raw"]
        try:
            objects = raw["objects"]
            morphisms = raw["morphisms"]
            compose = raw["compose"]
        except (TypeError, KeyError) as exc:
            raise FormatError("raw groupoid needs 'objects', 'morphisms', 'compose'") from exc
        if not all(isinstance(v, (list, tuple)) for v in (objects, morphisms, compose)):
            raise FormatError("raw groupoid 'objects', 'morphisms' and 'compose' must be lists")
        if not all(is_index(x) for x in objects):
            raise FormatError(f"raw groupoid objects must be integer ids, got {objects!r}")
        groupoid, _ = from_composition_table(objects, morphisms, compose)
        return groupoid
    raise FormatError("groupoid description needs either 'blocks' or 'raw'")


def from_composition_table(objects, morphisms, table):
    """Validate a raw groupoid and convert it to canonical block form.

    ``objects`` is a list of nonnegative ids.  ``morphisms`` is a list of
    {"source": x, "target": y} records (morphism ids are list positions).
    ``table`` lists triples [g, h, gh] and must cover exactly the
    composable pairs, i.e. those with source(g) == target(h).

    Returns (groupoid, relabel) where relabel maps each raw morphism id to
    its canonical Morphism.
    """
    obj_list = list(objects)
    if len(set(obj_list)) != len(obj_list):
        raise ValidationError("groupoid.object_ids", "duplicate object ids")
    obj_set = set(obj_list)

    src = []
    tgt = []
    for i, md in enumerate(morphisms):
        if not (isinstance(md, dict) and is_index(md.get("source")) and is_index(md.get("target"))):
            raise FormatError(f"morphism record {i} needs integer 'source' and 'target', got {md!r}")
        if md["source"] not in obj_set or md["target"] not in obj_set:
            raise ValidationError("groupoid.object_ids", f"morphism {i} touches an unknown object")
        src.append(md["source"])
        tgt.append(md["target"])
    n = len(src)

    comp = {}
    for entry in table:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise FormatError(f"composition entry must be [g, h, gh], got {entry!r}")
        g, h, gh = entry
        for v in (g, h, gh):
            if not is_index(v) or not 0 <= v < n:
                raise FormatError(f"composition entry {entry!r} refers to an unknown morphism")
        if (g, h) in comp and comp[(g, h)] != gh:
            raise ValidationError("groupoid.composability", f"two products given for pair ({g},{h})")
        comp[(g, h)] = gh

    # Composition must be defined exactly on matching source/target pairs,
    # and must connect endpoints correctly.
    for g in range(n):
        for h in range(n):
            defined = (g, h) in comp
            matches = src[g] == tgt[h]
            if defined and not matches:
                raise ValidationError(
                    "groupoid.composability",
                    f"product ({g},{h}) defined although source({g})={src[g]} != target({h})={tgt[h]}",
                )
            if matches and not defined:
                raise ValidationError("groupoid.composability", f"no product given for composable pair ({g},{h})")
            if defined:
                gh = comp[(g, h)]
                if src[gh] != src[h] or tgt[gh] != tgt[g]:
                    raise ValidationError(
                        "groupoid.composability",
                        f"product of ({g},{h}) has endpoints {src[gh]}->{tgt[gh]}, expected {src[h]}->{tgt[g]}",
                    )

    # Identities: per object, a morphism acting as a two-sided unit.
    ident = {}
    for x in obj_set:
        for m in range(n):
            if src[m] == tgt[m] == x:
                if all(comp[(m, h)] == h for h in range(n) if tgt[h] == x) and all(
                    comp[(g, m)] == g for g in range(n) if src[g] == x
                ):
                    ident[x] = m
                    break
        if x not in ident:
            raise ValidationError("groupoid.identity", f"object {x} has no identity morphism")

    inv = [None] * n
    for m in range(n):
        for w in range(n):
            if src[w] == tgt[m] and tgt[w] == src[m]:
                if comp[(w, m)] == ident[src[m]] and comp[(m, w)] == ident[tgt[m]]:
                    inv[m] = w
                    break
        if inv[m] is None:
            raise ValidationError("groupoid.inverse", f"morphism {m} has no two-sided inverse")

    for a in range(n):
        for b in range(n):
            if (a, b) not in comp:
                continue
            ab = comp[(a, b)]
            for c in range(n):
                if (b, c) not in comp:
                    continue
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    raise ValidationError(
                        "groupoid.associativity", f"(a o b) o c != a o (b o c) for (a,b,c)=({a},{b},{c})"
                    )

    blocks = []
    relabel = {}
    for xs in union_classes(obj_list, zip(src, tgt)):
        e0 = xs[0]
        loops = sorted(m for m in range(n) if src[m] == tgt[m] == e0)
        index = {m: i for i, m in enumerate(loops)}
        group = FiniteGroup([[index[comp[(a, b)]] for b in loops] for a in loops])
        # Section: for each object, the first listed morphism x -> e0.
        sect = {}
        for x in xs:
            for m in range(n):
                if src[m] == x and tgt[m] == e0:
                    sect[x] = m
                    break
            if x not in sect:
                raise ValidationError("groupoid.composability", f"objects {e0} and {x} are linked but share no morphism")
        bi = len(blocks)
        blocks.append(ConnectedBlock(xs, group))
        for m in range(n):
            if src[m] not in sect:
                continue
            loop = comp[(comp[(sect[tgt[m]], m)], inv[sect[src[m]]])]
            relabel[m] = Morphism(bi, tgt[m], index[loop], src[m])

    groupoid = FiniteGroupoid(blocks)
    # Every raw morphism must be accounted for, and hom-set sizes must agree.
    if len(relabel) != n or groupoid.morphism_count() != n:
        raise ValidationError("groupoid.composability", "morphism count does not match the block decomposition")
    if len(set(relabel.values())) != n:
        raise ValidationError("groupoid.composability", "two raw morphisms share source, target and section loop")
    return groupoid, relabel
