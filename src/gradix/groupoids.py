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
are accepted at the boundary and checked by carrying them onto their
block form: endpoints, identities and inverses are checked per object,
each component's loop group by FiniteGroup, and then one pass over the
table checks that the relabelling is one to one and keeps every product,
which makes the table a groupoid's (see from_composition_table).

This module holds the mathematics and its laws only.  specfiles is the
one reader of the file format: it checks the shape of both JSON forms
and hands these constructors Python values, so they raise
ValidationError alone (morphism_from_json, which bench code calls too,
is the exception).

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
        self._key = tuple((b.objects, b.group) for b in self.blocks)

    def __eq__(self, other):
        """Equal blocks in the same order: object ids and group tables."""
        return self is other or (isinstance(other, FiniteGroupoid) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    # -- basic structure ----------------------------------------------------

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

    def morphism_from_json(self, data):
        if not (isinstance(data, (list, tuple)) and len(data) == 4 and all(is_index(v) for v in data)):
            raise FormatError(f"morphism must be [block, target, elem, source], got {data!r}")
        m = Morphism(*data)
        if not self.contains(m):
            raise FormatError(f"morphism {data!r} does not belong to the groupoid")
        return m

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


def from_composition_table(objects, src, tgt, comp):
    """Validate a raw groupoid and convert it to canonical block form.

    ``objects`` is a list of nonnegative ids.  Morphism i runs from
    src[i] to tgt[i] (morphism ids are list positions).  ``comp`` maps
    pairs (g, h) of morphism ids to the id of g o h, and must cover
    exactly the composable pairs, i.e. those with source(g) == target(h).
    specfiles reads all of them from JSON and checks their shapes, so
    every failure here is a ValidationError.

    The table is checked by carrying it onto its block form.  Products
    must join the right endpoints and cover the composable pairs; each
    object's identity and each morphism's inverse are searched among the
    morphisms with the right endpoints.  Each component's loops at its
    least object e0 form its group; FiniteGroup checks it, and only
    associativity can fail there by then.  With sect[x] the first listed
    morphism x -> e0, m: x -> y goes to (y, l, x) for the loop
    l = (sect[y] o m) o sect[x]^-1.  That map must be one to one and keep
    every product of the table, or associativity fails.  This is
    complete: such a map carries the table onto a part of the block form
    closed under products, so the table associates and, with identities
    and inverses, is a groupoid; on a groupoid's table the map is the
    standard isomorphism, a bijection onto the block form.

    Returns (groupoid, relabel) where relabel maps each raw morphism id to
    its canonical Morphism.
    """
    obj_list = list(objects)
    if len(set(obj_list)) != len(obj_list):
        raise ValidationError("groupoid.object_ids", "duplicate object ids")
    out_of = {x: [] for x in obj_list}
    into = {x: [] for x in obj_list}
    for i, (x, y) in enumerate(zip(src, tgt)):
        if x not in out_of or y not in out_of:
            raise ValidationError("groupoid.object_ids", f"morphism {i} touches an unknown object")
        out_of[x].append(i)
        into[y].append(i)
    n = len(src)

    # Every product joins the right endpoints; distinct composable entries
    # cover all composable pairs exactly when there are as many of them.
    for (g, h), gh in comp.items():
        if src[g] != tgt[h]:
            raise ValidationError(
                "groupoid.composability",
                f"product ({g},{h}) defined although source({g})={src[g]} != target({h})={tgt[h]}",
            )
        if src[gh] != src[h] or tgt[gh] != tgt[g]:
            raise ValidationError(
                "groupoid.composability",
                f"product of ({g},{h}) has endpoints {src[gh]}->{tgt[gh]}, expected {src[h]}->{tgt[g]}",
            )
    if len(comp) != sum(len(out_of[x]) * len(into[x]) for x in obj_list):
        g, h = next((g, h) for g in range(n) for h in into[src[g]] if (g, h) not in comp)
        raise ValidationError("groupoid.composability", f"no product given for composable pair ({g},{h})")

    ident = {}
    for x in obj_list:
        for m in out_of[x]:
            if tgt[m] == x and all(comp[(m, h)] == h for h in into[x]) and all(comp[(g, m)] == g for g in out_of[x]):
                ident[x] = m
                break
        else:
            raise ValidationError("groupoid.identity", f"object {x} has no identity morphism")
    inv = []
    for m in range(n):
        x, y = src[m], tgt[m]
        for w in out_of[y]:
            if tgt[w] == x and comp[(w, m)] == ident[x] and comp[(m, w)] == ident[y]:
                inv.append(w)
                break
        else:
            raise ValidationError("groupoid.inverse", f"morphism {m} has no two-sided inverse")

    classes = union_classes(obj_list, zip(src, tgt))
    groups = []
    relabel = {}
    for bi, xs in enumerate(classes):
        e0 = xs[0]
        loops = [m for m in out_of[e0] if tgt[m] == e0]
        index = {m: i for i, m in enumerate(loops)}
        try:
            groups.append(FiniteGroup([[index[comp[(a, b)]] for b in loops] for a in loops]))
        except ValidationError as exc:
            if exc.invariant != "group.associativity":
                raise
            raise ValidationError("groupoid.associativity", f"the loops at object {e0} do not associate") from exc
        # Sections exist: with inverses and products every component is
        # strongly connected by single morphisms.
        sect = {x: next(m for m in out_of[x] if tgt[m] == e0) for x in xs}
        for x in xs:
            for m in out_of[x]:
                relabel[m] = Morphism(bi, tgt[m], index[comp[(comp[(sect[tgt[m]], m)], inv[sect[x]])]], x)

    if len(set(relabel.values())) != n:
        raise ValidationError("groupoid.associativity", "two morphisms land on one morphism of the block form")
    for (g, h), gh in comp.items():
        a, b = relabel[g], relabel[h]
        if groups[a.block].mult_table[a.elem][b.elem] != relabel[gh].elem:
            raise ValidationError("groupoid.associativity", f"product ({g},{h}) = {gh} does not match the block form")
    return FiniteGroupoid(ConnectedBlock(xs, group) for xs, group in zip(classes, groups)), relabel
