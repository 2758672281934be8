"""Groupoid-graded division rings with one-dimensional components.

Such a ring is determined by a field F, a groupoid, the support (the set
of degrees carrying a nonzero component), and a factor set: a nonzero
scalar for every composable pair of support degrees, twisting the product
of the basis units, u_s * u_t = factor(s,t) u_{st}.

For the ring to be an associative, object-unital graded division ring the
support must be a subgroupoid (closed under inverses and defined
compositions, containing the identities of every object it touches) and
the factor must be a normalized 2-cocycle.  The constructor checks the
support conditions and the factor's domain, nonzero values and
normalization exhaustively, and the cocycle identity on the triples whose
middle degree is a generator of the support, which is enough by Light's
associativity test (see _check_cocycle).  Every ring read from user data
goes through it; sizes are bounded by the groupoid ceilings.  Two rings
derived from an already validated ring are valid by construction and are
built by the private ``_trusted`` classmethod without that check: a
restriction to the support morphisms between a set of objects (a corner,
a prime block) and the opposite ring.

A homogeneous element is a bare (degree, coeff) pair: a support degree
and a nonzero field coefficient.  Zero is None, and carries no degree.
Products of non-composable degrees are zero.
"""

from typing import NamedTuple

from .errors import GradixError, ValidationError
from .groupoids import FiniteGroupoid, union_classes


class FactorRows(NamedTuple):
    """The factor set as rows indexed by slot position.

    ``pos[t]`` is the place of t among the support degrees with target
    t.target, in sort order.  For each support degree s, ``values[s]``
    holds factor(s, t) at pos[t] for every t with target s.source, and
    ``numerators[s]`` the same row as integers over the one common
    ``denominator`` of the whole table.
    """

    pos: dict
    values: dict
    numerators: dict
    denominator: int


def _by_target(degrees):
    """The degrees grouped by target object, each group in the given order."""
    out = {}
    for t in degrees:
        out.setdefault(t.target, []).append(t)
    return out


def _cocycle_generators(groupoid, support):
    """A generating set of the support subgroupoid, component by component.

    The components are the classes of objects linked by support arrows,
    each with its least object b as base.  For every other object x the
    set holds the least support arrow a_x: b -> x and its inverse, and
    then a greedy generating set of the support loops at b: in sort
    order, each loop not yet in the subgroup the earlier ones generate.
    Each one at least doubles that subgroup, so there are at most
    log2 |H| of them for the isotropy group H.
    """
    homs = {}
    for m in sorted(support):
        homs.setdefault((m.source, m.target), []).append(m)
    gens = []
    for objs in union_classes({m.source for m in support}, homs):
        b = objs[0]
        for x in objs[1:]:
            a = homs[b, x][0]
            gens += [a, groupoid.inverse(a)]
        group = groupoid.blocks[groupoid.block_of(b)].group
        elems, reached = [], {group.identity}
        for h in homs[b, b]:
            if h.elem in reached:
                continue
            gens.append(h)
            elems.append(h.elem)
            stack = list(reached)
            while stack:
                row = group.mult_table[stack.pop()]
                for e in elems:
                    y = row[e]
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
    return gens


class GradedDivisionRing:
    def __init__(self, field, groupoid, support, factor):
        self.field = field
        self.groupoid = groupoid
        self.support = frozenset(support)
        self.factor = dict(factor)
        self._validate()
        self._gamma0 = tuple(sorted({m.source for m in self.support}))
        self._opposite = None
        self._factor_rows = None
        self._slots = {}

    @classmethod
    def _trusted(cls, parent, support, factor):
        """A ring over the field and groupoid of the validated ``parent``,
        built without ``__init__`` or ``_validate``.

        Only methods of ``parent`` call it, with a support and factor set
        that are valid by construction; ``factor`` is taken as it is.
        """
        ring = cls.__new__(cls)
        ring.field = parent.field
        ring.groupoid = parent.groupoid
        ring.support = frozenset(support)
        ring.factor = factor
        ring._gamma0 = tuple(sorted({m.source for m in ring.support}))
        ring._opposite = None
        ring._factor_rows = None
        ring._slots = {}
        return ring

    # -- validation ---------------------------------------------------------

    def _validate(self):
        g = self.groupoid
        if not self.support:
            raise ValidationError("support.nonempty", "a graded division ring is nonzero; support is empty")
        for m in self.support:
            if not g.contains(m):
                raise ValidationError("support.membership", f"{m} is not a morphism of the groupoid")
        touched = {m.source for m in self.support} | {m.target for m in self.support}
        for m in self.support:
            if g.inverse(m) not in self.support:
                raise ValidationError("support.inverse_closed", f"support lacks the inverse of {m}")
        for e in sorted(touched):
            if g.identity(e) not in self.support:
                raise ValidationError("support.identities", f"support touches object {e} but lacks its identity")
        by_target = _by_target(self.support)
        pairs = [(s, t) for s in self.support for t in by_target.get(s.source, ())]
        for s, t in pairs:
            if g.compose(s, t) not in self.support:
                raise ValidationError("support.composition_closed", f"support lacks the product of {s} and {t}")

        pairs = set(pairs)
        for key in self.factor:
            if key not in pairs:
                raise ValidationError("factor.domain", f"factor given for non-composable or non-support pair {key}")
        for key in pairs:
            if key not in self.factor:
                raise ValidationError("factor.domain", f"factor missing for composable support pair {key}")
        for key, value in self.factor.items():
            if self.field.is_zero(value):
                raise ValidationError("factor.nonzero", f"factor at {key} is zero")
        one = self.field.one()
        for m in self.support:
            if not self.field.equal(self.factor[(m, g.identity(m.source))], one):
                raise ValidationError("factor.normalization", f"factor({m}, id) != 1")
            if not self.field.equal(self.factor[(g.identity(m.target), m)], one):
                raise ValidationError("factor.normalization", f"factor(id, {m}) != 1")
        self._check_cocycle()

    def _check_cocycle(self):
        """The cocycle identity f(s,t) f(st,r) = f(t,r) f(s,tr) on every
        triple whose middle t is a generator (_cocycle_generators) of the
        support, checked last; returns the number of triples compared.

        This is Light's associativity test (Clifford and Preston, The
        Algebraic Theory of Semigroups I, 1961, section 1.2) on the magma
        of the elements a u_s and 0.  The identity on (s, t, r) says
        (u_s u_t) u_r = u_s (u_t u_r); when a pair does not compose both
        sides are 0.  So t lies in the set T of degrees whose identity
        holds for every s and r exactly when u_t associates in the middle
        of every product, and T is closed under products: for t1, t2 in
        T, u_t1 u_t2 is a nonzero multiple of u_t1t2, and
        (x (u_t1 u_t2)) y = ((x u_t1) u_t2) y = (x u_t1)(u_t2 y)
        = x (u_t1 (u_t2 y)) = x ((u_t1 u_t2) y), each step an
        associativity with middle t1 or t2.  Identities lie in T, because
        the factor set is normalized (checked first).  In a component
        with base b and generators a_x: b -> x (a_b the identity), each
        support arrow m: x -> y is a_y h a_x^-1 with h = a_y^-1 m a_x a
        support loop at b, and h is a positive word in the isotropy
        generators, since the group is finite.  So T is the whole support
        once it holds the generators.

        Factors are compared as integer numerators over the one common
        denominator d of the table, N(s,t) N(st,r) = N(t,r) N(s,tr),
        reduced mod p over F_p: d^2 cancels, so the test is exact.  The
        numerators are built here and dropped afterwards (factor_rows
        stays unbuilt).
        """
        g, field = self.groupoid, self.field
        p = field.p if field.kind == "Fp" else None
        nums, _ = field.integers(list(self.factor.values()))
        rows = {}
        for (s, t), x in zip(self.factor, nums):
            rows.setdefault(s, {})[t] = x
        support = sorted(self.support)
        into, out_of = _by_target(support), {}
        for m in support:
            out_of.setdefault(m.source, []).append(m)
        count = 0
        for t in _cocycle_generators(g, self.support):
            rt = rows[t]
            rs = [(r, g.compose(t, r), rt[r]) for r in into[t.source]]
            for s in out_of[t.target]:
                ns, nst = rows[s], rows[g.compose(s, t)]
                a = ns[t]
                for r, tr, b in rs:
                    v = a * nst[r] - b * ns[tr]
                    if v if p is None else v % p:
                        raise ValidationError("factor.cocycle", f"cocycle identity fails on the triple ({s}, {t}, {r})")
                count += len(rs)
        return count

    # -- structure ----------------------------------------------------------

    def gamma0(self):
        """Objects whose identity lies in the support, sorted."""
        return self._gamma0

    def slot(self, a, b):
        """The degree a o b^-1 when it is defined and in the support, else None.

        This is the one slot rule: entry (i, j) of a hom-space matrix over
        [alpha][beta] lives at slot(alpha_i, beta_j), and entry (i, j) of a
        matrix-ring element of degree gamma at slot(delta_i gamma, sigma_j).
        A pair that leaves different objects is dead at once; any other pair
        is composed on its first call and kept in the ring's slot table,
        which holds only the pairs asked for (support and groupoid never
        change, so it cannot go stale).
        """
        if a.source != b.source:
            return None
        d = self._slots.get((a, b), False)
        if d is False:
            d = self.groupoid.compose_inverse(a, b)
            d = self._slots[a, b] = d if d in self.support else None
        return d

    def same_ring(self, other):
        """Equal field, grading groupoid, support and factor set."""
        return self is other or (
            self.field == other.field
            and self.groupoid == other.groupoid
            and self.support == other.support
            and self.factor == other.factor
        )

    def factor_rows(self):
        """The factor set as FactorRows, the size of the factor set, built
        on the first call and cached (construction and validation never
        build it; support and factor never change, so it cannot go stale)."""
        if self._factor_rows is None:
            support = sorted(self.support)
            by_target = _by_target(support)
            pos = {t: k for ts in by_target.values() for k, t in enumerate(ts)}
            flat = [self.factor[(s, t)] for s in support for t in by_target[s.source]]
            nums, d = self.field.integers(flat)
            values, numerators, k = {}, {}, 0
            for s in support:
                end = k + len(by_target[s.source])
                values[s], numerators[s], k = flat[k:end], nums[k:end], end
            self._factor_rows = FactorRows(pos, values, numerators, d)
        return self._factor_rows

    def factor_value(self, s, t):
        try:
            return self.factor[(s, t)]
        except KeyError:
            raise GradixError(f"factor not defined on ({s}, {t})") from None

    # -- elements -----------------------------------------------------------

    def mul(self, x, y):
        """The product of two elements, each a (degree, coeff) pair or None
        for zero: (s, a)(t, b) = (st, a b factor(s, t)), and None when s and
        t do not compose."""
        if x is None or y is None:
            return None
        (s, a), (t, b) = x, y
        if not self.groupoid.is_composable(s, t):
            return None
        field = self.field
        return self.groupoid.compose(s, t), field.mul(field.mul(a, b), self.factor[(s, t)])

    def inv(self, x):
        """The two-sided inverse of a nonzero (degree, coeff) pair (s, a):
        (s^-1, (a factor(s, s^-1))^-1)."""
        if x is None:
            raise ZeroDivisionError("inverse of the zero element")
        s, a = x
        s_inv = self.groupoid.inverse(s)
        return s_inv, self.field.inv(self.field.mul(a, self.factor[(s, s_inv)]))

    # -- primality ----------------------------------------------------------

    def primality_classes(self):
        """Partition of gamma0 by the relation e ~ f iff support meets hom(f, e)."""
        return union_classes(self._gamma0, ((m.source, m.target) for m in self.support))

    def is_gr_prime(self):
        return len(self.primality_classes()) == 1

    def connector(self, f, e):
        """The degree connecting object f to object e: the identity when
        f == e, otherwise the least supported morphism f -> e."""
        if f == e:
            return self.groupoid.identity(e)
        for m in self.groupoid.hom(f, e):
            if m in self.support:
                return m
        raise GradixError(f"no supported morphism connects {f} to {e}")

    def restrict_to_objects(self, objs):
        """The graded division ring on the support morphisms inside a set of objects.

        Valid by construction, so built without revalidation: the support
        morphisms between the objects form a full subgroupoid of the
        support (inverses, composites and the identities at the objects
        stay inside), and the factor set restricted to its composable
        pairs is still a normalized 2-cocycle.  Only an object set that
        misses gamma0, and so leaves the support empty, is refused.
        """
        objs = set(objs)
        support = [m for m in self.support if m.source in objs and m.target in objs]
        if not support:
            raise ValidationError("support.nonempty", "a graded division ring is nonzero; support is empty")
        by_target = _by_target(support)
        factor = {(s, t): self.factor[(s, t)] for s in support for t in by_target[s.source]}
        return GradedDivisionRing._trusted(self, support, factor)

    def decompose_prime(self):
        """Split into gr-simple blocks along the primality classes."""
        return [self.restrict_to_objects(cls) for cls in self.primality_classes()]

    def corner(self, e):
        """The corner ring 1_e D 1_e: support restricted to loops at e."""
        if e not in self._gamma0:
            raise GradixError(f"object {e} is not in gamma0")
        return self.restrict_to_objects([e])

    # -- opposite -----------------------------------------------------------

    def opposite(self):
        """The opposite ring: same support set, factor(s,t) -> factor(t^-1, s^-1).

        Built on the first call without revalidation, then cached; support
        and factor never change after construction, so the cache cannot go
        stale.  It is valid by construction: u'_s = u_{s^-1} is a graded
        basis of the opposite of this ring, u'_s u'_t = u_{t^-1} u_{s^-1},
        and the support is closed under inverses, so the support stays and
        the factor set is a normalized 2-cocycle because the opposite ring
        is associative with the same local units.  The opposite of the
        opposite is this ring itself, and the two share one slot table,
        since a slot depends only on the groupoid and the support.
        """
        if self._opposite is None:
            g = self.groupoid
            factor = {(s, t): self.factor[(g.inverse(t), g.inverse(s))] for (s, t) in self.factor}
            op = GradedDivisionRing._trusted(self, self.support, factor)
            op._opposite, op._slots = self, self._slots
            self._opposite = op
        return self._opposite

    # -- constructors -------------------------------------------------------

    @classmethod
    def group_ring(cls, field, group, object_id=0):
        """The plain group ring F[G] at one object (factor identically 1)."""
        g = FiniteGroupoid.one_object(group, object_id)
        support = list(g.morphisms())
        one = field.one()
        factor = {(s, t): one for s in support for t in support}
        return cls(field, g, support, factor)

    @classmethod
    def twisted_group_ring(cls, field, group, cocycle, object_id=0):
        """A twisted group ring: cocycle maps element-index pairs to scalars."""
        g = FiniteGroupoid.one_object(group, object_id)
        support = list(g.morphisms())
        factor = {}
        for s in support:
            for t in support:
                factor[(s, t)] = field.coerce(cocycle(s.elem, t.elem))
        return cls(field, g, support, factor)

    @classmethod
    def prime_form(cls, corner_ring, sections):
        """A gr-prime multi-object ring from a one-object corner and sections.

        ``corner_ring`` is concentrated at a single object e (all support
        degrees are loops at e); ``sections`` is a family of morphisms with
        target e and pairwise distinct sources, including the identity at
        e.  The result has support {s_f^-1 h s_g} over the same groupoid
        and restricts back to ``corner_ring`` exactly at e.
        """
        g = corner_ring.groupoid
        base_objects = {m.source for m in corner_ring.support}
        if len(base_objects) != 1:
            raise GradixError("corner ring must be concentrated at one object")
        (e,) = base_objects
        sources = [s.source for s in sections]
        if len(set(sources)) != len(sources):
            raise GradixError("section sources must be pairwise distinct")
        for s in sections:
            if s.target != e:
                raise GradixError(f"section {s} does not target the base object {e}")
            if s.source == e and not g.is_identity(s):
                raise GradixError("the section at the base object must be its identity")
        if e not in sources:
            raise GradixError(f"sections must include the identity at {e}")

        sect = {s.source: s for s in sections}
        support = set()
        decomp = {}
        for f, sf in sect.items():
            for h in corner_ring.support:
                for g2, sg in sect.items():
                    m = g.compose(g.compose(g.inverse(sf), h), sg)
                    support.add(m)
                    decomp[m] = h
        factor = {}
        for s in support:
            for t in support:
                if g.is_composable(s, t):
                    factor[(s, t)] = corner_ring.factor_value(decomp[s], decomp[t])
        return cls(corner_ring.field, g, support, factor)

    def __repr__(self):
        return (
            f"GradedDivisionRing({self.field.describe()}, support={len(self.support)}, "
            f"gamma0={list(self._gamma0)})"
        )
