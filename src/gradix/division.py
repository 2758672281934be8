"""Groupoid-graded division rings with one-dimensional components.

Such a ring is determined by a field F, a groupoid, the support (the set
of degrees carrying a nonzero component), and a factor set: a nonzero
scalar for every composable pair of support degrees, twisting the product
of the basis units, u_s * u_t = factor(s,t) u_{st}.

For the ring to be an associative, object-unital graded division ring the
support must be a subgroupoid (closed under inverses and defined
compositions, containing the identities of every object it touches) and
the factor must be a normalized 2-cocycle.  The constructor validates all
of that exhaustively, and every ring read from user data goes through it;
sizes are bounded by the groupoid ceilings.  Two rings derived from an
already validated ring are valid by construction and are built by the
private ``_trusted`` classmethod without that check: a restriction to the
support morphisms between a set of objects (a corner, a prime block) and
the opposite ring.

A homogeneous element is a degree plus a field coefficient; the zero
element carries no degree.  Products of non-composable degrees are zero.
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


class HomogeneousScalar:
    """A homogeneous element: a degree morphism and a nonzero coefficient.

    The zero element is represented with degree None.  Instances are
    created through ring methods, which keep the normalization.
    """

    __slots__ = ("degree", "coeff")

    def __init__(self, degree, coeff):
        self.degree = degree
        self.coeff = coeff

    @property
    def is_zero(self):
        return self.degree is None

    def __repr__(self):
        if self.is_zero:
            return "HomogeneousScalar(0)"
        return f"HomogeneousScalar({self.coeff!r} at {self.degree.key()})"


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
        for (s, t) in pairs:
            st = g.compose(s, t)
            for r in by_target.get(t.source, ()):
                lhs = self.field.mul(self.factor[(s, t)], self.factor[(st, r)])
                rhs = self.field.mul(self.factor[(t, r)], self.factor[(s, g.compose(t, r))])
                if not self.field.equal(lhs, rhs):
                    raise ValidationError(
                        "factor.cocycle",
                        f"cocycle identity fails on the triple ({s}, {t}, {r})",
                    )

    # -- structure ----------------------------------------------------------

    def gamma0(self):
        """Objects whose identity lies in the support, sorted."""
        return self._gamma0

    def slot(self, a, b):
        """The degree a o b^-1 when it is defined and in the support, else None.

        This is the one slot rule: entry (i, j) of a hom-space matrix over
        [alpha][beta] lives at slot(alpha_i, beta_j), and entry (i, j) of a
        matrix-ring element of degree gamma at slot(delta_i gamma, sigma_j).
        """
        d = self.groupoid.compose_inverse(a, b)
        return d if d in self.support else None

    def same_ring(self, other):
        """Equal field, grading groupoid, support and factor set."""
        return self is other or (
            self.field == other.field
            and self.groupoid.to_json() == other.groupoid.to_json()
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

    def zero(self):
        return HomogeneousScalar(None, self.field.zero())

    def scalar(self, degree, coeff):
        coeff = self.field.coerce(coeff)
        if self.field.is_zero(coeff):
            return self.zero()
        if degree not in self.support:
            raise GradixError(f"degree {degree} is outside the support")
        return HomogeneousScalar(degree, coeff)

    def unit(self, degree):
        return self.scalar(degree, self.field.one())

    def one(self, obj):
        """The local unit 1_e at an object of gamma0."""
        ident = self.groupoid.identity(obj)
        if ident not in self.support:
            raise GradixError(f"object {obj} is not in gamma0")
        return HomogeneousScalar(ident, self.field.one())

    def equal(self, x, y):
        if x.is_zero or y.is_zero:
            return x.is_zero and y.is_zero
        return x.degree == y.degree and self.field.equal(x.coeff, y.coeff)

    def add(self, x, y):
        """Sum of two homogeneous elements of a common degree."""
        if x.is_zero:
            return y
        if y.is_zero:
            return x
        if x.degree != y.degree:
            raise GradixError(f"cannot add degrees {x.degree} and {y.degree}")
        c = self.field.add(x.coeff, y.coeff)
        if self.field.is_zero(c):
            return self.zero()
        return HomogeneousScalar(x.degree, c)

    def neg(self, x):
        if x.is_zero:
            return x
        return HomogeneousScalar(x.degree, self.field.neg(x.coeff))

    def mul(self, x, y):
        """Product; zero when the degrees do not compose."""
        if x.is_zero or y.is_zero:
            return self.zero()
        if not self.groupoid.is_composable(x.degree, y.degree):
            return self.zero()
        degree = self.groupoid.compose(x.degree, y.degree)
        coeff = self.field.mul(self.field.mul(x.coeff, y.coeff), self.factor[(x.degree, y.degree)])
        return HomogeneousScalar(degree, coeff)

    def inv(self, x):
        """The two-sided inverse of a nonzero homogeneous element."""
        if x.is_zero:
            raise ZeroDivisionError("inverse of the zero element")
        inv_degree = self.groupoid.inverse(x.degree)
        coeff = self.field.inv(self.field.mul(x.coeff, self.factor[(x.degree, inv_degree)]))
        return HomogeneousScalar(inv_degree, coeff)

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
        opposite is this ring itself.
        """
        if self._opposite is None:
            g = self.groupoid
            factor = {(s, t): self.factor[(g.inverse(t), g.inverse(s))] for (s, t) in self.factor}
            op = GradedDivisionRing._trusted(self, self.support, factor)
            op._opposite = self
            self._opposite = op
        return self._opposite

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, field, object_id=0):
        """The field itself, graded at a single object."""
        g = FiniteGroupoid.pair([object_id])
        ident = g.identity(object_id)
        return cls(field, g, [ident], {(ident, ident): field.one()})

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
