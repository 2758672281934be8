"""Matrix rings over a graded division ring, graded by the same groupoid.

A matrix ring here is determined by a graded division ring D and a list
of signature sets, one per index.  Every signature morphism must target
an object of gamma0(D), and within one set no two morphisms may share a
source or share a target.  The homogeneous component at a degree gamma
consists of matrices whose (i, j) entry lives in the division-ring
component at delta*gamma*sigma^-1, where delta is the unique signature
of index i with source r(gamma) and sigma the unique signature of index
j with source d(gamma); when either selection fails, or the resulting
degree falls outside the support, the slot is dead and the entry must
be zero.  That is the hom-space slot rule with row morphism delta*gamma:
slot_degree is GradedDivisionRing.slot(delta*gamma, sigma), and element
checks its entries with the same matrices.live_entries as a hom matrix.

Since every component of D is one-dimensional, an element stores a bare
field coefficient per live slot.  A product adds, at (i, j), the
coefficient product times the factor of the two slot degrees, read off
the signatures like the degrees of a hom-space matrix product.
"""

from collections import Counter

from .errors import GradixError, ValidationError
from .fields import accumulate
from .matrices import live_entries, sparse_product


class MatrixRingElement:
    """A homogeneous element of a matrix ring.

    ``degree`` is a morphism of the grading groupoid, or None for zero.
    ``entries`` maps live index pairs (i, j) to nonzero field elements.
    """

    def __init__(self, parent, degree, entries):
        self.parent = parent
        self.degree = degree
        self.entries = entries

    @property
    def is_zero(self):
        return self.degree is None

    def __repr__(self):
        if self.is_zero:
            return "MatrixRingElement(0)"
        return f"MatrixRingElement(degree={self.degree}, {len(self.entries)} nonzero)"

    def coeff(self, i, j):
        return self.entries.get((i, j), self.parent.ring.field.zero())

    def equal(self, other):
        if self.parent is not other.parent and not self.parent.same_shape(other.parent):
            raise GradixError("cannot compare elements of different matrix rings")
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.degree == other.degree and self.entries == other.entries

    def add(self, other):
        p = self.parent
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise GradixError("can only add homogeneous elements of equal degree")
        out = dict(self.entries)
        for key, c in other.entries.items():
            accumulate(p.ring.field, out, key, c)
        if not out:
            return p.zero()
        return MatrixRingElement(p, self.degree, out)

    def neg(self):
        if self.is_zero:
            return self
        field = self.parent.ring.field
        return MatrixRingElement(
            self.parent, self.degree, {k: field.neg(c) for k, c in self.entries.items()}
        )

    def mul(self, other):
        """The sparse product on the slot degrees at gamma1 and gamma2: index k
        has one signature at d(gamma1) = r(gamma2), so slot(i, k) slot(k, j)
        is the slot of (i, j) at gamma1*gamma2."""
        p = self.parent
        if self.parent is not other.parent and not self.parent.same_shape(other.parent):
            raise GradixError("cannot multiply elements of different matrix rings")
        if self.is_zero or other.is_zero:
            return p.zero()
        g = p.ring.groupoid
        if not g.is_composable(self.degree, other.degree):
            return p.zero()
        gamma1, gamma2 = self.degree, other.degree
        out = sparse_product(
            p.ring, self.entries, other.entries,
            lambda i, k: p.slot_degree(i, k, gamma1), lambda k, j: p.slot_degree(k, j, gamma2),
        )
        return p.element(g.compose(gamma1, gamma2), out)


class MatrixRing:
    """M_I(D)(signatures): square matrices over D with prescribed shifts."""

    def __init__(self, ring, signatures):
        self.ring = ring
        self.signatures = tuple(tuple(sorted(set(sig))) for sig in signatures)
        self._validate()
        self._by_source = [{s.source: s for s in sig} for sig in self.signatures]
        live = {}
        for i, sig in enumerate(self.signatures):
            for s in sig:
                live.setdefault(s.source, []).append(i)
        self._live = {e: tuple(idx) for e, idx in live.items()}

    def _validate(self):
        g = self.ring.groupoid
        gamma0 = set(self.ring.gamma0())
        if not self.signatures:
            raise ValidationError("signature.nonempty", "a matrix ring needs at least one index")
        for i, sig in enumerate(self.signatures):
            if not sig:
                raise ValidationError("signature.nonempty", f"signature set {i} is empty")
            for s in sig:
                if not g.contains(s):
                    raise ValidationError(
                        "signature.morphism", f"set {i}: {s} is not a morphism of the groupoid"
                    )
                if s.target not in gamma0:
                    raise ValidationError(
                        "signature.r_unique",
                        f"set {i}: target object {s.target} is outside gamma0",
                    )
            sources = [s.source for s in sig]
            if len(set(sources)) != len(sources):
                raise ValidationError(
                    "signature.d_unique",
                    f"set {i} has two morphisms with the same source object",
                )
            targets = [s.target for s in sig]
            if len(set(targets)) != len(targets):
                raise ValidationError(
                    "signature.r_unique",
                    f"set {i} has two morphisms with the same target object",
                )

    @property
    def size(self):
        return len(self.signatures)

    def same_shape(self, other):
        return self.ring.same_ring(other.ring) and self.signatures == other.signatures

    def selection(self, i, source_obj):
        """The unique signature of index i with the given source, or None."""
        return self._by_source[i].get(source_obj)

    def live_indices(self, source_obj):
        """Indices whose signature set touches the given source object, in order."""
        return self._live.get(source_obj, ())

    def slot_degree(self, i, j, gamma):
        """The division-ring degree of entry (i, j) at element degree gamma."""
        delta = self.selection(i, gamma.target)
        sigma = self.selection(j, gamma.source)
        if delta is None or sigma is None:
            return None
        return self.ring.slot(self.ring.groupoid.compose(delta, gamma), sigma)

    def dimension_table(self):
        """Dimension over the base field of every nonzero component, as a
        Counter from degree to dimension, recomputed on every call.

        Slot (i, j) is live at gamma exactly when delta*gamma*sigma^-1 is
        in the support, for delta and sigma the selections of i and j at
        r(gamma) and d(gamma).  So each delta in set i, sigma in set j and
        support degree s from r(sigma) to r(delta) gives one live slot
        (i, j) at gamma = delta^-1*s*sigma, and no slot twice, since a
        selection is unique (signature.d_unique).  The cost is the total
        dimension of the ring.
        """
        g = self.ring.groupoid
        support_to = {}
        for s in self.ring.support:
            support_to.setdefault(s.target, []).append(s)
        sigmas_to = {}
        for sig in self.signatures:
            for sigma in sig:
                sigmas_to.setdefault(sigma.target, []).append(sigma)
        table = Counter()
        for sig in self.signatures:
            for delta in sig:
                back = g.inverse(delta)
                for s in support_to.get(delta.target, ()):
                    left = g.compose(back, s)
                    for sigma in sigmas_to.get(s.source, ()):
                        table[g.compose(left, sigma)] += 1
        return table

    def zero(self):
        return MatrixRingElement(self, None, {})

    def element(self, gamma, entries):
        """Build a homogeneous element, validating every entry slot."""
        g = self.ring.groupoid
        if not g.contains(gamma):
            raise ValidationError("element.degree", f"{gamma} is not a morphism of the groupoid")
        out = live_entries(
            "element.entry_slot", self.ring.field, entries, (self.size, self.size),
            lambda i, j: self.slot_degree(i, j, gamma),
        )
        if not out:
            return self.zero()
        return MatrixRingElement(self, gamma, out)

    def e_unit(self, i, j):
        """The matrix unit E_ij; needs singleton signatures with a common target."""
        si, sj = self.signatures[i], self.signatures[j]
        if len(si) != 1 or len(sj) != 1:
            raise GradixError("matrix units need singleton signature sets")
        a, b = si[0], sj[0]
        if a.target != b.target:
            raise GradixError(
                f"matrix unit E({i},{j}) needs a common signature target, got {a.target} and {b.target}"
            )
        g = self.ring.groupoid
        degree = g.compose(g.inverse(a), b)
        return self.element(degree, {(i, j): self.ring.field.one()})

    def identity_at(self, e):
        """The local identity at object e: diagonal ones on the live indices."""
        if not self.ring.groupoid.has_object(e):
            raise GradixError(f"no object {e} in the grading groupoid")
        live = self.live_indices(e)
        if not live:
            return self.zero()
        one = self.ring.field.one()
        return self.element(self.ring.groupoid.identity(e), {(i, i): one for i in live})


class MatrixFormBridge:
    """A degree-preserving isomorphism between a gr-prime division ring
    and a matrix ring over its corner at the smallest base object."""

    def __init__(self, source, base_object, corner, sections, matrix_ring, index_of):
        self.source = source
        self.base_object = base_object
        self.corner = corner
        self.sections = sections
        self.matrix_ring = matrix_ring
        self.index_of = index_of
        self._units = {f: source.unit(s) for f, s in sections.items()}

    def to_matrix(self, a):
        """Carry a homogeneous element of the division ring into the matrix ring."""
        if a.is_zero:
            return self.matrix_ring.zero()
        d = self.source
        gamma = a.degree
        u_r = self._units[gamma.target]
        u_d = self._units[gamma.source]
        conj = d.mul(d.mul(u_r, a), d.inv(u_d))
        i = self.index_of[gamma.target]
        j = self.index_of[gamma.source]
        return self.matrix_ring.element(gamma, {(i, j): conj.coeff})

    def from_matrix(self, x):
        """Carry a homogeneous matrix-ring element back into the division ring."""
        if x.is_zero:
            return self.source.zero()
        d = self.source
        gamma = x.degree
        i = self.index_of[gamma.target]
        j = self.index_of[gamma.source]
        c = x.coeff(i, j)
        loop = self.matrix_ring.slot_degree(i, j, gamma)
        u_r = self._units[gamma.target]
        u_d = self._units[gamma.source]
        return d.mul(d.mul(d.inv(u_r), d.scalar(loop, c)), u_d)


def matrix_form(ring):
    """Present a gr-prime graded division ring as a matrix ring over its corner.

    The base object is the smallest element of gamma0.  For every object
    f of gamma0 the connecting section is ``ring.connector(f, base)``; at
    the base itself this is the identity, so the corner embeds verbatim.
    Returns a MatrixFormBridge.
    """
    if not ring.is_gr_prime():
        raise GradixError("matrix form needs a gr-prime ring; decompose first")
    gamma0 = ring.gamma0()
    base = gamma0[0]
    sections = {f: ring.connector(f, base) for f in gamma0}
    corner = ring.corner(base)
    ring_sigs = [[sections[f]] for f in gamma0]
    m_ring = MatrixRing(corner, ring_sigs)
    index_of = {f: k for k, f in enumerate(gamma0)}
    return MatrixFormBridge(ring, base, corner, sections, m_ring, index_of)
