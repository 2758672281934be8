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
be zero.  So the component at gamma is a hom space, the groupoid form of
a shifted matrix ring M_n(R)(sigma) (Nastasescu and Van Oystaeyen,
Methods of Graded Rings, 2004): signatures_at(gamma) gives index i the
row morphism delta*gamma and index j the column morphism sigma, and
those signatures are the only way the ring learns a slot.  element
checks entries with matrices.live_entries and a product is one
matrices.sparse_product, exactly as for hom matrices.

Since every component of D is one-dimensional, an element stores a bare
field coefficient per live slot.
"""

from collections import Counter

from .errors import GradixError, ValidationError
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

    def equal(self, other):
        if self.parent is not other.parent and not self.parent.same_shape(other.parent):
            raise GradixError("cannot compare elements of different matrix rings")
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.degree == other.degree and self.entries == other.entries

    def add(self, other):
        """The entrywise sum; a zero sum is never stored."""
        p = self.parent
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise GradixError("can only add homogeneous elements of equal degree")
        field = p.ring.field
        out = dict(self.entries)
        for key, c in other.entries.items():
            c = field.coerce(out.pop(key, 0) + c)
            if not field.is_zero(c):
                out[key] = c
        if not out:
            return p.zero()
        return MatrixRingElement(p, self.degree, out)

    def mul(self, other):
        """The product as hom matrices, one sparse_product over
        signatures_at(gamma1) and signatures_at(gamma2).  Index k has one
        signature sigma_k at d(gamma1) = r(gamma2), so for delta_i, tau_j the
        selections of i at r(gamma1) and of j at d(gamma2) each term lies at
            delta_i gamma1 sigma_k^-1 . sigma_k gamma2 tau_j^-1 = delta_i gamma1gamma2 tau_j^-1,
        the slot of (i, j) at gamma1*gamma2."""
        p = self.parent
        if self.parent is not other.parent and not self.parent.same_shape(other.parent):
            raise GradixError("cannot multiply elements of different matrix rings")
        if self.is_zero or other.is_zero:
            return p.zero()
        g = p.ring.groupoid
        if not g.is_composable(self.degree, other.degree):
            return p.zero()
        gamma1, gamma2 = self.degree, other.degree
        out = sparse_product(p.ring, self.entries, other.entries, p.signatures_at(gamma1), p.signatures_at(gamma2))
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
        self._at = {}
        self._dimensions = None

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

    def live_indices(self, source_obj):
        """Indices whose signature set touches the given source object, in order."""
        return self._live.get(source_obj, ())

    def signatures_at(self, gamma):
        """The component at gamma as a hom space (rows, cols): rows[i] is
        delta_i o gamma and cols[j] is sigma_j, the signatures of i and j with
        source r(gamma) and d(gamma), None where there is none.  Entry (i, j)
        lies at ring.slot(rows[i], cols[j]) = delta_i gamma sigma_j^-1.

        Built on the first call for gamma and kept, as two tuples: the
        signatures never change, so a product reads them once per degree."""
        at = self._at.get(gamma)
        if at is None:
            compose = self.ring.groupoid.compose
            rows = [s.get(gamma.target) for s in self._by_source]
            rows = tuple(None if delta is None else compose(delta, gamma) for delta in rows)
            at = self._at[gamma] = rows, tuple(s.get(gamma.source) for s in self._by_source)
        return at

    def dimension_table(self):
        """Dimension over the base field of every nonzero component, as a
        Counter from degree to dimension.  A degree is the plain tuple
        (block, target, elem, source), which equals, hashes and sorts as the
        Morphism of the same fields.  The table is built on the first call
        and kept (ring and signatures never change); every call returns a
        copy of it, so a caller may change what it gets.
        """
        return Counter(self._dimension_counts())

    def _dimension_counts(self):
        """The kept dimension table itself, built on the first call; callers
        only read it (wedderburn_decompose's audit).

        Slot (i, j) is live at gamma exactly when delta*gamma*sigma^-1 is
        in the support, for delta and sigma the selections of i and j at
        r(gamma) and d(gamma).  So each delta in set i, sigma in set j and
        support degree s from r(sigma) to r(delta) gives one live slot
        (i, j) at gamma = delta^-1*s*sigma, and no slot twice, since a
        selection is unique (signature.d_unique).  The cost is the total
        dimension of the ring: gamma runs from d(sigma) to d(delta) in
        their block, its element read off the block's group table.
        """
        if self._dimensions is not None:
            return self._dimensions
        blocks = self.ring.groupoid.blocks
        support_to = {}
        for s in self.ring.support:
            support_to.setdefault(s.target, []).append(s)
        sigmas_to = {}
        for sig in self.signatures:
            for sigma in sig:
                sigmas_to.setdefault(sigma.target, []).append(sigma)
        degrees = []
        for sig in self.signatures:
            for delta in sig:
                grp = blocks[delta.block].group
                mult, back = grp.mult_table, grp.mult_table[grp.inv_table[delta.elem]]
                for s in support_to.get(delta.target, ()):
                    row = mult[back[s.elem]]
                    sigmas = sigmas_to.get(s.source, ())
                    degrees += [(delta.block, delta.source, row[sigma.elem], sigma.source) for sigma in sigmas]
        self._dimensions = Counter(degrees)
        return self._dimensions

    def zero(self):
        return MatrixRingElement(self, None, {})

    def element(self, gamma, entries):
        """Build a homogeneous element, validating every entry slot."""
        g = self.ring.groupoid
        if not g.contains(gamma):
            raise ValidationError("element.degree", f"{gamma} is not a morphism of the groupoid")
        out = live_entries("element.entry_slot", self.ring, entries, *self.signatures_at(gamma))
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
    and a matrix ring over its corner at the smallest base object.

    A division-ring element is a (degree, coeff) pair, or None for zero;
    conjugating it by the section units u_f = (s_f, 1) puts it in the
    single slot of its degree in the matrix ring, and back.
    """

    def __init__(self, source, base_object, corner, sections, matrix_ring, index_of):
        self.source = source
        self.base_object = base_object
        self.corner = corner
        self.sections = sections
        self.matrix_ring = matrix_ring
        self.index_of = index_of
        one = source.field.one()
        self._units = {f: (s, one) for f, s in sections.items()}

    def to_matrix(self, a):
        """Carry a (degree, coeff) pair of the division ring into the matrix ring."""
        if a is None:
            return self.matrix_ring.zero()
        d = self.source
        gamma = a[0]
        u_r = self._units[gamma.target]
        u_d = self._units[gamma.source]
        _, conj = d.mul(d.mul(u_r, a), d.inv(u_d))
        i = self.index_of[gamma.target]
        j = self.index_of[gamma.source]
        return self.matrix_ring.element(gamma, {(i, j): conj})

    def from_matrix(self, x):
        """Carry a homogeneous matrix-ring element back to a (degree, coeff)
        pair of the division ring, or None for zero."""
        if x.is_zero:
            return None
        d = self.source
        gamma = x.degree
        i = self.index_of[gamma.target]
        j = self.index_of[gamma.source]
        rows, cols = self.matrix_ring.signatures_at(gamma)
        loop = self.corner.slot(rows[i], cols[j])
        u_r = self._units[gamma.target]
        u_d = self._units[gamma.source]
        return d.mul(d.mul(d.inv(u_r), (loop, x.entries[(i, j)])), u_d)


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
