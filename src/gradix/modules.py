"""Pseudo-free graded modules over a graded division ring.

A module is a finite direct sum of degree shifts of the ring, written
down by the list of shift morphisms.  A homogeneous vector of degree tau
stores one field coefficient per summand whose slot shift*tau lands in
the support; all other coordinates are forced to zero.  Families of
vectors convert to hom-space matrices (one column per vector, column
signature tau^-1), which puts ranks, independence and bases on top of
the elimination machinery: row operations keep every right-linear
relation among columns, so the pivot columns of one reduction are the
first-scan independent subfamily.
"""

from .elimination import row_reduce
from .errors import GradixError, ValidationError
from .fields import accumulate
from .matrices import HomMatrix


class HomogeneousVector:
    def __init__(self, module, degree, entries):
        self.module = module
        self.degree = degree
        self.entries = entries

    @property
    def is_zero(self):
        return not self.entries

    def coeff(self, i):
        return self.entries.get(i, self.module.ring.field.zero())

    def __repr__(self):
        return f"HomogeneousVector(degree={self.degree}, {len(self.entries)} nonzero)"


class GradedModule:
    """A pseudo-free right module: one shift morphism per summand."""

    def __init__(self, ring, shifts):
        self.ring = ring
        self.shifts = tuple(shifts)
        g = ring.groupoid
        gamma0 = set(ring.gamma0())
        for k, d in enumerate(self.shifts):
            if not g.contains(d):
                raise ValidationError(
                    "module.shift_target", f"shift {k}: {d} is not a morphism of the groupoid"
                )
            if d.target not in gamma0:
                raise ValidationError(
                    "module.shift_target",
                    f"shift {k} targets object {d.target}, which is outside gamma0",
                )

    def pdim(self):
        return len(self.shifts)

    def gamma0_dimension(self, e):
        """Number of summands whose shift starts at the object e."""
        return sum(1 for d in self.shifts if d.source == e)

    def slot(self, i, tau):
        """The ring degree of coordinate i at vector degree tau, or None."""
        g = self.ring.groupoid
        d = self.shifts[i]
        if d.source != tau.target:
            return None
        out = g.compose(d, tau)
        return out if out in self.ring.support else None

    def vector(self, tau, entries):
        if not self.ring.groupoid.contains(tau):
            raise ValidationError("vector.degree", f"{tau} is not a morphism of the groupoid")
        field = self.ring.field
        out = {}
        for i, raw in dict(entries).items():
            if not 0 <= i < len(self.shifts):
                raise ValidationError("vector.entry_slot", f"coordinate {i} out of range")
            c = field.coerce(raw)
            if field.is_zero(c):
                continue
            if self.slot(i, tau) is None:
                raise ValidationError(
                    "vector.entry_slot",
                    f"coordinate {i} is dead at vector degree {tau} and must be zero",
                )
            out[i] = c
        return HomogeneousVector(self, tau, out)

    def zero_vector(self, tau):
        return self.vector(tau, {})

    def standard_generator(self, i):
        """The i-th summand's unit, a vector of degree shift_i^-1."""
        tau = self.ring.groupoid.inverse(self.shifts[i])
        return self.vector(tau, {i: self.ring.field.one()})

    def add(self, v, w):
        if v.degree != w.degree:
            raise GradixError("can only add vectors of equal degree")
        out = dict(v.entries)
        for i, c in w.entries.items():
            accumulate(self.ring.field, out, i, c)
        return HomogeneousVector(self, v.degree, out)

    def scale_right(self, v, a):
        """Right action of a homogeneous ring element on a vector."""
        if a.is_zero:
            return self.zero_vector(v.degree)
        g = self.ring.groupoid
        if not g.is_composable(v.degree, a.degree):
            raise GradixError("vector degree does not compose with the scalar degree")
        new_tau = g.compose(v.degree, a.degree)
        field, factor = self.ring.field, self.ring.factor
        out = {}
        for i, c in v.entries.items():
            out[i] = field.mul(field.mul(c, a.coeff), factor[(self.slot(i, v.degree), a.degree)])
        return HomogeneousVector(self, new_tau, out)

    def columns(self, vectors):
        """The hom matrix with one column per vector."""
        g = self.ring.groupoid
        col_sig = [g.inverse(v.degree) for v in vectors]
        m = HomMatrix(self.ring, list(self.shifts), col_sig)
        for l, v in enumerate(vectors):
            for i, c in v.entries.items():
                m.entries[(i, l)] = c
        return m

    def equal(self, v, w):
        if v.is_zero and w.is_zero:
            return True
        return v.degree == w.degree and v.entries == w.entries

    # -- spans and bases ----------------------------------------------------

    def pdim_of_span(self, vectors):
        """Pseudo-dimension of the span: the rank of the column matrix."""
        return row_reduce(self.columns(vectors)).rank

    def is_pseudo_independent(self, vectors):
        return self.pdim_of_span(vectors) == len(vectors)

    def _pivot_scan(self, vectors):
        """Reduce [vectors | standard generators] once; return (kept, added).

        A column is a pivot exactly when it lies outside the span of the
        columns before it.  So the pivots in the first block are the
        first-scan maximal independent subfamily (kept, as indices into
        vectors) and those in the second block are the standard
        generators that complete it to a basis (added, in summand order).
        Each dropped vector is verified to be the combination of the kept
        ones that the echelon form records.
        """
        n = len(vectors)
        red = row_reduce(self.columns(vectors).hstack(HomMatrix.identity(self.ring, self.shifts)))
        if red.rank != self.pdim():
            raise GradixError("internal error: standard generators failed to complete the family")
        rows = [r for (r, col) in red.pivots if col < n]
        kept = [col for (_, col) in red.pivots if col < n]
        dropped = [l for l in range(n) if l not in kept]
        if dropped:
            combination = self.columns([vectors[l] for l in kept]).mul(red.echelon.submatrix(rows, dropped))
            if not combination.equal(self.columns([vectors[l] for l in dropped])):
                raise GradixError("internal error: dropped generator is outside the kept span")
        return kept, [col - n for (_, col) in red.pivots if col >= n]

    def basis_from_generators(self, vectors):
        """First-scan maximal independent subfamily of a generating family.

        Every dropped vector is verified to lie in the span of the kept
        ones, so the kept family spans the same submodule.
        """
        kept, _ = self._pivot_scan(vectors)
        return [vectors[l] for l in kept]

    def extend_to_pseudo_basis(self, vectors):
        """Complete an independent family to a basis of the whole module.

        The standard generators outside the span of the family and of
        the generators before them are appended in summand order.  The
        result always has pdim(M) members.
        """
        kept, added = self._pivot_scan(vectors)
        if len(kept) != len(vectors):
            raise GradixError("extension needs a pseudo-independent family")
        return list(vectors) + [self.standard_generator(i) for i in added]

    def quotient_pdim(self, vectors):
        """Pseudo-dimension of the quotient by the span of the vectors:
        the number of standard generators that complete a basis of it."""
        return len(self._pivot_scan(list(vectors))[1])

    def shift(self, sigma):
        """The shifted module: each summand shift composes with sigma.

        Summands whose shift does not compose with sigma disappear.
        Returns the new module together with the list of surviving
        summand indices.
        """
        g = self.ring.groupoid
        survivors = []
        new_shifts = []
        for i, d in enumerate(self.shifts):
            if g.is_composable(d, sigma):
                survivors.append(i)
                new_shifts.append(g.compose(d, sigma))
        return GradedModule(self.ring, new_shifts), survivors

    def shift_identity_check(self):
        """Check that the identity shifts partition the summands."""
        seen = []
        for e in sorted({d.source for d in self.shifts}):
            _, survivors = self.shift(self.ring.groupoid.identity(e))
            seen.extend(survivors)
        return sorted(seen) == list(range(len(self.shifts)))


def hom_degree_dimension(source, target, gamma):
    """Dimension of the degree-gamma homomorphism space between modules.

    One dimension per summand pair whose connecting degree lands in the
    support: target_shift * gamma * source_shift^-1.
    """
    if source.ring is not target.ring:
        raise GradixError("hom spaces need modules over the same ring")
    g = source.ring.groupoid
    count = 0
    for d in source.shifts:
        for dp in target.shifts:
            if gamma.source != d.source or dp.source != gamma.target:
                continue
            deg = g.compose(dp, g.compose(gamma, g.inverse(d)))
            if deg in source.ring.support:
                count += 1
    return count
