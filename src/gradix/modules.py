"""Pseudo-free graded modules over a graded division ring.

A module is a finite direct sum of degree shifts of the ring, written
down by the list of shift morphisms.  A homogeneous vector of degree tau
is a one-column hom matrix over [shifts][tau^-1]: its coordinate i sits
at the slot degree shift_i * tau, and the coordinates whose slot is dead
are forced to zero.  The vector's degree is the inverse of its column
signature, and the right action of a ring element of degree g is the
product with a 1 x 1 matrix over [tau^-1][(tau g)^-1].  A family of
vectors is the hom matrix of its columns, which puts ranks, independence
and bases on top of the elimination machinery: row operations keep every
right-linear relation among columns, so the pivot columns of one
reduction are the first-scan independent subfamily.
"""

from .elimination import row_reduce
from .errors import GradixError, ValidationError
from .matrices import HomMatrix, live_entries


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

    def vector(self, tau, entries):
        """The vector of degree tau with the given coordinates, as the
        one-column hom matrix over [shifts][tau^-1]."""
        g = self.ring.groupoid
        if not g.contains(tau):
            raise ValidationError("vector.degree", f"{tau} is not a morphism of the groupoid")
        out = HomMatrix(self.ring, self.shifts, [g.inverse(tau)])
        column = {(i, 0): c for i, c in dict(entries).items()}
        out.entries = live_entries("vector.entry_slot", self.ring, column, out.row_sig, out.col_sig)
        return out

    def standard_generator(self, i):
        """The i-th summand's unit, a vector of degree shift_i^-1."""
        tau = self.ring.groupoid.inverse(self.shifts[i])
        return self.vector(tau, {i: self.ring.field.one()})

    def columns(self, vectors):
        """The hom matrix whose column l is vectors[l]; each must be a
        vector of this module: one column over this ring, its rows the shifts."""
        for l, v in enumerate(vectors):
            if not v.ring.same_ring(self.ring) or v.row_sig != self.shifts or len(v.col_sig) != 1:
                raise ValidationError("vector.module", f"vector {l} is not a vector of this module")
        m = HomMatrix(self.ring, self.shifts, [v.col_sig[0] for v in vectors])
        for l, v in enumerate(vectors):
            for (i, _), c in v.entries.items():
                m.entries[(i, l)] = c
        return m

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


def hom_degree_dimension(source, target, gamma):
    """Dimension of the degree-gamma homomorphism space between modules.

    One dimension per summand pair whose connecting degree lands in the
    support: the slot degree of target_shift * gamma over source_shift.
    """
    if not source.ring.same_ring(target.ring):
        raise GradixError("hom spaces need modules over the same ring")
    ring = source.ring
    return sum(
        1
        for d in source.shifts
        for dp in target.shifts
        if dp.source == gamma.target and ring.slot(ring.groupoid.compose(dp, gamma), d) is not None
    )
