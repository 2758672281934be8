"""Rectangular matrices of homogeneous elements over a graded division ring.

A matrix in M_{m x n}(D)[alpha][beta] has its (i,j) slot pinned to the
degree alpha_i * beta_j^-1.  A slot is alive when that composition is
defined and lies in the support of D; entries elsewhere are forced to
zero.  That rule is coded once, as GradedDivisionRing.slot, which keeps
one slot table per ring: a pair of signature morphisms is composed the
first time any matrix over the ring asks for it, and products,
elimination and the entry checks all read the same table.
Since components are one-dimensional, an entry is stored as a bare
field coefficient, and the degree bookkeeping lives entirely in the two
signatures.

Products of compatible matrices are always degree-coherent: the middle
signature cancels, so [alpha][beta] x [beta][tau] lands in [alpha][tau]
with no cross terms.  A matrix-ring element of degree gamma is such a
matrix over MatrixRing.signatures_at(gamma), so one sparse_product and
one entry check, live_entries, serve hom matrices, module vectors and
matrix-ring elements; both learn every slot from the signatures alone.
sparse_product works on integers: each left row and each right column is
put over the lcm of its entries' denominators (1 over F_p), and the factor
rows over theirs, df; each term is a product of three integers with the
factor read from the left degree's row at the right degree's slot
position, and each output entry (i, j) is reduced once over d_i d_j df,
mod p or to a Fraction.  Entries are therefore always
canonical field elements and zeros are never stored, which lets equal
compare entry dicts.
"""

from collections import defaultdict
from math import lcm

from .errors import GradixError, ValidationError


def sparse_product(ring, left, right, left_sigs, right_sigs):
    """The product of coefficient tables {(i, k): x} and {(k, j): y} over
    signatures (rows, mids) and (mids2, cols): x*y*factor(slot(rows[i],
    mids[k]), slot(mids2[k], cols[j])) is added at (i, j), on integers over
    the denominator of left row i and of right column j, left terms grouped
    by row, and each sum is reduced once; a zero sum is never stored.
    """
    field, slot = ring.field, ring.slot
    (rows, mids), (mids2, cols) = left_sigs, right_sigs
    pos, _, factor_rows, df = ring.factor_rows()
    dr = {}
    for (_, j), y in right.items():
        dr[j] = lcm(dr.get(j, 1), y.denominator)
    right_rows = {}
    for (k, j), y in right.items():
        right_rows.setdefault(k, []).append((j, pos[slot(mids2[k], cols[j])], y.numerator * (dr[j] // y.denominator)))
    left_rows, dl = {}, {}
    for (i, k), x in left.items():
        if k in right_rows:
            left_rows.setdefault(i, []).append((k, x))
            dl[i] = lcm(dl.get(i, 1), x.denominator)
    quotient = field.quotient
    out = {}
    for i, terms in left_rows.items():
        sums, di = defaultdict(int), dl[i]
        for k, x in terms:
            row, x = factor_rows[slot(rows[i], mids[k])], x.numerator * (di // x.denominator)
            for j, p, y in right_rows[k]:
                sums[j] += x * y * row[p]
        di *= df
        for j, n in sums.items():
            c = quotient(n, di * dr[j])
            if not field.is_zero(c):
                out[(i, j)] = c
    return out


def live_entries(invariant, ring, entries, rows, cols):
    """The entries {(i, j): value} coerced into the ring's field, zeros dropped.

    The one entry check of matrices, module vectors and matrix-ring
    elements: a position outside the signatures' index range, or a nonzero
    value at a slot that a None signature or ring.slot(rows[i], cols[j])
    finds dead, raises ValidationError under the caller's invariant name.
    """
    field, m, n = ring.field, len(rows), len(cols)
    out = {}
    for (i, j), raw in dict(entries).items():
        if not (0 <= i < m and 0 <= j < n):
            raise ValidationError(invariant, f"entry position ({i},{j}) outside a {m}x{n} index range")
        c = field.coerce(raw)
        if field.is_zero(c):
            continue
        row, col = rows[i], cols[j]
        if row is None or col is None or ring.slot(row, col) is None:
            raise ValidationError(invariant, f"slot ({i},{j}) has no degree in the support; its entry must be zero")
        out[(i, j)] = c
    return out


class HomMatrix:
    """An element of M_{m x n}(D)[row_sig][col_sig]."""

    def __init__(self, ring, row_sig, col_sig, entries=None):
        self.ring = ring
        self.row_sig = tuple(row_sig)
        self.col_sig = tuple(col_sig)
        g = ring.groupoid
        for a in self.row_sig + self.col_sig:
            if not g.contains(a):
                raise ValidationError("matrix.signature", f"{a} is not a morphism of the grading groupoid")
        self.entries = live_entries("matrix.entry_slot", ring, entries or {}, self.row_sig, self.col_sig)

    @classmethod
    def _trusted(cls, ring, row_sig, col_sig):
        """An empty matrix over signatures taken from matrices over the
        ring's groupoid, so morphisms of it by construction; built without
        the constructor's signature check."""
        out = cls.__new__(cls)
        out.ring, out.row_sig, out.col_sig, out.entries = ring, tuple(row_sig), tuple(col_sig), {}
        return out

    @property
    def shape(self):
        return (len(self.row_sig), len(self.col_sig))

    def coeff(self, i, j):
        return self.entries.get((i, j), self.ring.field.zero())

    def equal(self, other):
        """Same ring, signatures and entries.  Entries are canonical field
        elements and a zero is never stored, so comparing the entry dicts
        is exact."""
        return self.ring.same_ring(other.ring) and self.row_sig == other.row_sig and (
            self.col_sig == other.col_sig and self.entries == other.entries
        )

    # -- algebra ------------------------------------------------------------

    def _common_ring(self, other):
        if not self.ring.same_ring(other.ring):
            raise ValidationError("matrix.common_ring", "the two matrices are over different graded division rings")

    def mul(self, other):
        """Matrix product [alpha][beta] x [beta][tau] -> [alpha][tau].

        x at slot (i,k) times y at slot (k,j) contributes
        x*y*factor(deg(i,k), deg(k,j)) to slot (i,j); both degrees come
        from the signatures, and their composite is the degree of (i,j).
        """
        self._common_ring(other)
        if self.col_sig != other.row_sig:
            raise GradixError("signature mismatch: column signature must equal the other row signature")
        out = HomMatrix._trusted(self.ring, self.row_sig, other.col_sig)
        sigs = (self.row_sig, self.col_sig), (other.row_sig, other.col_sig)
        out.entries = sparse_product(self.ring, self.entries, other.entries, *sigs)
        return out

    # -- block helpers ------------------------------------------------------

    def submatrix(self, rows, cols):
        """The rows and columns at the given positions, in the given order;
        only the stored entries are walked."""
        rows, cols = list(rows), list(cols)
        out = HomMatrix._trusted(self.ring, [self.row_sig[i] for i in rows], [self.col_sig[j] for j in cols])
        row_at, col_at = {}, {}
        for a, i in enumerate(rows):
            row_at.setdefault(i, []).append(a)
        for b, j in enumerate(cols):
            col_at.setdefault(j, []).append(b)
        for (i, j), c in self.entries.items():
            for a in row_at.get(i, ()):
                for b in col_at.get(j, ()):
                    out.entries[(a, b)] = c
        return out

    def hstack(self, other):
        self._common_ring(other)
        if self.row_sig != other.row_sig:
            raise GradixError("row signature mismatch in hstack")
        out = HomMatrix._trusted(self.ring, self.row_sig, self.col_sig + other.col_sig)
        out.entries.update(self.entries)
        n = len(self.col_sig)
        for (i, j), c in other.entries.items():
            out.entries[(i, j + n)] = c
        return out

    def transpose_opposite(self):
        """The transpose over the opposite ring; anti-multiplicative."""
        op = self.ring.opposite()
        out = HomMatrix._trusted(op, self.col_sig, self.row_sig)
        for (i, j), c in self.entries.items():
            out.entries[(j, i)] = c
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, ring, sig):
        """I_{r(alpha)}: the diagonal of local units 1_{r(alpha_i)}."""
        sig = tuple(sig)
        gamma0 = set(ring.gamma0())
        for a in sig:
            if a.target not in gamma0:
                raise GradixError(f"identity needs 1_{{{a.target}}} nonzero, but {a.target} is outside gamma0")
        out = cls(ring, sig, sig)
        for i in range(len(sig)):
            out.entries[(i, i)] = ring.field.one()
        return out

    def __repr__(self):
        m, n = self.shape
        return f"HomMatrix({m}x{n}, {len(self.entries)} nonzero)"
