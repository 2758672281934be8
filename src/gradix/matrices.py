"""Rectangular matrices of homogeneous elements over a graded division ring.

A matrix in M_{m x n}(D)[alpha][beta] has its (i,j) slot pinned to the
degree alpha_i * beta_j^-1.  A slot is alive when that composition is
defined and lies in the support of D; entries elsewhere are forced to
zero.  That rule is coded once, as GradedDivisionRing.slot, which keeps
one slot table per ring: a pair of signature morphisms is composed the
first time any matrix over the ring asks for it, and products,
elimination and the entry checks all read the same table.  live_entries
is the one entry check of hom matrices, module vectors and matrix-ring
elements.
Since components are one-dimensional, an entry is stored as a bare
field coefficient, and the degree bookkeeping lives entirely in the two
signatures.

Products of compatible matrices are always degree-coherent: the middle
signature cancels, so [alpha][beta] x [beta][tau] lands in [alpha][tau]
with no cross terms.  sparse_product, shared with matrix-ring products,
computes them on integers: both coefficient tables and the ring's factor
rows are put over their common denominators (d = 1 over F_p), each term
is a product of three integers with the factor read from the left
degree's row at the right degree's slot position, and each output entry
is reduced once, mod p or to a Fraction.  Entries are therefore always
canonical field elements and zeros are never stored, which lets equal
compare entry dicts.
"""

from collections import defaultdict

from .errors import GradixError, ValidationError


def sparse_product(ring, left, right, left_slot, right_slot):
    """The product of coefficient tables {(i, k): x} and {(k, j): y}: each
    x*y*factor(left_slot(i, k), right_slot(k, j)) is added at (i, j), on
    integers over the common denominators, and each sum is reduced once; a
    zero sum is never stored.
    """
    field = ring.field
    pos, _, factor_rows, df = ring.factor_rows()
    xs, dl = field.integers(list(left.values()))
    ys, dr = field.integers(list(right.values()))
    right_rows = {}
    for (k, j), y in zip(right, ys):
        right_rows.setdefault(k, []).append((j, pos[right_slot(k, j)], y))
    left_rows = {}
    for (i, k), x in zip(left, xs):
        if k in right_rows:
            left_rows.setdefault(i, []).append((k, x))
    quotient, d = field.quotient, dl * dr * df
    out = {}
    for i, terms in left_rows.items():
        sums = defaultdict(int)
        for k, x in terms:
            row = factor_rows[left_slot(i, k)]
            for j, p, y in right_rows[k]:
                sums[j] += x * y * row[p]
        for j, n in sums.items():
            c = quotient(n, d)
            if not field.is_zero(c):
                out[(i, j)] = c
    return out


def live_entries(invariant, field, entries, shape, slot_degree):
    """The entries {(i, j): value} coerced into the field, zeros dropped.

    The one entry check of matrices, module vectors and matrix-ring
    elements: a position outside ``shape``, or a nonzero value at a slot
    that ``slot_degree(i, j)`` finds dead, raises ValidationError under
    the caller's invariant name.
    """
    m, n = shape
    out = {}
    for (i, j), raw in dict(entries).items():
        if not (0 <= i < m and 0 <= j < n):
            raise ValidationError(invariant, f"entry position ({i},{j}) outside a {m}x{n} index range")
        c = field.coerce(raw)
        if field.is_zero(c):
            continue
        if slot_degree(i, j) is None:
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
        self.entries = live_entries("matrix.entry_slot", ring.field, entries or {}, self.shape, self.slot_degree)

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

    def slot_degree(self, i, j):
        """The degree alpha_i beta_j^-1 of slot (i,j), or None when dead."""
        return self.ring.slot(self.row_sig[i], self.col_sig[j])

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
        out.entries = sparse_product(self.ring, self.entries, other.entries, self.slot_degree, other.slot_degree)
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
