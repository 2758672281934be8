"""Rectangular matrices of homogeneous elements over a graded division ring.

A matrix in M_{m x n}(D)[alpha][beta] has its (i,j) slot pinned to the
degree alpha_i * beta_j^-1.  A slot is alive when that composition is
defined and lies in the support of D; entries elsewhere are forced to
zero.  Since components are one-dimensional, an entry is stored as a bare
field coefficient, and the degree bookkeeping lives entirely in the two
signatures.

Products of compatible matrices are always degree-coherent: the middle
signature cancels, so [alpha][beta] x [beta][tau] lands in [alpha][tau]
with no cross terms.
"""

from .errors import GradixError, ValidationError
from .fields import accumulate


def sparse_product(ring, left, right, left_slot, right_slot):
    """The product of coefficient tables {(i, k): x} and {(k, j): y}: each
    x*y*factor(left_slot(i, k), right_slot(k, j)) is added at (i, j)."""
    field, factor = ring.field, ring.factor
    right_rows = {}
    for (k, j), y in right.items():
        right_rows.setdefault(k, []).append((j, right_slot(k, j), y))
    out = {}
    for (i, k), x in left.items():
        row = right_rows.get(k)
        if row is None:
            continue
        dx = left_slot(i, k)
        for j, dy, y in row:
            accumulate(field, out, (i, j), field.mul(field.mul(x, y), factor[(dx, dy)]))
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
        self.entries = {}
        if entries:
            for (i, j), c in entries.items():
                self._set(i, j, c)

    def _set(self, i, j, coeff):
        if not (0 <= i < len(self.row_sig) and 0 <= j < len(self.col_sig)):
            raise GradixError(f"entry position ({i},{j}) outside a {self.shape} matrix")
        coeff = self.ring.field.coerce(coeff)
        if self.ring.field.is_zero(coeff):
            self.entries.pop((i, j), None)
            return
        if self.slot_degree(i, j) is None:
            raise ValidationError(
                "matrix.entry_slot",
                f"slot ({i},{j}) has no degree in the support (row {self.row_sig[i].key()}, "
                f"column {self.col_sig[j].key()}); its entry must be zero",
            )
        self.entries[(i, j)] = coeff

    @property
    def shape(self):
        return (len(self.row_sig), len(self.col_sig))

    def slot_degree(self, i, j):
        """The degree alpha_i beta_j^-1 of slot (i,j), or None when dead."""
        g = self.ring.groupoid
        a, b = self.row_sig[i], self.col_sig[j]
        if a.block != b.block or a.source != b.source:
            return None
        d = g.compose(a, g.inverse(b))
        return d if d in self.ring.support else None

    def entry(self, i, j):
        """The (i,j) entry as a homogeneous scalar."""
        c = self.entries.get((i, j))
        if c is None:
            return self.ring.zero()
        return self.ring.scalar(self.slot_degree(i, j), c)

    def coeff(self, i, j):
        return self.entries.get((i, j), self.ring.field.zero())

    def is_zero(self):
        return not self.entries

    def row_is_zero(self, i):
        return all(r != i for (r, _) in self.entries)

    def equal(self, other):
        same_ring = self.ring is other.ring or (
            self.ring.support == other.ring.support and self.ring.factor == other.ring.factor
        )
        return same_ring and self.row_sig == other.row_sig and self.col_sig == other.col_sig and all(
            self.ring.field.equal(self.coeff(i, j), other.coeff(i, j))
            for i in range(len(self.row_sig))
            for j in range(len(self.col_sig))
        )

    # -- algebra ------------------------------------------------------------

    def add(self, other):
        if self.row_sig != other.row_sig or self.col_sig != other.col_sig:
            raise GradixError("signature mismatch in matrix addition")
        out = HomMatrix(self.ring, self.row_sig, self.col_sig)
        out.entries = dict(self.entries)
        for key, c in other.entries.items():
            accumulate(self.ring.field, out.entries, key, c)
        return out

    def mul(self, other):
        """Matrix product [alpha][beta] x [beta][tau] -> [alpha][tau].

        x at slot (i,k) times y at slot (k,j) contributes
        x*y*factor(deg(i,k), deg(k,j)) to slot (i,j); both degrees come
        from the signatures, and their composite is the degree of (i,j).
        """
        if self.col_sig != other.row_sig:
            raise GradixError("signature mismatch: column signature must equal the other row signature")
        out = HomMatrix(self.ring, self.row_sig, other.col_sig)
        out.entries = sparse_product(self.ring, self.entries, other.entries, self.slot_degree, other.slot_degree)
        return out

    def scale_left(self, x):
        """Left-multiply every entry by a homogeneous scalar (shifts every row degree)."""
        g = self.ring.groupoid
        if x.is_zero:
            raise GradixError("scaling by zero loses the signature")
        new_rows = []
        for a in self.row_sig:
            if x.degree.source != a.target:
                raise GradixError("scalar degree does not compose with a row signature entry")
            new_rows.append(g.compose(x.degree, a))
        out = HomMatrix(self.ring, new_rows, self.col_sig)
        field, factor = self.ring.field, self.ring.factor
        for (i, j), c in self.entries.items():
            out.entries[(i, j)] = field.mul(field.mul(x.coeff, c), factor[(x.degree, self.slot_degree(i, j))])
        return out

    # -- block helpers ------------------------------------------------------

    def submatrix(self, rows, cols):
        rows, cols = list(rows), list(cols)
        out = HomMatrix(self.ring, [self.row_sig[i] for i in rows], [self.col_sig[j] for j in cols])
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                c = self.coeff(i, j)
                if not self.ring.field.is_zero(c):
                    out.entries[(a, b)] = c
        return out

    def hstack(self, other):
        if self.row_sig != other.row_sig:
            raise GradixError("row signature mismatch in hstack")
        out = HomMatrix(self.ring, self.row_sig, self.col_sig + other.col_sig)
        out.entries.update(self.entries)
        n = len(self.col_sig)
        for (i, j), c in other.entries.items():
            out.entries[(i, j + n)] = c
        return out

    def column(self, j):
        return self.submatrix(range(len(self.row_sig)), [j])

    def transpose_opposite(self):
        """The transpose over the opposite ring; anti-multiplicative."""
        op = self.ring.opposite()
        out = HomMatrix(op, self.col_sig, self.row_sig)
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
