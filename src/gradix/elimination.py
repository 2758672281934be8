"""Gaussian elimination over a graded division ring, with full bookkeeping.

Row operations act by left multiplication with elementary matrices whose
signatures track the degree changes: swapping rows swaps signature
entries, scaling row i by a homogeneous a of degree g replaces alpha_i by
g*alpha_i, and a transvection adding a*row_i to row_j is only coherent
when the coefficient's degree equals alpha_j*alpha_i^{-1} (which is
exactly what elimination produces, since the coefficient comes from a
shared column).

row_reduce drives a deterministic reduced echelon form and accumulates
both the transform U (U*A = echelon) and its inverse V, so ranks,
inverses, solvers and factorizations all fall out of one pass.

The worksheet holds bare field coefficients.  A slot's degree is fixed
by the signatures, so the product of coefficients x and y at composable
degrees d and e is the field element x*y*factor(d, e); no entry is
wrapped as a homogeneous scalar.  A row operation takes its scalar as a
(degree, coefficient) pair and is built from two kernels: _left
left-multiplies row i of M and of U, and _right right-multiplies column
i of V.  A scaling replaces the row and column with these products; a
transvection adds them into another row and column.
"""

from .errors import GradixError
from .fields import accumulate
from .matrices import HomMatrix

# rank_all reports rho_i as skipped for a matrix with more rows or columns
# than this; below it, rho_i is read off one extra reduction.
DEFAULT_RANK_BOUND = 8


def p_swap(ring, sig, i, j):
    """The permutation matrix interchanging rows i and j, in [sig'][sig]."""
    sig = list(sig)
    new_sig = list(sig)
    new_sig[i], new_sig[j] = new_sig[j], new_sig[i]
    out = HomMatrix(ring, new_sig, sig)
    one = ring.field.one()
    for k in range(len(sig)):
        if k == i:
            out._set(i, j, one)
        elif k == j:
            out._set(j, i, one)
        else:
            out._set(k, k, one)
    return out


def d_scale(ring, sig, i, a):
    """The diagonal matrix scaling row i by homogeneous a, in [sig'][sig]."""
    if a.is_zero:
        raise GradixError("row scale coefficient must be nonzero")
    if a.degree.source != sig[i].target:
        raise GradixError("scale coefficient degree does not compose with the row signature")
    g = ring.groupoid
    new_sig = list(sig)
    new_sig[i] = g.compose(a.degree, sig[i])
    out = HomMatrix(ring, new_sig, sig)
    for k in range(len(sig)):
        out._set(k, k, a.coeff if k == i else ring.field.one())
    return out


def t_add(ring, sig, i, j, a):
    """The transvection adding a*row_i to row_j (i != j), in [sig][sig].

    The coefficient degree must equal alpha_j*alpha_i^{-1}, so the row
    signature is unchanged and the retained (j,j) unit stays coherent.
    """
    if i == j:
        raise GradixError("transvection needs two distinct rows")
    if a.is_zero:
        raise GradixError("transvection coefficient must be nonzero")
    g = ring.groupoid
    if a.degree.source != sig[i].target:
        raise GradixError("transvection coefficient degree does not compose with the source row")
    if g.compose(a.degree, sig[i]) != sig[j]:
        raise GradixError("transvection coefficient degree must equal alpha_j * alpha_i^-1")
    out = HomMatrix.identity(ring, sig)
    out.entries[(j, i)] = a.coeff
    return out


class _Worksheet:
    """Mutable elimination state: the matrix M, the transform U, its inverse V.

    Invariants maintained by every operation: U*A = M and V = U^{-1}
    (so A = V*M), with U in [M.row_sig][original row_sig] and V in
    [original row_sig][M.row_sig].  M and U are lists of rows and V a list
    of columns, each a dict from index to coefficient, so an operation
    touches only the rows or columns it changes.
    """

    def __init__(self, matrix):
        self.ring = matrix.ring
        self.field = matrix.ring.field
        self.orig = matrix
        self.row_sig = list(matrix.row_sig)
        self.col_sig = matrix.col_sig
        self.m_rows = [{} for _ in self.row_sig]
        for (i, j), c in matrix.entries.items():
            self.m_rows[i][j] = c
        # U and V start as the identity I_{r(alpha)}, whose unit 1_e is zero
        # when e is outside gamma0 (such a row of A is zero anyway).
        gamma0 = set(self.ring.gamma0())
        one = self.field.one()
        self.u_rows = [{i: one} if a.target in gamma0 else {} for i, a in enumerate(self.row_sig)]
        self.v_cols = [dict(row) for row in self.u_rows]
        g = self.ring.groupoid
        self._col_inv = [g.inverse(b) for b in self.col_sig]
        self._orig_inv = [g.inverse(a) for a in matrix.row_sig]

    def _left(self, i, deg, coeff):
        """a*row_i of M and of U, for a = coeff at degree deg: one term dict each.

        Entry k of the row sits at alpha_i * inv[k], so the term is
        coeff*x*factor(deg, alpha_i*inv[k]); no term is zero.
        """
        g = self.ring.groupoid
        mul, factor = self.field.mul, self.ring.factor
        alpha = self.row_sig[i]
        return [
            {k: mul(mul(coeff, x), factor[(deg, g.compose(alpha, inv[k]))]) for k, x in row.items()}
            for row, inv in ((self.m_rows[i], self._col_inv), (self.u_rows[i], self._orig_inv))
        ]

    def _right(self, i, deg, coeff):
        """col_i*a of V, for a = coeff at degree deg; entry r sits at orig_r * alpha_i^{-1}."""
        g = self.ring.groupoid
        mul, factor = self.field.mul, self.ring.factor
        alpha_inv = g.inverse(self.row_sig[i])
        orig = self.orig.row_sig
        return {
            r: mul(mul(x, coeff), factor[(g.compose(orig[r], alpha_inv), deg)])
            for r, x in self.v_cols[i].items()
        }

    def swap(self, i, j):
        if i == j:
            return
        for lines in (self.m_rows, self.u_rows, self.v_cols):
            lines[i], lines[j] = lines[j], lines[i]
        self.row_sig[i], self.row_sig[j] = self.row_sig[j], self.row_sig[i]

    def scale(self, i, deg, coeff):
        """Multiply row i by the invertible scalar coeff at degree deg.

        M and U rows are left-multiplied by it; V's column i is
        right-multiplied by its inverse.
        """
        g, field = self.ring.groupoid, self.field
        deg_inv = g.inverse(deg)
        coeff_inv = field.inv(field.mul(coeff, self.ring.factor[(deg, deg_inv)]))
        self.m_rows[i], self.u_rows[i] = self._left(i, deg, coeff)
        self.v_cols[i] = self._right(i, deg_inv, coeff_inv)
        self.row_sig[i] = g.compose(deg, self.row_sig[i])

    def transvect(self, i, j, deg, coeff):
        """Add a*row_i to row_j for a = coeff at degree deg = alpha_j*alpha_i^{-1}."""
        field = self.field
        assert self.ring.groupoid.compose(deg, self.row_sig[i]) == self.row_sig[j]
        for dst, terms in zip((self.m_rows[j], self.u_rows[j]), self._left(i, deg, coeff)):
            for k, t in terms.items():
                accumulate(field, dst, k, t)
        # V gains the inverse column operation: col_i -= col_j * a.
        dst = self.v_cols[i]
        for r, t in self._right(j, deg, field.neg(coeff)).items():
            accumulate(field, dst, r, t)

    def matrix(self):
        out = HomMatrix(self.ring, self.row_sig, self.col_sig)
        out.entries = {(r, k): c for r, row in enumerate(self.m_rows) for k, c in row.items()}
        return out

    def transform(self):
        out = HomMatrix(self.ring, self.row_sig, self.orig.row_sig)
        out.entries = {(r, k): c for r, row in enumerate(self.u_rows) for k, c in row.items()}
        return out

    def inverse_transform(self):
        out = HomMatrix(self.ring, self.orig.row_sig, self.row_sig)
        out.entries = {(r, k): c for k, col in enumerate(self.v_cols) for r, c in col.items()}
        return out


class Reduction:
    """The result of row_reduce: echelon form, transforms and pivots."""

    def __init__(self, original, echelon, transform, inverse_transform, pivots):
        self.original = original
        self.echelon = echelon
        self.transform = transform
        self.inverse_transform = inverse_transform
        self.pivots = tuple(pivots)  # (row, column) pairs

    @property
    def rank(self):
        return len(self.pivots)


def row_reduce(matrix):
    """Deterministic reduced echelon form over a graded division ring.

    Scans columns left to right, picking in each the topmost unused
    nonzero entry as pivot, normalizes it to the local unit (the pivot
    row's signature becomes the pivot column's), and clears the column
    above and below.  Returns a Reduction with exact transforms.
    """
    ws = _Worksheet(matrix)
    ring = matrix.ring
    g, field = ring.groupoid, ring.field
    one = field.one()
    m, n = matrix.shape
    pivots = []
    r = 0
    for col in range(n):
        pivot_row = None
        for row in range(r, m):
            if col in ws.m_rows[row]:
                pivot_row = row
                break
        if pivot_row is None:
            continue
        ws.swap(r, pivot_row)
        col_inv = g.inverse(ws.col_sig[col])
        pivot_deg = g.compose(ws.row_sig[r], col_inv)
        x = ws.m_rows[r][col]
        if not (g.is_identity(pivot_deg) and field.equal(x, one)):
            inv_deg = g.inverse(pivot_deg)
            ws.scale(r, inv_deg, field.inv(field.mul(x, ring.factor[(pivot_deg, inv_deg)])))
        for row in range(m):
            if row == r or col not in ws.m_rows[row]:
                continue
            c_deg = g.compose(ws.row_sig[row], col_inv)
            ws.transvect(r, row, c_deg, field.neg(ws.m_rows[row][col]))
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    return Reduction(matrix, ws.matrix(), ws.transform(), ws.inverse_transform(), pivots)


class RankReport:
    def __init__(self, rho_r, rho_c, rho, rho_i, rho_i_skipped, factorization):
        self.rho_r = rho_r
        self.rho_c = rho_c
        self.rho = rho
        self.rho_i = rho_i
        self.rho_i_skipped = rho_i_skipped
        self.factorization = factorization  # (B, C) with A = B*C of inner size rho

    def all_equal(self):
        vals = {self.rho_r, self.rho_c, self.rho}
        if not self.rho_i_skipped:
            vals.add(self.rho_i)
        return len(vals) == 1


def rank_all(matrix, rank_bound=DEFAULT_RANK_BOUND):
    """All four ranks of a matrix over a graded division ring.

    Row rank by reduction, column rank by reducing the transpose over the
    opposite ring, inner rank from the factorization A = B*C with B the
    pivot columns of the inverse transform and C the pivot rows of the
    echelon form.  The invertible-submatrix rank comes from the pivot
    minor: the pivot columns of the reduction are independent columns of
    A, those of the transposed reduction independent rows, so the minor
    on them is invertible when the ranks agree, and its rank is rho_i.
    A matrix with more than rank_bound rows or columns skips rho_i.
    """
    red = row_reduce(matrix)
    rho_r = red.rank
    red_op = row_reduce(matrix.transpose_opposite())
    rho_c = red_op.rank

    pivot_rows = [i for (i, _) in red.pivots]
    b = red.inverse_transform.submatrix(range(matrix.shape[0]), pivot_rows)
    c = red.echelon.submatrix(pivot_rows, range(matrix.shape[1]))
    if not b.mul(c).equal(matrix):
        raise GradixError("internal error: factorization witness failed to reproduce the matrix")
    rho = rho_r

    skipped = max(matrix.shape) > rank_bound
    rho_i = None
    if not skipped:
        minor = matrix.submatrix([j for (_, j) in red_op.pivots], [j for (_, j) in red.pivots])
        rho_i = row_reduce(minor).rank

    report = RankReport(rho_r, rho_c, rho, rho_i, skipped, (b, c))
    if not report.all_equal():
        raise GradixError(
            f"rank values disagree: rho_r={rho_r}, rho_c={rho_c}, rho={rho}, "
            f"rho_i={'skipped' if skipped else rho_i}"
        )
    return report


def invert_square(matrix):
    """The two-sided inverse of a square graded matrix, or None.

    Requires a square signature whose targets all lie in gamma0.  When
    the rank is full the reduction's transform is the inverse; both
    AB = I_{r(alpha)} and BA = I_{r(beta)} are verified exactly.
    """
    m, n = matrix.shape
    if m != n:
        raise GradixError(f"inversion needs a square signature, got {m}x{n}")
    gamma0 = set(matrix.ring.gamma0())
    for a in matrix.row_sig + matrix.col_sig:
        if a.target not in gamma0:
            raise GradixError(f"signature target {a.target} is outside gamma0; its local unit is zero")
    red = row_reduce(matrix)
    if red.rank < n:
        return None
    inverse = red.transform
    left = inverse.mul(matrix)
    right = matrix.mul(inverse)
    if not left.equal(HomMatrix.identity(matrix.ring, matrix.col_sig)):
        raise GradixError("internal error: reduction transform is not a left inverse")
    if not right.equal(HomMatrix.identity(matrix.ring, matrix.row_sig)):
        raise GradixError("internal error: left inverse failed to verify on the right")
    return inverse


def solve(matrix, rhs):
    """Solve A*x = b for a homogeneous column b; None when inconsistent.

    ``rhs`` is a single-column HomMatrix in [alpha][(sigma^-1)] (entry i
    of degree alpha_i*sigma).  Returns the coefficient column x in
    [beta][(sigma^-1)], with free coordinates set to zero.  When the
    columns of A are pseudo-independent the solution is unique.
    """
    if rhs.shape[1] != 1:
        raise GradixError("right-hand side must be a single column")
    if rhs.row_sig != matrix.row_sig:
        raise GradixError("right-hand side row signature must match the matrix")
    n = matrix.shape[1]
    red = row_reduce(matrix.hstack(rhs))
    for (_, col) in red.pivots:
        if col == n:
            return None
    x = HomMatrix(matrix.ring, matrix.col_sig, rhs.col_sig)
    for (row, col) in red.pivots:
        c = red.echelon.coeff(row, n)
        if not matrix.ring.field.is_zero(c):
            x.entries[(col, 0)] = c
    if not matrix.mul(x).equal(rhs):
        raise GradixError("internal error: computed solution failed to verify")
    return x
