"""Gaussian elimination over a graded division ring.

Row operations act by left multiplication with elementary matrices whose
signatures track the degree changes: swapping rows swaps signature
entries, scaling row i by a homogeneous a of degree g replaces alpha_i by
g*alpha_i, and a transvection adding a*row_i to row_j is only coherent
when the coefficient's degree equals alpha_j*alpha_i^{-1} (which is
exactly what elimination produces, since the coefficient comes from a
shared column).

row_reduce drives a deterministic reduced echelon form R and records its
pivots; every answer is read off one such form of an augmented matrix.
Ranks come from the pivot count, the inner-rank factorization is
A = A[:, pivot columns] * R[pivot rows], the inverse is the right block
of the form of [A | I], and a solution the last column of [A | b].

Rows hold bare field coefficients.  A slot's degree is fixed by the
signatures, so the product of coefficients x and y at composable
degrees d and e is the field element x*y*factor(d, e).  A row operation
takes its scalar as a (degree, coefficient) pair: a scaling replaces the row with its left
product, a transvection adds that product into another row.  The factor
comes from the scalar degree's factor row of the ring, read at the slot
position of each entry; the positions of a row signature over the
columns are worked out once per reduction, on the first row that has it.
"""

from .errors import GradixError, ValidationError
from .fields import accumulate
from .matrices import HomMatrix

# rank_all reports rho_i as skipped for a matrix with more rows or columns
# than this; below it, rho_i is read off one extra reduction.
DEFAULT_RANK_BOUND = 8


class Reduction:
    """The result of row_reduce: the reduced echelon form and its pivots."""

    def __init__(self, echelon, pivots):
        self.echelon = echelon
        self.pivots = tuple(pivots)  # (row, column) pairs

    @property
    def rank(self):
        return len(self.pivots)


def row_reduce(matrix):
    """Deterministic reduced echelon form over a graded division ring.

    Scans columns left to right, picking in each the topmost unused
    nonzero entry as pivot, normalizes it to the local unit (the pivot
    row's signature becomes the pivot column's), and clears the column
    above and below.  The rows are dicts from column to coefficient, so
    an operation touches only the rows it changes.
    """
    ring = matrix.ring
    g, field, factor = ring.groupoid, ring.field, ring.factor
    pos, values, _, _ = ring.factor_rows()
    mul, one = field.mul, field.one()
    m, n = matrix.shape
    row_sig, col_sig = list(matrix.row_sig), matrix.col_sig
    rows = [{} for _ in row_sig]
    for (i, j), c in matrix.entries.items():
        rows[i][j] = c
    slots = {}

    def slot_positions(alpha):
        """Per column k, the position of the slot degree alpha * beta_k^-1
        (None when dead: pos holds only support degrees), built on the
        first row of signature alpha."""
        at = slots.get(alpha)
        if at is None:
            at = slots[alpha] = [pos.get(g.compose_inverse(alpha, b)) for b in col_sig]
        return at

    def left(i, deg, coeff):
        """a*row_i for a = coeff at degree deg as a term dict.

        Entry k of the row sits at slot(alpha_i, beta_k), so the term is
        x*coeff*factor(deg, slot(alpha_i, beta_k)), the factor read from
        deg's factor row at that slot's position; coeff*factor is formed
        once per position.  No term is zero.
        """
        row, at = values[deg], slot_positions(row_sig[i])
        scaled = [None] * len(row)
        out = {}
        for k, x in rows[i].items():
            p = at[k]
            c = scaled[p]
            if c is None:
                c = scaled[p] = mul(coeff, row[p])
            out[k] = mul(x, c)
        return out

    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((row for row in range(r, m) if col in rows[row]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row_sig[r], row_sig[pivot_row] = row_sig[pivot_row], row_sig[r]
        pivot_deg = ring.slot(row_sig[r], col_sig[col])
        x = rows[r][col]
        if not (g.is_identity(pivot_deg) and field.equal(x, one)):
            # scale the pivot row by the inverse of its pivot entry; its
            # signature becomes pivot_deg^-1 alpha_r = beta_col
            inv_deg = g.inverse(pivot_deg)
            rows[r] = left(r, inv_deg, field.inv(mul(x, factor[(pivot_deg, inv_deg)])))
            row_sig[r] = col_sig[col]
        for row in range(m):
            if row == r or col not in rows[row]:
                continue
            # add a*row_r to this row, a of degree alpha_row * alpha_r^{-1}
            c_deg = ring.slot(row_sig[row], col_sig[col])
            assert g.compose(c_deg, row_sig[r]) == row_sig[row]
            for k, t in left(r, c_deg, field.neg(rows[row][col])).items():
                accumulate(field, rows[row], k, t)
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    echelon = HomMatrix(ring, row_sig, col_sig)
    echelon.entries = {(i, k): c for i, row in enumerate(rows) for k, c in row.items()}
    return Reduction(echelon, pivots)


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
    pivot columns of A and C the pivot rows of the echelon form (a pivot
    row is normalized to the signature of its pivot column, so B*C is
    defined).  The invertible-submatrix rank comes from the pivot
    minor: the pivot columns of the reduction are independent columns of
    A, those of the transposed reduction independent rows, so the minor
    on them is invertible when the ranks agree, and its rank is rho_i.
    A matrix with more than rank_bound rows or columns skips rho_i.
    """
    red = row_reduce(matrix)
    rho_r = red.rank
    red_op = row_reduce(matrix.transpose_opposite())
    rho_c = red_op.rank

    b = matrix.submatrix(range(matrix.shape[0]), [j for (_, j) in red.pivots])
    c = red.echelon.submatrix([i for (i, _) in red.pivots], range(matrix.shape[1]))
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

    Requires a square signature whose targets all lie in gamma0.  Reduces
    [A | I]: a pivot in the right block means A is singular; otherwise
    the left block is I and the right block is the inverse.  Both
    AB = I_{r(alpha)} and BA = I_{r(beta)} are verified exactly.
    """
    m, n = matrix.shape
    if m != n:
        raise ValidationError("invert.square", f"inversion needs a square signature, got {m}x{n}")
    gamma0 = set(matrix.ring.gamma0())
    for a in matrix.row_sig + matrix.col_sig:
        if a.target not in gamma0:
            raise ValidationError(
                "invert.gamma0", f"signature target {a.target} is outside gamma0; its local unit is zero"
            )
    red = row_reduce(matrix.hstack(HomMatrix.identity(matrix.ring, matrix.row_sig)))
    if any(col >= n for (_, col) in red.pivots):
        return None
    inverse = red.echelon.submatrix(range(n), range(n, 2 * n))
    left = inverse.mul(matrix)
    right = matrix.mul(inverse)
    if not left.equal(HomMatrix.identity(matrix.ring, matrix.col_sig)):
        raise GradixError("internal error: reduced right block is not a left inverse")
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
        raise ValidationError("solve.rhs_column", "right-hand side must be a single column")
    if rhs.row_sig != matrix.row_sig:
        raise ValidationError("solve.rhs_signature", "right-hand side row signature must match the matrix")
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
