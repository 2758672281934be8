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

A row of the worksheet is a dict of integer numerators over one row
denominator D (always 1 over F_p), and factor values come from the ring's
FactorRows.numerators over their common denominator df.  A slot's degree
is fixed by the signatures, so the product of coefficients x and y at
composable degrees d and e is x*y*factor(d, e), the factor read from d's
row at the slot position of e.  Slot degrees come from the ring's slot
table (GradedDivisionRing.slot), shared with products and entry checks,
and a pivot row's slot positions are looked up only for the columns it
holds, each once per reduction and row signature.  The pivot row is scaled to the local unit at once.  Then, for
each degree c of a transvection, the terms y_k * factor(c, slot_k) of the
pivot row and the degree c * alpha_r are formed once; every target row of
that degree must have signature c * alpha_r, and takes
N_k <- N_k * D_r * df - a * term_k on plain integers, a being its
numerator at the pivot column; over Q one gcd over
the row and its denominator follows, over F_p the row is reduced mod p in
place.  Scaling a row by a nonzero integer is left multiplication by a
central scalar of identity degree, so neither the row space nor the
signatures change, and since every step is exact, the echelon form,
pivots and signatures are those of per-entry field arithmetic.  Entries
become field elements once, at the end, as N / D.
"""

from math import gcd

from .errors import GradixError, ValidationError
from .matrices import HomMatrix

# rank_all reports rho_i as skipped for a matrix with more rows or columns
# than this; below it, rho_i is read off one extra reduction.
RHO_I_BOUND = 8


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
    above and below.  The rows are dicts from column to integer
    numerator, so an operation touches only the rows it changes.
    """
    ring = matrix.ring
    g, field = ring.groupoid, ring.field
    pos, _, numerators, df = ring.factor_rows()
    p = field.p if field.kind == "Fp" else None
    m, n = matrix.shape
    row_sig, col_sig = list(matrix.row_sig), matrix.col_sig
    cells = [[] for _ in row_sig]
    for (i, j), c in matrix.entries.items():
        cells[i].append((j, c))
    rows, dens = [], []
    for cell in cells:
        nums, d = field.integers([c for _, c in cell])
        rows.append({j: x for (j, _), x in zip(cell, nums)})
        dens.append(d)
    slots = {}

    def slot_positions(alpha, row):
        """Column k -> the position of the slot degree alpha * beta_k^-1,
        for the columns k that the row holds; each position is looked up
        once per reduction and signature."""
        at = slots.setdefault(alpha, {})
        for k in row:
            if k not in at:
                at[k] = pos.get(ring.slot(alpha, col_sig[k]))
        return at

    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if col in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        dens[r], dens[pivot_row] = dens[pivot_row], dens[r]
        row_sig[r], row_sig[pivot_row] = row_sig[pivot_row], row_sig[r]
        pivot_deg = ring.slot(row_sig[r], col_sig[col])
        x = rows[r][col]
        if not (g.is_identity(pivot_deg) and x == dens[r]):
            # left-multiply by u_inv / (x factor(pivot_deg, inv)), inv =
            # pivot_deg^-1: entry k becomes N_k factor(inv, slot_k) over
            # x factor(pivot_deg, inv) (D and df cancel), and the signature
            # inv alpha_r = beta_col
            inv_deg = g.inverse(pivot_deg)
            f, at = numerators[inv_deg], slot_positions(row_sig[r], rows[r])
            d = x * numerators[pivot_deg][pos[inv_deg]]
            if p is None:
                row = {k: y * f[at[k]] for k, y in rows[r].items()}
                dens[r] = _lowest_terms(row, d)
            else:
                c = pow(d, -1, p)
                row = {k: y * f[at[k]] * c % p for k, y in rows[r].items()}
            rows[r], row_sig[r] = row, col_sig[col]
        pivot, dr = rows[r], dens[r]
        at = slot_positions(row_sig[r], pivot)
        scale = dr * df
        terms = {}
        for i in range(m):
            row = rows[i]
            if i == r or col not in row:
                continue
            # row_i -= a*row_r for a = its entry at col, of degree alpha_i alpha_r^-1
            c_deg = ring.slot(row_sig[i], col_sig[col])
            if c_deg not in terms:
                f = numerators[c_deg]
                if p is None:
                    t = [(k, y * f[at[k]]) for k, y in pivot.items()]
                else:
                    t = [(k, y * f[at[k]] % p) for k, y in pivot.items()]
                terms[c_deg] = g.compose(c_deg, row_sig[r]), t
            carried, t = terms[c_deg]
            if carried != row_sig[i]:
                raise GradixError("internal error: a transvection degree does not carry the pivot row to its target")
            a = row[col]
            if p is None:
                if scale != 1:
                    for k in row:
                        row[k] *= scale
                for k, y in t:
                    v = row.get(k, 0) - a * y
                    if v:
                        row[k] = v
                    else:
                        del row[k]
                dens[i] = _lowest_terms(row, dens[i] * scale)
            else:
                for k, y in t:
                    v = (row.get(k, 0) - a * y) % p
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    quotient = field.quotient
    echelon = HomMatrix._trusted(ring, row_sig, col_sig)
    echelon.entries = {(i, k): quotient(y, dens[i]) for i, row in enumerate(rows) for k, y in row.items()}
    return Reduction(echelon, pivots)


def _lowest_terms(row, d):
    """Divide the integer row and its denominator d != 0 in place by their
    gcd, signed so that the denominator comes out positive; returns it."""
    c = gcd(d, *row.values())
    if d < 0:
        c = -c
    if c != 1:
        for k in row:
            row[k] //= c
    return d // c


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


def rank_all(matrix):
    """All four ranks of a matrix over a graded division ring.

    Row rank by reduction, column rank by reducing the transpose over the
    opposite ring, inner rank from the factorization A = B*C with B the
    pivot columns of A and C the pivot rows of the echelon form (a pivot
    row is normalized to the signature of its pivot column, so B*C is
    defined).  The witness checks that C's pivot columns are exactly the
    local units, so that B*C equals B, A's pivot columns, there; only the
    other columns need a product, and a matrix of full column rank needs
    none.  The invertible-submatrix rank comes from the pivot
    minor: the pivot columns of the reduction are independent columns of
    A, those of the transposed reduction independent rows, so the minor
    on them is invertible when the ranks agree, and its rank is rho_i.
    A matrix with more than RHO_I_BOUND rows or columns skips rho_i.
    """
    red = row_reduce(matrix)
    rho_r = red.rank
    red_op = row_reduce(matrix.transpose_opposite())
    rho_c = red_op.rank

    m, n = matrix.shape
    cols = [j for (_, j) in red.pivots]
    b = matrix.submatrix(range(m), cols)
    c = red.echelon.submatrix([i for (i, _) in red.pivots], range(n))
    units = c.submatrix(range(rho_r), cols)
    one = matrix.ring.field.one()
    if units.row_sig != units.col_sig or units.entries != {(t, t): one for t in range(rho_r)}:
        raise GradixError("internal error: a pivot column of the factorization witness is not a local unit")
    rest = sorted(set(range(n)).difference(cols))
    if rest and not b.mul(c.submatrix(range(rho_r), rest)).equal(matrix.submatrix(range(m), rest)):
        raise GradixError("internal error: factorization witness failed to reproduce the matrix")
    rho = rho_r

    skipped = max(matrix.shape) > RHO_I_BOUND
    rho_i = None
    if not skipped:
        minor = matrix.submatrix([j for (_, j) in red_op.pivots], cols)
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
    the left block is I and the right block B is the inverse.

    One exact product, A*B = I_{r(alpha)}, verifies B on both sides.
    Every target lies in gamma0, so each summand D(alpha_i) and D(beta_j)
    of the two free modules is nonzero, and it is graded-simple, because
    every nonzero homogeneous element of a graded division ring is
    invertible.  Both free modules therefore have length n, which is well
    defined by the graded Jordan-Hoelder theorem (Nastasescu and Van
    Oystaeyen, Methods of Graded Rings, 2004).  A*B = I makes A a split
    epimorphism between them with section B, so the kernel of A is a
    summand of length n - n = 0.  Then A is an isomorphism and B = A^-1,
    so B*A = I_{r(beta)} holds as well.
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
    if not matrix.mul(inverse).equal(HomMatrix.identity(matrix.ring, matrix.row_sig)):
        raise GradixError("internal error: reduced right block is not an inverse")
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
    x = HomMatrix._trusted(matrix.ring, matrix.col_sig, rhs.col_sig)
    for (row, col) in red.pivots:
        c = red.echelon.coeff(row, n)
        if not matrix.ring.field.is_zero(c):
            x.entries[(col, 0)] = c
    if not matrix.mul(x).equal(rhs):
        raise GradixError("internal error: computed solution failed to verify")
    return x
