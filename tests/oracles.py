"""Independent oracles and random generators for the acceptance suite.

The invertibility oracle below never touches the elimination module.  A
square graded matrix is invertible exactly when the bilinear system
S*T = I, T*S = I has a solution in the unknown entries of T, and that
system is linear over the ground field.  We build it slot by slot and
solve it with a plain dense Gauss-Jordan written out here, so a bug in
the library's echelon code cannot vouch for itself.
"""

import importlib.util
import os
import random
import sys
from fractions import Fraction
from itertools import product

from gradix.division import GradedDivisionRing
from gradix.fields import PrimeField, Rationals
from gradix.groupoids import ConnectedBlock, FiniteGroup, FiniteGroupoid, Morphism
from gradix.matrices import HomMatrix
from gradix.matrix_ring import MatrixRing


def plus(field, a, b):
    """a + b from the definition of the field: over Q, or mod p over F_p."""
    return a + b if field.kind == "Q" else (a + b) % field.p


def negate(field, a):
    """-a from the definition of the field."""
    return -a if field.kind == "Q" else -a % field.p


def field_solve(field, rows, rhs):
    """Solve rows * x = rhs over the field; a solution list or None.

    Free variables are set to zero.  Plain dense Gauss-Jordan on the
    augmented matrix.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivot_of = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if not field.is_zero(aug[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(inv, v) for v in aug[r]]
        for i in range(m):
            if i != r and not field.is_zero(aug[i][c]):
                f = aug[i][c]
                aug[i] = [plus(field, a, negate(field, field.mul(f, b))) for a, b in zip(aug[i], aug[r])]
        pivot_of.append(c)
        r += 1
    for i in range(r, m):
        if not field.is_zero(aug[i][n]):
            return None
    x = [field.zero() for _ in range(n)]
    for row, c in enumerate(pivot_of):
        x[c] = aug[row][n]
    return x


def row_reduce_by_field(matrix):
    """The reduced echelon form by per-entry field arithmetic, as
    elimination.row_reduce computed it before its rows went over to integer
    numerators: the same pivot choice and operation order, every entry a
    field element, every factor read off ring.factor.  Returns the echelon
    entries {(i, k): c}, the (row, column) pivots and the row signature.
    """
    ring = matrix.ring
    g, field, factor = ring.groupoid, ring.field, ring.factor
    m, n = matrix.shape
    row_sig, col_sig = list(matrix.row_sig), matrix.col_sig
    rows = [{} for _ in row_sig]
    for (i, j), c in matrix.entries.items():
        rows[i][j] = c

    def left(i, deg, coeff):
        """a*row_i for a = coeff at degree deg: entry k is x*coeff*factor(deg, alpha_i beta_k^-1)."""
        alpha = row_sig[i]
        return {
            k: field.mul(x, field.mul(coeff, factor[(deg, g.compose(alpha, g.inverse(col_sig[k])))]))
            for k, x in rows[i].items()
        }

    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((row for row in range(r, m) if col in rows[row]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row_sig[r], row_sig[pivot_row] = row_sig[pivot_row], row_sig[r]
        pivot_deg = g.compose(row_sig[r], g.inverse(col_sig[col]))
        x = rows[r][col]
        if not (g.is_identity(pivot_deg) and field.equal(x, field.one())):
            inv_deg = g.inverse(pivot_deg)
            rows[r] = left(r, inv_deg, field.inv(field.mul(x, factor[(pivot_deg, inv_deg)])))
            row_sig[r] = col_sig[col]
        for row in range(m):
            if row == r or col not in rows[row]:
                continue
            c_deg = g.compose(row_sig[row], g.inverse(col_sig[col]))
            assert g.compose(c_deg, row_sig[r]) == row_sig[row]
            for k, t in left(r, c_deg, negate(field, rows[row][col])).items():
                total = plus(field, rows[row].get(k, field.zero()), t)
                if field.is_zero(total):
                    rows[row].pop(k, None)
                else:
                    rows[row][k] = total
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    return {(i, k): c for i, row in enumerate(rows) for k, c in row.items()}, pivots, row_sig


def times(ring, x, y):
    """The product of two (degree, coeff) pairs from the definition
    u_s u_t = factor(s, t) u_st, read off ring.factor; None when the
    degrees do not compose.  No arithmetic of the ring itself is used."""
    (s, a), (t, b) = x, y
    g, field = ring.groupoid, ring.field
    if not g.is_composable(s, t):
        return None
    return g.compose(s, t), field.mul(field.mul(a, b), ring.factor[(s, t)])


def inverse(ring, x):
    """The inverse of a (degree, coeff) pair (s, a): (s^-1, 1 / (a factor(s, s^-1)))."""
    s, a = x
    s_inv = ring.groupoid.inverse(s)
    return s_inv, ring.field.inv(ring.field.mul(a, ring.factor[(s, s_inv)]))


def graded_product(a, b):
    """The product a*b from the definition (ab)_ij = sum_k a_ik b_kj.

    Every term is a coefficient product times the factor of the two slot
    degrees alpha_i beta_k^-1 and beta_k tau_j^-1, read off the signatures
    and ring.factor, so this shares no code with the coefficient kernel of
    HomMatrix.mul or with the ring's arithmetic.  Every term must sit at the
    degree its slot (i, j) is pinned to.
    """
    ring = a.ring
    g, field = ring.groupoid, ring.field
    assert a.col_sig == b.row_sig
    entries = {}
    for i in range(len(a.row_sig)):
        for j in range(len(b.col_sig)):
            total = field.zero()
            for k in range(len(a.col_sig)):
                x, y = a.entries.get((i, k)), b.entries.get((k, j))
                if x is None or y is None:
                    continue
                s = g.compose(a.row_sig[i], g.inverse(a.col_sig[k]))
                t = g.compose(b.row_sig[k], g.inverse(b.col_sig[j]))
                degree, term = times(ring, (s, x), (t, y))
                assert degree == g.compose(a.row_sig[i], g.inverse(b.col_sig[j]))
                total = plus(field, total, term)
            if not field.is_zero(total):
                entries[(i, j)] = total
    return HomMatrix(ring, a.row_sig, b.col_sig, entries)


def _element_pair(x, i, j):
    """Entry (i, j) of a matrix-ring element as a (degree, coeff) pair at
    delta_i gamma sigma_j^-1, the signatures of i and j at r(gamma) and
    d(gamma), or None when the entry is zero."""
    g = x.parent.ring.groupoid
    c = x.entries.get((i, j))
    if c is None:
        return None
    delta = next(s for s in x.parent.signatures[i] if s.source == x.degree.target)
    sigma = next(s for s in x.parent.signatures[j] if s.source == x.degree.source)
    return g.compose(g.compose(delta, x.degree), g.inverse(sigma)), c


def matrix_ring_product(x, y):
    """The product x*y of matrix-ring elements from (xy)_ij = sum_k x_ik y_kj.

    Every term is one product of (degree, coeff) pairs by ``times``, as in
    graded_product, so this shares no code with MatrixRingElement.mul.
    """
    p = x.parent
    ring, g = p.ring, p.ring.groupoid
    field = ring.field
    if x.is_zero or y.is_zero or not g.is_composable(x.degree, y.degree):
        return p.zero()
    entries = {}
    for i in range(p.size):
        for j in range(p.size):
            total = field.zero()
            for k in range(p.size):
                left, right = _element_pair(x, i, k), _element_pair(y, k, j)
                product = None if left is None or right is None else times(ring, left, right)
                if product is not None:
                    total = plus(field, total, product[1])
            if not field.is_zero(total):
                entries[(i, j)] = total
    return p.element(g.compose(x.degree, y.degree), entries)


def component_dimension_by_slots(ring, gamma):
    """Dimension of a matrix ring's component at gamma, by scanning every
    index pair: (i, j) counts when both signature sets have a morphism out
    of the right object and delta*gamma*sigma^-1 lies in the support."""
    g, support = ring.ring.groupoid, ring.ring.support
    count = 0
    for sig_i in ring.signatures:
        for sig_j in ring.signatures:
            deltas = [s for s in sig_i if s.source == gamma.target]
            sigmas = [s for s in sig_j if s.source == gamma.source]
            if deltas and sigmas and g.compose(g.compose(deltas[0], gamma), g.inverse(sigmas[0])) in support:
                count += 1
    return count


def _compose_vectors(field, compose, x, y, a, b, c):
    """The composite of x over the (a, b) basis with y over the (b, c) basis,
    term by term from the structure constants, zero coefficients dropped."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, ck in compose.get(((a, b, i), (b, c, j)), {}).items():
                out[k] = plus(field, out.get(k, field.zero()), field.mul(field.mul(xi, yj), ck))
    return {k: v for k, v in out.items() if not field.is_zero(v)}


def associativity_failure(field, hom_dims, compose):
    """The first basis triple (u, v, w), in the order hom pair, hom pair,
    hom pair, then basis indices, whose two bracketings differ, or None.

    Every composable triple of basis morphisms is compared, zero or not.
    ``hom_dims`` lists the nonzero hom dimensions in their given order and
    ``compose`` holds the structure constants, as in RawCategory.
    """
    one = field.one()
    pairs = list(hom_dims)
    for (a, b) in pairs:
        for (b2, c) in pairs:
            for (c2, d) in pairs:
                if b2 != b or c2 != c:
                    continue
                for i, j, k in product(range(hom_dims[(a, b)]), range(hom_dims[(b, c)]), range(hom_dims[(c, d)])):
                    uv = compose.get(((a, b, i), (b, c, j)), {})
                    vw = compose.get(((b, c, j), (c, d, k)), {})
                    left = _compose_vectors(field, compose, uv, {k: one}, a, c, d)
                    right = _compose_vectors(field, compose, {i: one}, vw, a, b, d)
                    if left != right:
                        return (a, b, i), (b, c, j), (c, d, k)
    return None


def multiplicity_flags(dims):
    """The flags of a matrix-form category from their definitions, for
    ``dims`` = {object: [n(j, A) for each block j]}: simple artinian when
    exactly one block is nonzero, all functors free when each nonzero block
    has an object where it alone has one index, division when every object
    has total multiplicity at most one.  Computed as bench/gen.py's
    ``Category.flags`` computes them, with no run table."""
    rows = list(dims.values())
    active = [j for j in range(len(rows[0])) if any(row[j] for row in rows)]
    return {
        "simple_artinian": len(active) == 1,
        "all_functors_free": all(any(row[j] == 1 and sum(row) == 1 for row in rows) for j in active),
        "division": all(sum(row) <= 1 for row in rows),
    }


def _inverse_shape(matrix):
    """The zero matrix of the shape a two-sided inverse would have."""
    return HomMatrix(matrix.ring, matrix.col_sig, matrix.row_sig)


def _product_equations(matrix, shape, flip):
    """Linear equations stating matrix*T = I (flip=False) or T*matrix = I.

    Unknowns are the live slots of ``shape``; the equation list pairs
    coefficient rows with their right-hand sides.
    """
    ring = matrix.ring
    field = ring.field
    k = matrix.shape[0]
    slots = [
        (a, b)
        for a in range(k)
        for b in range(k)
        if shape.slot_degree(a, b) is not None
    ]
    index = {s: p for p, s in enumerate(slots)}
    rows = []
    rhs = []
    for i in range(k):
        for j in range(k):
            coeffs = [field.zero()] * len(slots)
            for a in range(k):
                if flip:
                    left_deg = shape.slot_degree(i, a)
                    right_deg = matrix.slot_degree(a, j)
                    if left_deg is None or right_deg is None:
                        continue
                    beta = ring.factor_value(left_deg, right_deg)
                    pos = index[(i, a)]
                    term = field.mul(matrix.coeff(a, j), beta)
                else:
                    left_deg = matrix.slot_degree(i, a)
                    right_deg = shape.slot_degree(a, j)
                    if left_deg is None or right_deg is None:
                        continue
                    beta = ring.factor_value(left_deg, right_deg)
                    pos = index[(a, j)]
                    term = field.mul(matrix.coeff(i, a), beta)
                coeffs[pos] = plus(field, coeffs[pos], term)
            rows.append(coeffs)
            rhs.append(field.one() if i == j else field.zero())
    return slots, rows, rhs


def right_inverse(matrix):
    """A matrix T with matrix*T = I, via the field-linear system, or None."""
    if matrix.shape[0] != matrix.shape[1]:
        return None
    shape = _inverse_shape(matrix)
    slots, rows, rhs = _product_equations(matrix, shape, flip=False)
    x = field_solve(matrix.ring.field, rows, rhs)
    if x is None:
        return None
    entries = {
        slot: v for slot, v in zip(slots, x) if not matrix.ring.field.is_zero(v)
    }
    return HomMatrix(matrix.ring, matrix.col_sig, matrix.row_sig, entries)


def is_invertible(matrix):
    """Two-sided invertibility decided by one joint linear system."""
    if matrix.shape[0] != matrix.shape[1]:
        return False
    shape = _inverse_shape(matrix)
    slots, rows, rhs = _product_equations(matrix, shape, flip=False)
    _, rows2, rhs2 = _product_equations(matrix, shape, flip=True)
    return field_solve(matrix.ring.field, rows + rows2, rhs + rhs2) is not None


def is_two_sided_inverse(matrix, candidate):
    """Both products of matrix and candidate, from the definition, are the
    identities I_{r(alpha)} and I_{r(beta)}: the two-sided check that
    invert_square's single product stands in for."""
    one = matrix.ring.field.one()
    if candidate.row_sig != matrix.col_sig or candidate.col_sig != matrix.row_sig:
        return False
    return all(
        graded_product(x, y).entries == {(i, i): one for i in range(len(x.row_sig))}
        for x, y in ((matrix, candidate), (candidate, matrix))
    )


def minor_rank(matrix):
    """Largest size of an invertible square submatrix, by full enumeration."""
    from itertools import combinations

    m, n = matrix.shape
    for size in range(min(m, n), 0, -1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                if is_invertible(matrix.submatrix(rows, cols)):
                    return size
    return 0


def first_scan_basis(module, vectors):
    """The vectors kept by a left-to-right scan: v is kept when it raises the
    minor rank of the kept family's column matrix."""
    kept, rank = [], 0
    for v in vectors:
        r = minor_rank(module.columns(kept + [v]))
        if r > rank:
            kept.append(v)
            rank = r
    return kept


# -- isomorphism certificates ------------------------------------------------


def _single_entry_generators(block):
    g = block.ring.groupoid
    return [
        block.element(gamma, {(i, j): 1})
        for i in range(block.size)
        for j in range(block.size)
        for gamma in g.morphisms()
        if block.slot_degree(i, j, gamma) is not None
    ]


def certificate_is_isomorphism(cert):
    """True when a block certificate describes a graded ring isomorphism.

    Exhaustive, and written without the library's certificate code: each
    single-entry generator E_ij of degree gamma goes to (pi i, pi j) with
    coefficient c(deg w) coeff(w) for w = u_i a u_j^-1, a product of
    (degree, coeff) pairs by ``times``, at degree tau (deg w) tau^-1.  That degree must be the target's slot degree for
    gamma, the images must be distinct and cover every generator of the
    target, and phi(xy) = phi(x)phi(y) must hold on all pairs of
    generators, products by MatrixRingElement.mul.
    """
    src, dst = cert.source, cert.target
    d, field = src.ring, src.ring.field
    g = d.groupoid
    tau_inv = g.inverse(cert.tau)

    def phi(x):
        if x.is_zero:
            return dst.zero()
        entries = {}
        for (i, j), coeff in x.entries.items():
            left = times(d, cert.units[i], (src.slot_degree(i, j, x.degree), coeff))
            w = None if left is None else times(d, left, inverse(d, cert.units[j]))
            if w is None or w[0] not in cert.coboundary:
                return None
            key = (cert.pi[i], cert.pi[j])
            if g.compose(cert.tau, g.compose(w[0], tau_inv)) != dst.slot_degree(key[0], key[1], x.degree):
                return None
            image = field.mul(cert.coboundary[w[0]], w[1])
            if field.is_zero(image):
                return None
            entries[key] = plus(field, entries.get(key, field.zero()), image)
        return dst.element(x.degree, entries)

    gens = _single_entry_generators(src)
    images = [phi(x) for x in gens]
    if any(im is None or im.is_zero for im in images):
        return False
    hit = {(im.degree, key) for im in images for key in im.entries}
    want = {(y.degree, key) for y in _single_entry_generators(dst) for key in y.entries}
    if len(hit) != len(gens) or hit != want:
        return False
    for x, fx in zip(gens, images):
        for y, fy in zip(gens, images):
            left = phi(x.mul(y))
            if left is None or not left.equal(fx.mul(fy)):
                return False
    return True


def gr_prime_by_products(ring):
    """Primality by definition: a D b != 0 for all nonzero homogeneous a, b.

    Tests a * u_x * b over every support degree x on the basis units, with
    no use of the ring's primality classes or arithmetic: products are
    ``times`` on (degree, 1) pairs.
    """
    units = [(m, ring.field.one()) for m in sorted(ring.support)]

    def nonzero(a, x, b):
        ax = times(ring, a, x)
        return ax is not None and times(ring, ax, b) is not None

    return all(any(nonzero(a, x, b) for x in units) for a in units for b in units)


def _coboundary_equations(d1, d2, tau):
    """(s, t, st, f1(s, t), f2(s', t')) for all composable s, t in supp(d1),
    primes denoting conjugation by tau."""
    g = d1.groupoid
    tau_inv = g.inverse(tau)
    conj = {s: g.compose(tau, g.compose(s, tau_inv)) for s in d1.support}
    return [
        (s, t, g.compose(s, t), d1.factor[(s, t)], d2.factor[(conj[s], conj[t])])
        for s in sorted(d1.support)
        for t in sorted(d1.support)
        if g.is_composable(s, t)
    ]


def _solves(field, equations, c):
    return all(
        field.equal(field.mul(field.mul(c[s], c[t]), f2), field.mul(f1, c[st])) for s, t, st, f1, f2 in equations
    )


def is_coboundary(d1, d2, tau, c):
    """True when c(s)c(t)f2(s', t') = f1(s, t)c(st) for all composable s, t
    in supp(d1), primes denoting conjugation by tau."""
    return _solves(d1.field, _coboundary_equations(d1, d2, tau), c)


def coboundary_exists(d1, d2, tau):
    """Whether some c in (F_p^*)^supp(d1) passes is_coboundary, by trying
    every one."""
    equations = _coboundary_equations(d1, d2, tau)
    supp = sorted(d1.support)
    units = range(1, d1.field.p)
    return any(_solves(d1.field, equations, dict(zip(supp, c))) for c in product(units, repeat=len(supp)))


def first_certificate_by_full_sweep(block1, block2):
    """(tau, pi, c, units) of the first conjugating morphism that passes,
    or None: the certificate search as it was before it skipped cosets.

    Every tau of hom(e1, e2) is tried in order: the coboundary comes from
    structure.solve_coboundary, and the matching by perfect_matching_by_lists
    pairs index i with i' when r = tau^-1 s'_i' s_i^-1 is defined and lies
    in supp(d1), u_i being (r, 1) for the chosen i'.
    """
    from gradix.structure import solve_coboundary

    d1, d2 = block1.ring, block2.ring
    g = d1.groupoid
    sig1 = [s for (s,) in block1.signatures]
    sig2 = [s for (s,) in block2.signatures]
    if sorted(s.source for s in sig1) != sorted(s.source for s in sig2) or len(d1.support) != len(d2.support):
        return None
    n = len(sig1)
    for tau in g.hom(d1.gamma0()[0], d2.gamma0()[0]):
        c = solve_coboundary(d1, d2, tau)
        if c is None:
            continue
        tau_inv = g.inverse(tau)
        shift = {}
        for i, s in enumerate(sig1):
            for k, sp in enumerate(sig2):
                if sp.source == s.source:
                    r = g.compose(g.compose(tau_inv, sp), g.inverse(s))
                    if r in d1.support:
                        shift[(i, k)] = r
        pi = perfect_matching_by_lists([[k for k in range(n) if (i, k) in shift] for i in range(n)], n)
        if pi is not None:
            return tau, pi, c, {i: (shift[(i, pi[i])], d1.field.one()) for i in range(n)}
    return None


def perfect_matching_by_lists(candidates, n):
    """Kuhn's augmenting paths over candidate lists, candidates[i] the
    allowed partners of i in increasing order: the matching that
    structure.spec_iso and the certificate search used before they asked
    a predicate instead."""
    match_to = [None] * n

    def augment(i, seen):
        for j in candidates[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_to[j] is None or augment(match_to[j], seen):
                match_to[j] = i
                return True
        return False

    for i in range(n):
        if not augment(i, set()):
            return None
    pi = [None] * n
    for j, i in enumerate(match_to):
        pi[i] = j
    return pi


# -- raw groupoids --------------------------------------------------------------


def raw_groupoid_failure(objects, morphisms, table):
    """The first groupoid axiom a raw composition table breaks, or None.

    The axioms straight from their definitions, over all pairs and all
    triples of morphisms, in this order: the products are given exactly
    on the composable pairs and join the right endpoints
    (``groupoid.composability``); every object has a two-sided unit
    (``groupoid.identity``); every morphism has a two-sided inverse
    (``groupoid.inverse``); (a o b) o c = a o (b o c)
    (``groupoid.associativity``).  Each pair (g, h) is given once.
    """
    src = [md["source"] for md in morphisms]
    tgt = [md["target"] for md in morphisms]
    n = len(src)
    comp = {(g, h): gh for g, h, gh in table}
    for g in range(n):
        for h in range(n):
            if ((g, h) in comp) != (src[g] == tgt[h]):
                return "groupoid.composability"
            gh = comp.get((g, h))
            if gh is not None and (src[gh] != src[h] or tgt[gh] != tgt[g]):
                return "groupoid.composability"
    ident = {}
    for x in objects:
        for m in range(n):
            if src[m] == tgt[m] == x:
                if all(comp[(m, h)] == h for h in range(n) if tgt[h] == x) and all(
                    comp[(g, m)] == g for g in range(n) if src[g] == x
                ):
                    ident[x] = m
                    break
        if x not in ident:
            return "groupoid.identity"
    for m in range(n):
        if not any(
            src[w] == tgt[m] and tgt[w] == src[m] and comp[(w, m)] == ident[src[m]] and comp[(m, w)] == ident[tgt[m]]
            for w in range(n)
        ):
            return "groupoid.inverse"
    for (a, b), ab in comp.items():
        for c in range(n):
            if (b, c) in comp and comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                return "groupoid.associativity"
    return None


def cocycle_failures(field, groupoid, support, factor):
    """Every triple (s, t, r) of support degrees, in sort order, with s o t
    and t o r defined and factor(s,t) factor(st,r) != factor(t,r) factor(s,tr).

    The cocycle identity straight from its definition, over every
    composable triple.  Degrees are plain (block, target, elem, source)
    tuples composed by their block's group table, (z, h, y) o (y, g, x) =
    (z, hg, x), and the two sides are compared as field values: Fractions
    over Q, integers mod p over F_p.
    """
    p = getattr(field, "p", None)
    tables = [b.group.mult_table for b in groupoid.blocks]

    def comp(a, b):
        return (a[0], a[1], tables[a[0]][a[2]][b[2]], b[3])

    degrees = sorted(support)
    for s in degrees:
        for t in degrees:
            if (t[0], t[1]) != (s[0], s[3]):
                continue
            st = comp(s, t)
            for r in degrees:
                if (r[0], r[1]) != (t[0], t[3]):
                    continue
                lhs = factor[s, t] * factor[st, r]
                rhs = factor[t, r] * factor[s, comp(t, r)]
                if (lhs - rhs) % p if p else lhs != rhs:
                    yield s, t, r


def cocycle_failure(field, groupoid, support, factor):
    """The first triple of cocycle_failures, or None for a cocycle."""
    return next(cocycle_failures(field, groupoid, support, factor), None)


def relabel_is_isomorphism(groupoid, relabel, table):
    """True when relabel is a bijection onto the groupoid's morphisms that
    keeps every product of the table."""
    if sorted(relabel.values()) != list(groupoid.morphisms()):
        return False
    return all(groupoid.compose(relabel[g], relabel[h]) == relabel[gh] for g, h, gh in table)


RAW_GROUPS = [
    [[0]],
    [[(i + j) % 2 for j in range(2)] for i in range(2)],
    [[(i + j) % 3 for j in range(3)] for i in range(3)],
    [[(i + j) % 4 for j in range(4)] for i in range(4)],
    [[i ^ j for j in range(4)] for i in range(4)],
]


def random_raw_groupoid(rng):
    """A raw groupoid (objects, morphisms, table): one or two components of
    one to three objects each, with isotropy C1, C2, C3, C4 or C2 x C2,
    objects and morphism ids shuffled.  The table is X x G x X's, written
    out from the group tables alone."""
    ids = rng.sample(range(12), 6)
    arrows = []
    for c in range(rng.randint(1, 2)):
        xs = ids[3 * c : 3 * c + rng.randint(1, 3)]
        mult = rng.choice(RAW_GROUPS)
        arrows += [(c, mult, y, g, x) for y in xs for g in range(len(mult)) for x in xs]
    rng.shuffle(arrows)
    at = {arrow[:1] + arrow[2:]: k for k, arrow in enumerate(arrows)}
    table = [
        [k, l, at[(c, y, mult[g][h], x)]]
        for k, (c, mult, y, g, w) in enumerate(arrows)
        for l, (c2, _, z, h, x) in enumerate(arrows)
        if c == c2 and w == z
    ]
    objects = sorted({arrow[4] for arrow in arrows})
    rng.shuffle(objects)
    return objects, [{"source": a[4], "target": a[2]} for a in arrows], table


# -- relabelling ----------------------------------------------------------------


def group_identity(mult):
    """The two-sided identity of a multiplication table, or None."""
    n = len(mult)
    return next((e for e in range(n) if all(mult[e][x] == x and mult[x][e] == x for x in range(n))), None)


class Relabelling:
    """An isomorphism of groupoids, applied to spec JSON.

    Object ids 0..63 move one step along a seeded cycle through all of
    them, so no object keeps its id and no proper set of objects maps
    onto itself; other ids, negative ones among them, stay.  Each block's
    group elements, when there are two or more, are permuted so that the
    identity (element 0 of a table without one) is not element 0; the permutation is seeded from
    the seed, the block's index and its table, so a ring and a file that
    refers to it relabel alike.  The table becomes the same group under
    the new names, and a morphism [block, target, elem, source] becomes
    [block, next(target), perm[elem], next(source)].  Every law a file
    breaks is one that relabelling keeps, so it breaks the same law after.
    """

    def __init__(self, seed):
        self.seed = seed
        cycle = random.Random(seed).sample(range(64), 64)
        self.next = dict(zip(cycle, cycle[1:] + cycle[:1]))

    def object(self, x):
        return self.next.get(x, x) if isinstance(x, int) and not isinstance(x, bool) else x

    def group(self, block, gd):
        """(the relabelled group JSON, perm: old element -> new)."""
        mult = gd["mult"]
        n = len(mult)
        perm = list(range(n))
        moved = group_identity(mult) or 0
        rng = random.Random(f"{self.seed} {block} {mult}")
        while n > 1 and perm[moved] == 0:
            rng.shuffle(perm)
        table = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[mult[a][b]]
        return dict(gd, mult=table), perm

    def groupoid(self, gd):
        """(the relabelled groupoid JSON, the element permutation of each block).
        A raw groupoid has its object ids moved; its elements have no names."""
        if "raw" in gd:
            raw = gd["raw"]
            morphisms = [dict(m, source=self.object(m["source"]), target=self.object(m["target"])) for m in raw["morphisms"]]
            return dict(gd, raw=dict(raw, objects=[self.object(x) for x in raw["objects"]], morphisms=morphisms)), []
        blocks, perms = [], []
        for k, bd in enumerate(gd["blocks"]):
            group, perm = self.group(k, bd["group"])
            blocks.append(dict(bd, objects=[self.object(x) for x in bd["objects"]], group=group))
            perms.append(perm)
        return dict(gd, blocks=blocks), perms

    def morphism(self, m, perms):
        block, target, elem, source = m
        perm = perms[block] if 0 <= block < len(perms) else ()
        return [block, self.object(target), perm[elem] if 0 <= elem < len(perm) else elem, self.object(source)]

    def spec(self, data, resolve):
        """The relabelled copy of a spec file's JSON.  ``resolve(ref)``
        returns, for a {"ref": path} slot, the JSON it names and the
        resolver of that file; the slot itself is kept, since the file it
        names is relabelled on its own."""
        return self._spec(data, resolve)[0]

    def _spec(self, data, resolve):
        """(relabelled JSON, the element permutations of its groupoid)."""
        if set(data) == {"ref"}:
            return data, self._spec(*resolve(data["ref"]))[1]
        if "blocks" in data or "raw" in data:
            return self.groupoid(data)
        out, perms = dict(data), []
        if "groupoid" in data:
            out["groupoid"], perms = self._spec(data["groupoid"], resolve)
        for key in ("ring", "module"):
            if key in data:
                out[key], perms = self._spec(data[key], resolve)

        def move(m):
            return self.morphism(m, perms)

        for key in ("support", "row_signature", "col_signature", "shifts"):
            if key in data:
                out[key] = [move(m) for m in data[key]]
        if "factor" in data:
            out["factor"] = [[move(s), move(t), c] for s, t, c in data["factor"]]
        if "signatures" in data:
            out["signatures"] = [[move(m) for m in sig] for sig in data["signatures"]]
        if "vectors" in data:
            out["vectors"] = [dict(v, degree=move(v["degree"])) for v in data["vectors"]]
        return out, perms


# -- the four reference coefficient rings -----------------------------------


def ring_q_trivial():
    return GradedDivisionRing.group_ring(Rationals(), FiniteGroup.trivial())


def ring_f5_c2():
    return GradedDivisionRing.group_ring(PrimeField(5), FiniteGroup.cyclic(2))


def ring_f3_twisted_c2():
    def twist(a, b):
        return 2 if a == 1 and b == 1 else 1

    return GradedDivisionRing.twisted_group_ring(PrimeField(3), FiniteGroup.cyclic(2), twist)


def ring_two_object_prime(field=Rationals()):
    g = FiniteGroupoid.pair([1, 2])
    ident = g.identity(1)
    corner = GradedDivisionRing(field, g, [ident], {(ident, ident): field.one()})
    return GradedDivisionRing.prime_form(corner, [ident, Morphism(0, 1, 0, 2)])


def ring_two_object_c2(field):
    """Full support on two objects with C_2 isotropy; the loop u_g squares to 2 u_1.

    Products of a morphism and its inverse land on loops at different
    objects, so a coboundary twist makes factor(s, t) and factor(t, s)
    differ, which the one-object and trivial-isotropy rings cannot.
    """
    g = FiniteGroupoid([ConnectedBlock([0, 1], FiniteGroup.cyclic(2))])
    loops = g.hom(0, 0)
    two = field.coerce(2)
    factor = {(s, t): two if s.elem == t.elem == 1 else field.one() for s in loops for t in loops}
    corner = GradedDivisionRing(field, g, loops, factor)
    return GradedDivisionRing.prime_form(corner, [g.identity(0), Morphism(0, 0, 0, 1)])


def reference_rings():
    return [ring_q_trivial(), ring_f5_c2(), ring_f3_twisted_c2(), ring_two_object_prime()]


def product_test_rings(rng):
    """The reference rings and three more two-object rings, each also with a random coboundary twist."""
    f7 = PrimeField(7)
    base = reference_rings() + [ring_two_object_prime(f7), ring_two_object_c2(f7), ring_two_object_c2(Rationals())]
    return base + [coboundary_twist(ring, rng) for ring in base]


def coboundary_twist(ring, rng):
    """The same ring with its factor set times the coboundary c(s)c(t)/c(st), c random.

    A coboundary keeps the cocycle and normalization laws (c is 1 on
    identities) but makes factor(s, t) differ from factor(t, s) and from 1,
    so a product that swaps or drops the factor gives a different answer.
    """
    field, g = ring.field, ring.groupoid
    c = {m: field.one() if g.is_identity(m) else random_scalar(rng, field, nonzero=True) for m in ring.support}
    factor = {
        (s, t): field.div(field.mul(v, field.mul(c[s], c[t])), c[g.compose(s, t)])
        for (s, t), v in ring.factor.items()
    }
    return GradedDivisionRing(field, g, ring.support, factor)


# -- random data -------------------------------------------------------------


def random_scalar(rng, field, nonzero=False):
    if field.kind == "Q":
        num = rng.randint(1, 4) if nonzero else rng.randint(-3, 3)
        if nonzero and rng.random() < 0.5:
            num = -num
        return Fraction(num, rng.randint(1, 3))
    v = rng.randrange(1, field.p) if nonzero else rng.randrange(field.p)
    return v


def sample_nonzero(field, rng):
    """A random nonzero element: uniform over F_p^*, a small rational over Q."""
    if field.kind == "Fp":
        return rng.randrange(1, field.p)
    while True:
        a = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 5]))
        if a != 0:
            return a


def random_signature(rng, ring, n):
    g = ring.groupoid
    gamma0 = ring.gamma0()
    pool = [m for m in g.morphisms() if m.target in gamma0]
    wild = list(g.morphisms())
    out = []
    for _ in range(n):
        if rng.random() < 0.1:
            out.append(rng.choice(wild))
        else:
            out.append(rng.choice(pool))
    return out


def random_matrix(rng, ring, m, n, density=0.6):
    return random_matrix_on(rng, ring, random_signature(rng, ring, m), random_signature(rng, ring, n), density)


def random_matrix_on(rng, ring, rows, cols, density=0.6):
    """Random entries in the live slots; a drawn zero is dropped by the constructor."""
    entries = {}
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            if ring.slot(a, b) is not None and rng.random() < density:
                entries[(i, j)] = random_scalar(rng, ring.field)
    return HomMatrix(ring, rows, cols, entries)


def random_matrix_ring(rng, ring, size):
    """Signature sets of morphisms into gamma0, no two in a set sharing a source or a target."""
    pool = [m for m in ring.groupoid.morphisms() if m.target in ring.gamma0()]
    sigs = []
    for _ in range(size):
        sig = [rng.choice(pool)]
        for m in pool:
            if rng.random() < 0.5 and all(m.source != s.source and m.target != s.target for s in sig):
                sig.append(m)
        sigs.append(sig)
    return MatrixRing(ring, sigs)


def random_element(rng, mring, gamma, density=0.7):
    """A homogeneous element of degree gamma with random entries in its live slots."""
    entries = {}
    for i in range(mring.size):
        for j in range(mring.size):
            if mring.slot_degree(i, j, gamma) is not None and rng.random() < density:
                entries[(i, j)] = random_scalar(rng, mring.ring.field, nonzero=True)
    return mring.element(gamma, entries)


def random_module(rng, ring, max_pdim=6):
    g = ring.groupoid
    gamma0 = ring.gamma0()
    pool = [m for m in g.morphisms() if m.target in gamma0]
    shifts = [rng.choice(pool) for _ in range(rng.randint(1, max_pdim))]
    from gradix.modules import GradedModule

    return GradedModule(ring, shifts)


def is_live_coordinate(module, i, tau):
    """Whether coordinate i of a degree-tau vector may be nonzero: shift_i * tau
    is defined and lies in the support."""
    g = module.ring.groupoid
    d = module.shifts[i]
    return g.is_composable(d, tau) and g.compose(d, tau) in module.ring.support


def random_vectors(rng, module, count):
    g = module.ring.groupoid
    degrees = list(g.morphisms())
    out = []
    for _ in range(count):
        tau = rng.choice(degrees)
        entries = {}
        for i in range(module.pdim()):
            if is_live_coordinate(module, i, tau) and rng.random() < 0.7:
                entries[i] = random_scalar(rng, module.ring.field)
        out.append(module.vector(tau, entries))
    return out


def two_generated_subgroups(group):
    """The subgroups generated by at most two elements, as sorted element
    tuples, smallest first: every subgroup when the group has order at
    most 8 and is not C_2^3."""
    found = set()
    for a in range(group.order):
        for b in range(a, group.order):
            elems = {group.identity}
            while True:
                more = elems | {group.mul(x, y) for x in elems for y in (a, b)}
                if more == elems:
                    break
                elems = more
            found.add(tuple(sorted(elems)))
    return sorted(found, key=lambda h: (len(h), h))


def _powers(group, x):
    out = [group.identity]
    while group.mul(out[-1], x) != group.identity:
        out.append(group.mul(out[-1], x))
    return out


def loop_ring(field, g, obj, order, lam):
    """The ring on the loops at obj whose group elements are ``order``.
    When order lists x^0 .. x^(m-1), u_x^m = lam: the factor is lam where
    exponents wrap around.  Otherwise order is a subgroup and lam is 1."""
    at = {x: k for k, x in enumerate(order)}
    support = [Morphism(0, obj, x, obj) for x in order]
    factor = {
        (s, t): field.coerce(lam if at[s.elem] + at[t.elem] >= len(order) else 1) for s in support for t in support
    }
    return GradedDivisionRing(field, g, support, factor)


def random_block_pair(rng, group, elems, field):
    """Two single-object-supported blocks over the groupoid with objects 0
    and 1 and this isotropy group, each on a conjugate of the subgroup
    elems, and each with a random coboundary twist.

    The first sits at object 0 with one to three signatures.  The second
    sits at a random object and is, half of the time, the first carried
    across by a random tau0 = (e2, t, 0): support t elems t^-1, the same
    cyclic twist lam, and signatures tau0 h_i s_i in shuffled order, h_i
    in the support.  Otherwise it draws its own lam and signatures with
    the same sources, and may or may not be isomorphic.  A cyclic
    subgroup gets the twist lam for a random generator; any other is
    untwisted."""
    field_units = [1, 2, 3, -1]
    g = FiniteGroupoid([ConnectedBlock([0, 1], group)])
    gen = next((x for x in elems if len(_powers(group, x)) == len(elems)), None)
    order = list(elems) if gen is None else _powers(group, gen)
    e2, t = rng.randint(0, 1), rng.randrange(group.order)
    iso = rng.random() < 0.5
    lam1 = 1 if gen is None else rng.choice(field_units)
    lam2 = lam1 if iso or gen is None else rng.choice(field_units)
    moved = [group.mul(group.mul(t, x), group.inv(t)) for x in order]
    d1 = coboundary_twist(loop_ring(field, g, 0, order, lam1), rng)
    d2 = coboundary_twist(loop_ring(field, g, e2, moved, lam2), rng)
    sig1 = [Morphism(0, 0, rng.randrange(group.order), rng.randint(0, 1)) for _ in range(rng.randint(1, 3))]
    if iso:
        sig2 = [Morphism(0, e2, group.mul(t, group.mul(rng.choice(elems), s.elem)), s.source) for s in sig1]
        rng.shuffle(sig2)
    else:
        sig2 = [Morphism(0, e2, rng.randrange(group.order), s.source) for s in sig1]
    return MatrixRing(d1, [[s] for s in sig1]), MatrixRing(d2, [[s] for s in sig2])


def seeded(seed):
    return random.Random(seed)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bench_module(name):
    """bench/<name>.py, loaded under the name bench_<name>."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_structure_inputs(seed):
    """The seeded spec data of the benchmark's structure workload
    (``make`` of bench/structure.py): matrix rings over rings whose
    supports split into primality classes, with C_4 isotropy and a
    coboundary factor set, and matrix-form categories."""
    return _bench_module("structure").make(seed)


def benchmark_linalg_jobs(seed):
    """The jobs of one round of the benchmark's linalg workload at a seed
    (``build`` of bench/linalg.py), each with its answer check."""
    module = _bench_module("linalg")
    return module.build(module.make(seed))
