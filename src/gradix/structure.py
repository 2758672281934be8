"""Structure theory for semisimple graded rings.

A semisimple ring is presented as a finite product of blocks, each a
matrix ring over a graded division ring concentrated at a single base
object, with singleton signature sets.  Elements of different blocks
multiply to zero, so the product needs no arithmetic of its own: every
check runs inside one block at a time.  On that normal form this module
computes classification flags with certificates, decomposes a general
matrix ring into its blocks, decides graded isomorphism of blocks and of
products, reads off corner-ring structure, and counts simple summands of
shifted free modules.

Isomorphism of blocks reduces to a conjugating morphism between the base
objects, a matching of signatures, and an equivalence of the two twists
up to a multiplicative coboundary.  The coboundary system is solved
exactly and the same way over every field: its equal exponent rows are
merged, and an integer Smith form of the rest turns it into independent
equations z^d = y, which need only exact d-th roots: integer roots over
Q, Adleman-Manders-Miller roots over F_p.  The search solves it once
per coset tau supp(d1) of the conjugating morphisms tau.

The search yields an unverified certificate.  A certificate is verified
once it is returned: by ``iso_test`` directly, and by ``spec_iso`` only
for the n block pairs of the final matching.  The check tests
multiplicativity on the generator products E_ij(h) E_jl(h') alone.  That
is complete: the image of E_ij sits at (pi i, pi j) and pi is injective,
so every other product of generators is zero on both sides.

Both checks run on support positions and the group table, and compare
integers: each side goes over one common denominator (``field.integers``,
``factor_rows``), so a/D = b/D' is a D' - b D = 0 in the field, exactly
over Q and modulo p over F_p.
"""

from collections import Counter
from itertools import groupby

from .errors import GradixError, ValidationError
from .groupoids import Morphism, union_classes
from .matrix_ring import MatrixRing


class SemisimpleRingSpec:
    """A product of matrix-ring blocks in concentrated singleton form.

    The spec is its validated list of blocks: each block's ring is
    concentrated at one base object, each signature set is a singleton,
    and all blocks share one grading groupoid and one field.  Elements of
    different blocks multiply to zero, so the spec keeps no arithmetic of
    its own; every question is answered by the blocks.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ValidationError("block.support_at_base", "a spec needs at least one block")
        self._bases = []
        first = self.blocks[0].ring
        for j, blk in enumerate(self.blocks):
            gamma0 = blk.ring.gamma0()
            if len(gamma0) != 1:
                raise ValidationError(
                    "block.support_at_base",
                    f"block {j}: support touches objects {gamma0}, expected exactly one",
                )
            self._bases.append(gamma0[0])
            for k, sig in enumerate(blk.signatures):
                if len(sig) != 1:
                    raise ValidationError(
                        "block.singleton_signature",
                        f"block {j}, index {k}: signature set has {len(sig)} members",
                    )
            if blk.ring.groupoid != first.groupoid:
                raise ValidationError(
                    "block.common_grading", f"block {j} is graded by a different groupoid"
                )
            if blk.ring.field != first.field:
                raise ValidationError(
                    "block.common_grading", f"block {j} lives over a different field"
                )
        self.groupoid = first.groupoid
        self.field = first.field
        # table[j]: the sources of block j's signatures in index order, as
        # (object, count) runs; a singleton signature's source is the only
        # object where its index is live
        self.table = tuple(
            tuple((e, len(list(run))) for e, run in groupby(sig[0].source for sig in blk.signatures))
            for blk in self.blocks
        )

    def base_object(self, j):
        return self._bases[j]


# -- classification ----------------------------------------------------------


class ClassificationFlags:
    def __init__(self, gr_semisimple, gr_simple, gamma0_artinian, pfm, gr_division, ipbn, witnesses):
        self.gr_semisimple = gr_semisimple
        self.gr_simple = gr_simple
        self.gamma0_artinian = gamma0_artinian
        self.pfm = pfm
        self.gr_division = gr_division
        self.ipbn = ipbn
        self.witnesses = witnesses

    def as_dict(self):
        return {
            "gr_semisimple": self.gr_semisimple,
            "gr_simple": self.gr_simple,
            "gamma0_artinian": self.gamma0_artinian,
            "pfm": self.pfm,
            "gr_division": self.gr_division,
            "ipbn": self.ipbn,
        }


def multiplicities(table, objects=()):
    """Read a multiplicity table: per block, its objects as (object, count)
    runs, in the block's index order.

    Returns the index count at each object over all blocks, the crowded
    ones among ``objects`` (two or more indices), in that order, and each
    block's exclusive singleton: the object of its first run whose total
    count is 1, so that one index of this block alone sits there, or None.
    Mitchell's bridge reads both a semisimple ring's and a matrix-form
    category's flags off this table.  Runs are summed, never expanded.
    """
    counts = Counter()
    for runs in table:
        for e, c in runs:
            counts[e] += c
    crowded = [e for e in objects if counts[e] >= 2]
    singles = [next((e for e, _ in runs if counts[e] == 1), None) for runs in table]
    return counts, crowded, singles


def _verify_ipbn_witness(spec, e, singleton_of):
    """Check AB = identity at e and BA = the diagonal of local identities.

    ``singleton_of`` maps each block with indices at the crowded object e
    to its exclusive singleton index c.  A is the row of E_{k,c}, B the
    column of E_{c,k}, over every index k at e.  Elements of different
    blocks multiply to zero, so both products are checked block by block:
    the sum of E_{k,c} E_{c,k} over the block's indices at e is its
    identity at e, and E_{c,s} E_{t,c} is its identity at the source of
    c's signature when s = t and zero otherwise.
    """
    for j, c in singleton_of.items():
        blk = spec.blocks[j]
        here = blk.live_indices(e)
        row = [blk.e_unit(k, c) for k in here]
        col = [blk.e_unit(c, k) for k in here]
        ab = blk.zero()
        for a, b in zip(row, col):
            ab = ab.add(a.mul(b))
        if not ab.equal(blk.identity_at(e)):
            raise GradixError("internal error: pseudo-basis witness failed the AB identity")
        local = blk.identity_at(blk.signatures[c][0].source)
        for s, b in enumerate(col):
            for t, a in enumerate(row):
                prod = b.mul(a)
                if s == t:
                    if not prod.equal(local):
                        raise GradixError("internal error: pseudo-basis witness failed the BA diagonal")
                elif not prod.is_zero:
                    raise GradixError("internal error: pseudo-basis witness has off-diagonal terms")


def classify(spec):
    """Classification flags with certificates for a semisimple spec.

    A bare matrix ring is decomposed into its blocks first.  Every flag is
    read off the spec's multiplicity table; a false ipbn flag comes with
    a pseudo-basis pair that is checked block by block.
    """
    if isinstance(spec, MatrixRing):
        spec = wedderburn_decompose(spec)
    table, n_blocks = spec.table, len(spec.blocks)
    counts, crowded, singles = multiplicities(table, sorted({e for runs in table for e, _ in runs}))
    holders = {e: [j for j, runs in enumerate(table) if e in dict(runs)] for e in crowded}
    witnesses = {}

    gr_simple = n_blocks == 1
    if not gr_simple:
        witnesses["gr_simple"] = f"{n_blocks} blocks"

    gr_division = not crowded
    if gr_division:
        witnesses["gr_division"] = "every object carries at most one index"
    else:
        e = crowded[0]
        j = holders[e][0]
        k = spec.blocks[j].live_indices(e)[0]
        pos = sum(blk.size for blk in spec.blocks[:j]) + k + 1
        witnesses["gr_division"] = f"E{pos}{pos} has no right inverse"
        witnesses["gr_division_data"] = {"object": e, "block": j, "index": k}

    pfm = None not in singles
    if pfm:
        witnesses["pfm"] = dict(enumerate(singles))
    else:
        witnesses["pfm"] = f"block {singles.index(None)} has no object of its own with exactly one index"

    ipbn = True
    for e in crowded:
        if any(singles[j] is None for j in holders[e]):
            continue
        _verify_ipbn_witness(spec, e, {j: spec.blocks[j].live_indices(singles[j])[0] for j in holders[e]})
        ipbn = False
        witnesses["ipbn"] = f"the module at object {e} has verified pseudo-bases of sizes 1 and {counts[e]}"
        witnesses["ipbn_data"] = {"object": e, "sizes": (1, counts[e])}
        break
    if ipbn:
        witnesses["ipbn"] = "no rectangular pseudo-basis pair exists"

    if gr_division != (pfm and ipbn):
        raise GradixError("internal error: division flag disagrees with pfm and ipbn")

    return ClassificationFlags(True, gr_simple, True, pfm, gr_division, ipbn, witnesses)


# -- decomposition -----------------------------------------------------------


def wedderburn_decompose(ring):
    """Split a matrix ring over a graded division ring into its blocks.

    Index pairs (i, sigma) are partitioned by the primality class of the
    signature's target; each class becomes one block over the corner at
    the class representative, each signature moved there by the ring's
    connector.  As a self-check, at every groupoid morphism the blocks'
    component dimensions must sum to the ring's.  The audit compares
    dimension tables, which visit only live slots, so it costs the total
    dimension of the ring rather than one slot scan per morphism; degrees
    go in sorted order, the order of the groupoid's morphisms, so the
    first mismatch is the first morphism whose dimensions disagree.
    """
    if not isinstance(ring, MatrixRing):
        raise GradixError("decomposition needs a matrix ring")
    d = ring.ring
    g = d.groupoid
    class_of = {e: tuple(cls) for cls in d.primality_classes() for e in cls}
    by_class = {}
    for i, s in sorted((i, s) for i, sig in enumerate(ring.signatures) for s in sig):
        by_class.setdefault(class_of[s.target], []).append((i, s))

    blocks = []
    for cls in sorted(by_class):
        members = by_class[cls]
        base = members[0][1].target
        sigs = [[g.compose(d.connector(s.target, base), s)] for (_, s) in members]
        blocks.append(MatrixRing(d.corner(base), sigs))
    spec = SemisimpleRingSpec(blocks)

    want, got = ring.dimension_table(), Counter()
    for blk in blocks:
        got.update(blk.dimension_table())
    for gamma in sorted(want.keys() | got.keys()):
        if want[gamma] != got[gamma]:
            raise GradixError(
                f"internal error: dimension audit failed at {Morphism(*gamma)}: {want[gamma]} != {got[gamma]}"
            )
    return spec


# -- integer linear algebra for coboundaries ---------------------------------


def _smith(a, y, field):
    """Diagonalize an integer matrix in place, no divisibility
    normalization, and return v with u*original*v = a diagonal.  The row
    transform u is not kept: each row operation goes straight to the
    multiplicative right-hand side y, so y ends as y_i = prod_j y_j^u_ij
    (a swap swaps two entries, row_i -= q row_t sets y_i to y_i y_t^-q)."""
    nrows, ncols = len(a), len(a[0])
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(nrows, ncols):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            y[t], y[bi] = y[bi], y[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            for row in v:
                row[t], row[bj] = row[bj], row[t]
        dirty = False
        pivot = a[t][t]
        for i in range(nrows):
            if i != t and a[i][t] != 0:
                q = a[i][t] // pivot
                if q:
                    for j in range(ncols):
                        a[i][j] -= q * a[t][j]
                    y[i] = field.mul(y[i], field.power(y[t], -q))
                if a[i][t] != 0:
                    dirty = True
        for j in range(ncols):
            if j != t and a[t][j] != 0:
                q = a[t][j] // pivot
                if q:
                    for i in range(nrows):
                        a[i][j] -= q * a[i][t]
                    for i in range(ncols):
                        v[i][j] -= q * v[i][t]
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        t += 1
    return v


def _multiplicative_solve(field, rows, ratios):
    """One unit vector c with prod_j c_j^rows[i][j] = ratios[i] for every i,
    or None.

    With U*A*V = D from _smith, which turns the ratios into y_i = prod_j
    r_j^U_ij on the way, z solves z_k^d_k = y_k, every other y_k must be
    1, and c_i = prod_k z_k^V_ik.  Only exact d-th roots are needed, in
    any field.
    """
    nrows, ncols = len(rows), len(rows[0])
    d, y = [list(r) for r in rows], list(ratios)
    v = _smith(d, y, field)
    one = field.one()
    z = [one] * ncols
    for k in range(nrows):
        dk = d[k][k] if k < ncols else 0
        if dk == 0:
            if not field.equal(y[k], one):
                return None
        else:
            z[k] = field.root(y[k], dk)
            if z[k] is None:
                return None
    out = []
    for row in v:
        c = one
        for base, k in zip(z, row):
            if k:
                c = field.mul(c, field.power(base, k))
        out.append(c)
    return out


def _position_tables(d1, d2, tau):
    """For blocks concentrated at the ends of tau: the sorted support of d1,
    its tau-conjugates (the support of d2), prod[a][b] the position of
    supp[a] supp[b] by the group table of tau's block (compose checks
    that every degree is a loop at tau's source), and each factor set as
    (values, numerators, denominator) rows, f2 at the conjugates.  None
    when conjugation by tau does not carry supp(d1) onto supp(d2)."""
    g = d1.groupoid
    supp = sorted(d1.support)
    tau_inv = g.inverse(tau)
    conj = [g.compose(tau, g.compose(s, tau_inv)) for s in supp]
    if set(conj) != d2.support:
        return None
    mult = g.blocks[tau.block].group.mult_table
    at = {s.elem: a for a, s in enumerate(supp)}
    prod = [[at[mult[s.elem][t.elem]] for t in supp] for s in supp]
    fr1, fr2 = d1.factor_rows(), d2.factor_rows()
    k2 = [fr2.pos[t] for t in conj]
    f1 = ([fr1.values[s] for s in supp], [fr1.numerators[s] for s in supp], fr1.denominator)
    f2 = tuple([[row[t][k] for k in k2] for t in conj] for row in (fr2.values, fr2.numerators))
    return supp, conj, prod, f1, f2 + (fr2.denominator,)


def solve_coboundary(d1, d2, tau):
    """A map c: supp(d1) -> units with c(s)c(t)f2(s',t') = f1(s,t)c(st),
    primes denoting tau-conjugates, or None when the twists differ or
    conjugation by tau does not carry supp(d1) onto supp(d2).

    That is exactly the condition making a |-> c(deg a) a ring map from
    the first twist to the tau-conjugated second.  Each pair (s, t) gives
    the exponent row e_s + e_t - e_st with ratio f1/f2.  Equal rows with
    equal ratios are one equation, so only distinct rows go to the
    solver; equal rows with ratios N1/N2 != N1'/N2', compared as N1 N2' -
    N1' N2 over the factor sets' denominators, have no solution.  Every
    pair then checks the solution as c(s)c(t)N2 D1 = N1 c(st) D2, with c
    over its own denominator.  Both rings must be concentrated blocks.
    """
    field = d1.field
    tables = _position_tables(d1, d2, tau)
    if tables is None:
        return None
    supp, _, prod, (f1, n1, den1), (f2, n2, den2) = tables
    m = len(supp)
    first, ratios = {}, []
    for a in range(m):
        for b in range(m):
            ab = prod[a][b]
            row = tuple([(k == a) + (k == b) - (k == ab) for k in range(m)])
            if row not in first:
                first[row] = (a, b)
                ratios.append(field.div(f1[a][b], f2[a][b]))
                continue
            a0, b0 = first[row]
            if not field.is_zero(n1[a][b] * n2[a0][b0] - n1[a0][b0] * n2[a][b]):
                return None
    sol = _multiplicative_solve(field, list(first), ratios)
    if sol is None:
        return None
    nc, dc = field.integers(sol)
    for a in range(m):
        for b in range(m):
            if not field.is_zero(nc[a] * nc[b] * n2[a][b] * den1 - n1[a][b] * nc[prod[a][b]] * dc * den2):
                raise GradixError("internal error: coboundary solution failed verification")
    return dict(zip(supp, sol))


# -- isomorphism testing -----------------------------------------------------


class IsoCertificate:
    """A graded isomorphism between two blocks, as found by the search.

    ``units`` maps each index i to the unit u_i = (h, 1), a (degree, coeff)
    pair of the source block's division ring at the connecting degree h.
    ``verified`` is set once ``_verify_certificate`` has checked it.
    """

    def __init__(self, source, target, tau, pi, coboundary, units):
        self.source = source
        self.target = target
        self.tau = tau
        self.pi = tuple(pi)
        self.coboundary = coboundary
        self.units = units
        self.verified = False

    def apply(self, x):
        """Carry a homogeneous element of the source block to the target.

        Entry (i, j) is the pair a = (slot degree, coeff); it is conjugated
        by the units, w = u_i a u_j^-1, and goes to (pi i, pi j) with
        coefficient c(deg w) coeff(w); its degree there is deg w conjugated
        by tau.
        """
        if x.is_zero:
            return self.target.zero()
        d = self.source.ring
        field = d.field
        out_entries = {}
        for (i, j), coeff in x.entries.items():
            slot = self.source.slot_degree(i, j, x.degree)
            w_degree, w_coeff = d.mul(d.mul(self.units[i], (slot, coeff)), d.inv(self.units[j]))
            out_entries[(self.pi[i], self.pi[j])] = field.mul(self.coboundary[w_degree], w_coeff)
        return self.target.element(x.degree, out_entries)


def _perfect_matching(fits, n):
    """Kuhn's augmenting paths; fits(i, j) tells whether j is an allowed
    partner of i, asked in index order of j."""
    match_to = [None] * n

    def augment(i, seen):
        for j in range(n):
            if j in seen or not fits(i, j):
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


def _find_certificate(block1, block2):
    """The first conjugating morphism, coboundary and index matching found,
    as an unverified IsoCertificate, or None.

    One tau per coset tau supp(d1) is tried, its least, as hom(e1, e2) is
    walked in order.  For h in the support, tau o h carries supp(d1) onto
    the same conjugates as tau; with u_h u_s u_h^-1 = lambda(s) u_{hsh^-1},
    c solves tau's system exactly when c'(s) = c(hsh^-1) lambda(s) solves
    that of tau o h (conjugate the ring map by u_h); and tau^-1 s'_i' s_i^-1
    is in supp(d1) exactly when h^-1 tau^-1 s'_i' s_i^-1 is.  So the first
    tau to pass both is the least of the first coset to pass, as in a sweep.

    Both blocks must lie in one SemisimpleRingSpec, which checks their
    form and their common grading.
    """
    d1, d2 = block1.ring, block2.ring
    g = d1.groupoid
    sig1 = [s for (s,) in block1.signatures]
    sources2 = sorted(s.source for (s,) in block2.signatures)
    if sorted(s.source for s in sig1) != sources2 or len(d1.support) != len(d2.support):
        return None

    tried = set()
    for tau in g.hom(d1.gamma0()[0], d2.gamma0()[0]):
        if tau.elem in tried:
            continue
        mult = g.blocks[tau.block].group.mult_table
        tried.update(mult[tau.elem][h.elem] for h in d1.support)
        c = solve_coboundary(d1, d2, tau)
        if c is None:
            continue
        moved = [g.compose(g.inverse(tau), sp) for (sp,) in block2.signatures]
        pi = _perfect_matching(lambda i, ip: d1.slot(moved[ip], sig1[i]) is not None, block1.size)
        if pi is None:
            continue
        units = {i: (d1.slot(moved[pi[i]], s), d1.field.one()) for i, s in enumerate(sig1)}
        return IsoCertificate(block1, block2, tau, pi, c, units)
    return None


def _verify_certificate(cert):
    """Check that the certificate's map is a graded ring isomorphism and
    set ``cert.verified``; returns the number of generator products compared.

    A block over a ring concentrated at e is spanned by the generators
    x = E_ij(h): coefficient 1 in slot (i, j) at the slot degree h, for
    every h in the support (all of them loops at e).  The map sends x to
    the single entry at (pi i, pi j) whose coefficient is c(deg w) times
    the coefficient of w = u_i h u_j^-1, at the slot degree tau w tau^-1.

    Structure checks come first: pi is a bijection that keeps signature
    sources, tau-conjugation carries the first support onto the second,
    c is a unit on the support, and every image lands at its slot degree
    r_i h r_j^-1, r_i = s'_{pi i} s_i^-1.  Then the map sends the generators
    bijectively onto the generators of the target, up to nonzero scalars,
    and keeps every degree.

    Multiplicativity is then tested only on the pairs E_ij(h) E_jl(h').
    Every other pair is zero on both sides: E_ij E_kl with j != k is zero,
    and so is its image, because the image sits at (pi i, pi j) times
    (pi k, pi l) and pi is injective.  With j = k the degrees always
    compose.  So the check stays complete while testing n^3 |supp|^2
    pairs instead of all n^4 |supp|^2.  Each pair compares integers: the
    image coefficients over one denominator Di and the factor sets over
    D1 and D2, so f1(h, h') o = x y f2 becomes N1 No Di D2 = Nx Ny N2 D1.
    """
    b1, b2 = cert.source, cert.target
    d1 = b1.ring
    g, field = d1.groupoid, d1.field
    n, pi, c = b1.size, cert.pi, cert.coboundary
    if b2.size != n or sorted(pi) != list(range(n)):
        raise GradixError("internal error: certificate index map is not a bijection")
    tables = _position_tables(d1, b2.ring, cert.tau)
    if tables is None:
        raise GradixError("internal error: conjugation by tau does not carry the support across")
    supp, conj, prod, (f1, n1, den1), (_, n2, den2) = tables
    if any(h not in c or field.is_zero(c[h]) for h in supp):
        raise GradixError("internal error: certificate coboundary is not a unit on the support")
    # units[i]: the positions and coefficients of u_i and u_i^-1, and the
    # group element of the shift r_i
    m, pos = len(supp), {h: a for a, h in enumerate(supp)}
    units = []
    for i in range(n):
        u, s, sp = cert.units[i], b1.signatures[i][0], b2.signatures[pi[i]][0]
        r = g.compose_inverse(sp, s)
        if u is None or u[0] not in pos or r is None:
            raise GradixError(f"internal error: certificate pairs index {i} with a mismatched index")
        v = d1.inv(u)
        units.append((pos[u[0]], u[1], pos[v[0]], v[1], r.elem))

    # Each image: u_i h has position prod[p][a] and coefficient left[i][a];
    # right[j][k] multiplies position k by u_j^-1 and by c at the product.
    # conj[w] and r_i h r_j^-1 are loops at the target's base object, so
    # they compare by group element.
    grp = g.blocks[cert.tau.block].group
    mult, inv = grp.mult_table, grp.inv_table
    left = [[field.mul(x, f1[p][a]) for a in range(m)] for p, x, _, _, _ in units]
    right = [[field.mul(field.mul(y, f1[k][q]), c[supp[prod[k][q]]]) for k in range(m)] for _, _, q, y, _ in units]
    kpos = [[[prod[prod[p][a]][q] for a in range(m)] for _, _, q, _, _ in units] for p, _, _, _, _ in units]
    flat = []
    for i, (p, _, _, _, ri) in enumerate(units):
        for j, (_, _, _, _, rj) in enumerate(units):
            if any(conj[w].elem != mult[mult[ri][h.elem]][inv[rj]] for h, w in zip(supp, kpos[i][j])):
                raise GradixError("internal error: certificate map does not preserve degrees")
            flat += [field.mul(x, right[j][pa]) for x, pa in zip(left[i], prod[p])]

    # Multiplicativity on integers: with x = Nx/Di over one denominator for
    # every image, f1(h, h') o = x y f2 iff N1 No Di D2 = Nx Ny N2 D1.  For
    # each l, others[j][ka][b] is the right side without Nx; for each i,
    # sides[a][b] the left side.
    nums, di = field.integers(flat)
    image = [[nums[k:k + m] for k in range(i * n * m, (i + 1) * n * m, m)] for i in range(n)]
    n1s = [[x * di * den2 for x in row] for row in n1]
    n2s = [[x * den1 for x in row] for row in n2]
    is_zero = field.is_zero
    checked = 0
    for l in range(n):
        others = [[[y * row[kb] for y, kb in zip(image[j][l], kpos[j][l])] for row in n2s] for j in range(n)]
        for i in range(n):
            outer = image[i][l]
            sides = [[x * outer[ab] for x, ab in zip(n1s[a], prod[a])] for a in range(m)]
            for j in range(n):
                x_ij, k_ij, right_j = image[i][j], kpos[i][j], others[j]
                for a in range(m):
                    x = x_ij[a]
                    if not all(map(is_zero, [p - x * q for p, q in zip(sides[a], right_j[k_ij[a]])])):
                        raise GradixError("internal error: certificate map is not multiplicative")
            checked += n * m * m
    cert.verified = True
    return checked


def iso_test(block1, block2):
    """Search for a graded isomorphism between two blocks.

    Returns an IsoCertificate verified by ``_verify_certificate`` (on the
    products E_ij(h) E_jl(h') only, which is complete: every other
    generator pair is zero on both sides), or None when no conjugating
    morphism, signature matching and coboundary exist.  The two blocks
    must be graded by one groupoid over one field (``block.common_grading``).
    """
    SemisimpleRingSpec([block1, block2])
    cert = _find_certificate(block1, block2)
    if cert is not None:
        _verify_certificate(cert)
    return cert


def spec_iso(spec1, spec2):
    """Blockwise isomorphism of two semisimple specs.

    Returns a list pairing each block of the first spec with a block of
    the second and the certificate, or None.  Every block pair is
    searched, but only the n certificates of the final matching are
    verified, each as in ``iso_test``; a None answer verifies none.  Specs
    with equal block counts must share one grading (``block.common_grading``).
    """
    n = len(spec1.blocks)
    if n != len(spec2.blocks):
        return None
    SemisimpleRingSpec(spec1.blocks + spec2.blocks)
    certs = {}
    for j, blk in enumerate(spec1.blocks):
        for jp, other in enumerate(spec2.blocks):
            cert = _find_certificate(blk, other)
            if cert is not None:
                certs[(j, jp)] = cert
    pi = _perfect_matching(lambda j, jp: (j, jp) in certs, n)
    if pi is None:
        return None
    match = [(j, pi[j], certs[(j, pi[j])]) for j in range(n)]
    for _, _, cert in match:
        _verify_certificate(cert)
    return match


# -- corner rings and simple dimension ---------------------------------------


def corner_structure(block, e):
    """Sizes of the matrix factors of the corner ring at object e.

    Indices at e fall together when the quotient of their signatures is
    supported; each part contributes one matrix factor of its size.
    """
    SemisimpleRingSpec([block])
    d = block.ring
    here = [k for k in range(block.size) if block.signatures[k][0].source == e]
    if not here:
        raise GradixError(f"object {e} carries no index of this block")
    sig = [s[0] for s in block.signatures]
    links = ((a, b) for a in here for b in here if d.slot(sig[a], sig[b]) is not None)
    return sorted(len(cls) for cls in union_classes(here, links))


def simple_dimension(spec, shifts):
    """Number of simple summands of the shifted free module over a pfm ring.

    The module is the direct sum of one ring shift per morphism in
    ``shifts``; each contributes the count of indices at its target.
    """
    if isinstance(spec, MatrixRing):
        spec = wedderburn_decompose(spec)
    counts, _, singles = multiplicities(spec.table)
    if None in singles:
        raise GradixError("simple dimension needs a pfm ambient ring")
    return sum(counts[eps.target] for eps in shifts)
