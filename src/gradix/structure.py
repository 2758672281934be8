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
exactly and the same way over every field: an integer Smith form of the
exponent matrix turns it into independent equations z^d = y, which need
only exact d-th roots: integer roots over Q, Adleman-Manders-Miller roots
over F_p.

The search yields an unverified certificate.  A certificate is verified
once it is returned: by ``iso_test`` directly, and by ``spec_iso`` only
for the n block pairs of the final matching.  The check tests
multiplicativity on the generator products E_ij(h) E_jl(h') alone.  That
is complete: the image of E_ij sits at (pi i, pi j) and pi is injective,
so every other product of generators is zero on both sides.
"""

from collections import Counter

from .errors import GradixError, ValidationError
from .groupoids import union_classes
from .matrix_ring import MatrixRing

# The largest support whose coboundary system iso solves.  A single solve on
# a twisted cyclic group ring over F_10007 or Q takes about 0.012 s at
# support 12, 0.04 s at 16 and 0.18 s at 24 (one core of a 2-vCPU Xeon),
# and a rejecting pair may solve once per conjugating morphism.
MAX_COBOUNDARY_SUPPORT = 12


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
        grading = first.groupoid.to_json()
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
            if blk.ring.groupoid.to_json() != grading:
                raise ValidationError(
                    "block.common_grading", f"block {j} is graded by a different groupoid"
                )
            if blk.ring.field != first.field:
                raise ValidationError(
                    "block.common_grading", f"block {j} lives over a different field"
                )
        self.groupoid = first.groupoid
        self.field = first.field

    def base_object(self, j):
        return self._bases[j]

    def signature(self, j, k):
        """The single morphism of block j, index k."""
        return self.blocks[j].signatures[k][0]

    def block_size(self, j):
        return self.blocks[j].size

    def indices_at(self, j, e):
        """K_{j,e}: indices of block j whose signature starts at e.

        A singleton signature's source is the only object where its index
        is live, so these are the block's live indices at e.
        """
        return self.blocks[j].live_indices(e)

    def blocks_at(self, e):
        """J_e: blocks with at least one index at e."""
        return tuple(j for j in range(len(self.blocks)) if self.indices_at(j, e))

    def index_count(self, e):
        """n_e: total number of indices over all blocks starting at e."""
        return sum(len(self.indices_at(j, e)) for j in range(len(self.blocks)))

    def objects(self):
        """All objects carrying at least one index, sorted."""
        return sorted({sig[0].source for blk in self.blocks for sig in blk.signatures})

    def global_index(self, j, k):
        """1-based position of block j, index k in the concatenated index list."""
        return sum(self.block_size(jp) for jp in range(j)) + k + 1


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


def _exclusive_singleton(spec, j):
    """The object of the first index of block j, in index order, that is held
    by that index alone and by no other block, or None."""
    for k in range(spec.block_size(j)):
        e = spec.signature(j, k).source
        if len(spec.indices_at(j, e)) != 1:
            continue
        if any(spec.indices_at(jp, e) for jp in range(len(spec.blocks)) if jp != j):
            continue
        return e
    return None


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
        here = spec.indices_at(j, e)
        row = [blk.e_unit(k, c) for k in here]
        col = [blk.e_unit(c, k) for k in here]
        ab = blk.zero()
        for a, b in zip(row, col):
            ab = ab.add(a.mul(b))
        if not ab.equal(blk.identity_at(e)):
            raise GradixError("internal error: pseudo-basis witness failed the AB identity")
        local = blk.identity_at(spec.signature(j, c).source)
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
    read off the index counts of the blocks; a false ipbn flag comes with
    a pseudo-basis pair that is checked block by block.
    """
    if isinstance(spec, MatrixRing):
        spec = wedderburn_decompose(spec)
    witnesses = {}
    n_blocks = len(spec.blocks)

    gr_simple = n_blocks == 1
    if not gr_simple:
        witnesses["gr_simple"] = f"{n_blocks} blocks"

    crowded = [e for e in spec.objects() if spec.index_count(e) >= 2]

    gr_division = not crowded
    if gr_division:
        witnesses["gr_division"] = "every object carries at most one index"
    else:
        e = crowded[0]
        j = spec.blocks_at(e)[0]
        k = spec.indices_at(j, e)[0]
        pos = spec.global_index(j, k)
        witnesses["gr_division"] = f"E{pos}{pos} has no right inverse"
        witnesses["gr_division_data"] = {"object": e, "block": j, "index": k}

    singles = {}
    pfm = True
    for j in range(n_blocks):
        f = _exclusive_singleton(spec, j)
        if f is None:
            pfm = False
            witnesses["pfm"] = f"block {j} has no object of its own with exactly one index"
            break
        singles[j] = f
    if pfm:
        witnesses["pfm"] = {j: singles[j] for j in range(n_blocks)}

    ipbn = True
    for e in crowded:
        singleton_of = {}
        for j in spec.blocks_at(e):
            f = _exclusive_singleton(spec, j)
            if f is None:
                break
            singleton_of[j] = spec.indices_at(j, f)[0]
        else:
            _verify_ipbn_witness(spec, e, singleton_of)
            size = spec.index_count(e)
            ipbn = False
            witnesses["ipbn"] = (
                f"the module at object {e} has verified pseudo-bases of sizes 1 and {size}"
            )
            witnesses["ipbn_data"] = {"object": e, "sizes": (1, size)}
            break
    if ipbn:
        witnesses.setdefault("ipbn", "no rectangular pseudo-basis pair exists")

    if gr_division != (pfm and ipbn):
        raise GradixError("internal error: division flag disagrees with pfm and ipbn")

    return ClassificationFlags(True, gr_simple, True, pfm, gr_division, ipbn, witnesses)


# -- decomposition -----------------------------------------------------------


def wedderburn_decompose(ring, signatures=None):
    """Split a matrix ring over a graded division ring into its blocks.

    Accepts either a MatrixRing or a division ring plus signature sets.
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
    if signatures is not None:
        ring = MatrixRing(ring, signatures)
    if not isinstance(ring, MatrixRing):
        raise GradixError("decomposition needs a matrix ring or ring-plus-signatures")
    d = ring.ring
    g = d.groupoid
    classes = d.primality_classes()
    class_of = {}
    for cls in classes:
        for e in cls:
            class_of[e] = tuple(cls)

    pairs = []
    for i, sig in enumerate(ring.signatures):
        for s in sig:
            pairs.append((i, s))
    by_class = {}
    for (i, s) in sorted(pairs):
        by_class.setdefault(class_of[s.target], []).append((i, s))

    blocks = []
    provenance = []
    for cls in sorted(by_class):
        members = by_class[cls]
        base = members[0][1].target
        sigs = [[g.compose(d.connector(s.target, base), s)] for (_, s) in members]
        blocks.append(MatrixRing(d.corner(base), sigs))
        provenance.append(tuple(members))

    spec = SemisimpleRingSpec(blocks)
    spec.provenance = tuple(provenance)

    want, got = ring.dimension_table(), Counter()
    for blk in blocks:
        got.update(blk.dimension_table())
    for gamma in sorted(want.keys() | got.keys()):
        if want[gamma] != got[gamma]:
            raise GradixError(
                f"internal error: dimension audit failed at {gamma}: {want[gamma]} != {got[gamma]}"
            )
    return spec


# -- integer linear algebra for coboundaries ---------------------------------


def _smith(a, nrows, ncols):
    """Diagonalize an integer matrix in place: returns (a, u, v) with
    u*original*v = a diagonal.  No divisibility normalization."""
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
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
            u[t], u[bi] = u[bi], u[t]
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
                    for j in range(nrows):
                        u[i][j] -= q * u[t][j]
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
    return a, u, v


def _multiplicative_solve(field, rows, ratios):
    """One unit vector c with prod_j c_j^rows[i][j] = ratios[i] for every i,
    or None.

    With U*A*V = D from _smith, put y_i = prod_j r_j^U_ij; then z solves
    z_k^d_k = y_k, every other y_k must be 1, and c_i = prod_k z_k^V_ik.
    Only exact d-th roots are needed, in any field.
    """
    nrows, ncols = len(rows), len(rows[0])
    d, u, v = _smith([list(r) for r in rows], nrows, ncols)
    one = field.one()

    def combine(bases, exps):
        out = one
        for base, k in zip(bases, exps):
            if k:
                out = field.mul(out, field.power(base, k))
        return out

    z = [one] * ncols
    for k in range(nrows):
        y = combine(ratios, u[k])
        dk = d[k][k] if k < ncols else 0
        if dk == 0:
            if not field.equal(y, one):
                return None
        else:
            z[k] = field.root(y, dk)
            if z[k] is None:
                return None
    return [combine(z, row) for row in v]


def solve_coboundary(d1, d2, tau):
    """A map c: supp(d1) -> units with c(s)c(t)f2(s',t') = f1(s,t)c(st),
    primes denoting tau-conjugates, or None when the twists differ.

    That is exactly the condition making a |-> c(deg a) a ring map from
    the first twist to the tau-conjugated second.

    Both rings must be concentrated blocks and tau must conjugate the
    first support onto the second, of at most MAX_COBOUNDARY_SUPPORT
    degrees.
    """
    g = d1.groupoid
    field = d1.field
    supp = sorted(d1.support)
    if len(supp) > MAX_COBOUNDARY_SUPPORT:
        raise ValidationError(
            "coboundary.size", f"support size {len(supp)} exceeds ceiling {MAX_COBOUNDARY_SUPPORT}"
        )
    index = {s: k for k, s in enumerate(supp)}
    tau_inv = g.inverse(tau)

    def conj(s):
        return g.compose(tau, g.compose(s, tau_inv))

    rows = []
    ratios = []
    for s in supp:
        for t in supp:
            if not g.is_composable(s, t):
                continue
            st = g.compose(s, t)
            row = [0] * len(supp)
            row[index[s]] += 1
            row[index[t]] += 1
            row[index[st]] -= 1
            rows.append(row)
            ratios.append(
                field.div(d1.factor_value(s, t), d2.factor_value(conj(s), conj(t)))
            )

    sol = _multiplicative_solve(field, rows, ratios)
    if sol is None:
        return None
    c = {s: sol[index[s]] for s in supp}

    for (row, ratio) in zip(rows, ratios):
        lhs = field.one()
        for k, coef in enumerate(row):
            if coef == 0:
                continue
            term = c[supp[k]]
            for _ in range(abs(coef)):
                lhs = field.mul(lhs, term) if coef > 0 else field.div(lhs, term)
        if not field.equal(lhs, ratio):
            raise GradixError("internal error: coboundary solution failed verification")
    return c


# -- isomorphism testing -----------------------------------------------------


class IsoCertificate:
    """A graded isomorphism between two blocks, as found by the search.

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

        Entry (i, j) is conjugated by the units, w = u_i a u_j^-1, and goes
        to (pi i, pi j) with coefficient c(deg w) coeff(w); its degree there
        is deg w conjugated by tau.
        """
        if x.is_zero:
            return self.target.zero()
        d = self.source.ring
        field = d.field
        out_entries = {}
        for (i, j), coeff in x.entries.items():
            slot = self.source.slot_degree(i, j, x.degree)
            w = d.mul(d.mul(self.units[i], d.scalar(slot, coeff)), d.inv(self.units[j]))
            out_entries[(self.pi[i], self.pi[j])] = field.mul(self.coboundary[w.degree], w.coeff)
        return self.target.element(x.degree, out_entries)


def _perfect_matching(candidates, n):
    """Kuhn's augmenting paths; candidates[i] lists the allowed partners."""
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


def _find_certificate(block1, block2):
    """The first conjugating morphism, coboundary and index matching found,
    as an unverified IsoCertificate, or None.

    Both blocks must lie in one SemisimpleRingSpec, which checks their
    form and their common grading.
    """
    d1, d2 = block1.ring, block2.ring
    g = d1.groupoid
    if block1.size != block2.size:
        return None
    sources1 = sorted(s[0].source for s in block1.signatures)
    sources2 = sorted(s[0].source for s in block2.signatures)
    if sources1 != sources2:
        return None
    if len(d1.support) != len(d2.support):
        return None

    e1 = d1.gamma0()[0]
    e2 = d2.gamma0()[0]
    supp2 = set(d2.support)
    for tau in g.hom(e1, e2):
        tau_inv = g.inverse(tau)
        conj_supp = {g.compose(tau, g.compose(h, tau_inv)) for h in d1.support}
        if conj_supp != supp2:
            continue
        c = solve_coboundary(d1, d2, tau)
        if c is None:
            continue
        candidates = []
        connectors = {}
        for i in range(block1.size):
            si = block1.signatures[i][0]
            row = []
            for ip in range(block2.size):
                sp = block2.signatures[ip][0]
                h = d1.slot(g.compose(tau_inv, sp), si)
                if h is not None:
                    row.append(ip)
                    connectors[(i, ip)] = h
            candidates.append(row)
        pi = _perfect_matching(candidates, block1.size)
        if pi is None:
            continue
        units = {i: d1.unit(connectors[(i, pi[i])]) for i in range(block1.size)}
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
    pairs instead of all n^4 |supp|^2.
    """
    b1, b2 = cert.source, cert.target
    d1, d2 = b1.ring, b2.ring
    g, field = d1.groupoid, d1.field
    n, pi, c = b1.size, cert.pi, cert.coboundary
    if b2.size != n or sorted(pi) != list(range(n)):
        raise GradixError("internal error: certificate index map is not a bijection")
    supp = sorted(d1.support)
    tau_inv = g.inverse(cert.tau)
    conj = [g.compose(cert.tau, g.compose(h, tau_inv)) for h in supp]
    if set(conj) != d2.support:
        raise GradixError("internal error: certificate conjugation does not carry the support across")
    if any(h not in c or field.is_zero(c[h]) for h in supp):
        raise GradixError("internal error: certificate coboundary is not a unit on the support")
    shift, inv_units = [], []
    for i in range(n):
        u, s, sp = cert.units[i], b1.signatures[i][0], b2.signatures[pi[i]][0]
        r = g.compose_inverse(sp, s)
        if u.is_zero or r is None:
            raise GradixError(f"internal error: certificate pairs index {i} with a mismatched index")
        shift.append(r)
        inv_units.append(d1.inv(u))

    # Support degrees by position: products, both factor sets, and for every
    # generator E_ij(h) its image coefficient and the position of deg w.
    pos = {h: a for a, h in enumerate(supp)}
    prod = [[pos[g.compose(h, k)] for k in supp] for h in supp]
    f1 = [[d1.factor[(h, k)] for k in supp] for h in supp]
    f2 = [[d2.factor[(h, k)] for k in conj] for h in conj]
    image = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = []
            for h in supp:
                w = d1.mul(d1.mul(cert.units[i], d1.unit(h)), inv_units[j])
                if conj[pos[w.degree]] != g.compose_inverse(g.compose(shift[i], h), shift[j]):
                    raise GradixError("internal error: certificate map does not preserve degrees")
                cell.append((field.mul(c[w.degree], w.coeff), pos[w.degree]))
            row.append(cell)
        image.append(row)

    m = len(supp)
    checked = 0
    for i in range(n):
        for j in range(n):
            left = image[i][j]
            for l in range(n):
                right, outer = image[j][l], image[i][l]
                for a in range(m):
                    x, ka = left[a]
                    f1a, prod_a, f2a = f1[a], prod[a], f2[ka]
                    for b in range(m):
                        y, kb = right[b]
                        lhs = field.mul(f1a[b], outer[prod_a[b]][0])
                        if not field.equal(lhs, field.mul(field.mul(x, y), f2a[kb])):
                            raise GradixError("internal error: certificate map is not multiplicative")
                checked += m * m
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
    candidates = []
    for j, blk in enumerate(spec1.blocks):
        row = []
        for jp, other in enumerate(spec2.blocks):
            cert = _find_certificate(blk, other)
            if cert is not None:
                row.append(jp)
                certs[(j, jp)] = cert
        candidates.append(row)
    pi = _perfect_matching(candidates, n)
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
    flags = classify(spec)
    if not flags.pfm:
        raise GradixError("simple dimension needs a pfm ambient ring")
    total = 0
    for eps in shifts:
        e = eps.target
        total += spec.index_count(e)
    return total
