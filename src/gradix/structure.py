"""Structure theory for semisimple graded rings.

A semisimple ring is presented as a finite product of blocks, each a
matrix ring over a graded division ring concentrated at a single base
object, with singleton signature sets.  On that normal form this module
computes classification flags with certificates, decomposes a general
matrix ring into its blocks, decides graded isomorphism of blocks and of
products, reads off corner-ring structure, and counts simple summands of
shifted free modules.

Isomorphism of blocks reduces to a conjugating morphism between the base
objects, a matching of signatures, and an equivalence of the two twists
up to a multiplicative coboundary.  The coboundary system is solved
exactly: over a prime field through discrete logarithms (for p - 1 up to
MAX_DLOG_ORDER), over the rationals prime by prime, both on top of one
integer Smith-form solver.

The search yields an unverified certificate.  A certificate is verified
once it is returned: by ``iso_test`` directly, and by ``spec_iso`` only
for the n block pairs of the final matching.  The check tests
multiplicativity on the generator products E_ij(h) E_jl(h') alone.  That
is complete: the image of E_ij sits at (pi i, pi j) and pi is injective,
so every other product of generators is zero on both sides.
"""

from fractions import Fraction
from math import gcd

from .errors import GradixError, ValidationError
from .matrix_ring import MatrixRing

DEFAULT_COBOUNDARY_BOUND = 12
# Over F_p the coboundary solve tabulates a discrete logarithm for every
# element of F_p^*: about 0.16 s and 25 MB at this ceiling on p - 1.
MAX_DLOG_ORDER = 2**18


# -- product-ring elements ---------------------------------------------------


class ProductElement:
    """A homogeneous element of a product of matrix-ring blocks.

    One part per block; the nonzero parts all share the same degree.
    """

    def __init__(self, spec, parts):
        self.spec = spec
        self.parts = tuple(parts)
        degrees = {p.degree for p in self.parts if not p.is_zero}
        if len(degrees) > 1:
            raise GradixError("product element parts disagree on the degree")
        self.degree = degrees.pop() if degrees else None

    @property
    def is_zero(self):
        return self.degree is None

    def add(self, other):
        return ProductElement(
            self.spec, [a.add(b) for a, b in zip(self.parts, other.parts)]
        )

    def neg(self):
        return ProductElement(self.spec, [a.neg() for a in self.parts])

    def mul(self, other):
        return ProductElement(
            self.spec, [a.mul(b) for a, b in zip(self.parts, other.parts)]
        )

    def equal(self, other):
        return all(a.equal(b) for a, b in zip(self.parts, other.parts))


class SemisimpleRingSpec:
    """A product of matrix-ring blocks in concentrated singleton form."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ValidationError("block.support_at_base", "a spec needs at least one block")
        self._bases = []
        ambient = None
        field = None
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
            if ambient is None:
                ambient = blk.ring.groupoid
                field = blk.ring.field
            else:
                if blk.ring.groupoid.to_json() != ambient.to_json():
                    raise ValidationError(
                        "block.common_grading", f"block {j} is graded by a different groupoid"
                    )
                if blk.ring.field != field:
                    raise ValidationError(
                        "block.common_grading", f"block {j} lives over a different field"
                    )
        self.groupoid = ambient
        self.field = field

    def base_object(self, j):
        return self._bases[j]

    def signature(self, j, k):
        """The single morphism of block j, index k."""
        return self.blocks[j].signatures[k][0]

    def block_size(self, j):
        return self.blocks[j].size

    def indices_at(self, j, e):
        """K_{j,e}: indices of block j whose signature starts at e."""
        return tuple(
            k for k in range(self.block_size(j)) if self.signature(j, k).source == e
        )

    def blocks_at(self, e):
        """J_e: blocks with at least one index at e."""
        return tuple(j for j in range(len(self.blocks)) if self.indices_at(j, e))

    def index_count(self, e):
        """n_e: total number of indices over all blocks starting at e."""
        return sum(len(self.indices_at(j, e)) for j in range(len(self.blocks)))

    def objects(self):
        """All objects carrying at least one index, sorted."""
        out = set()
        for j in range(len(self.blocks)):
            for k in range(self.block_size(j)):
                out.add(self.signature(j, k).source)
        return sorted(out)

    def summability(self):
        """Per object, the blocks meeting it; the finiteness witness."""
        return {e: self.blocks_at(e) for e in self.objects()}

    def total_size(self):
        return sum(self.block_size(j) for j in range(len(self.blocks)))

    def global_index(self, j, k):
        """1-based position of block j, index k in the concatenated index list."""
        return sum(self.block_size(jp) for jp in range(j)) + k + 1

    # -- product arithmetic --------------------------------------------------

    def zero(self):
        return ProductElement(self, [blk.zero() for blk in self.blocks])

    def single(self, j, element):
        """The product element supported in block j only."""
        parts = [blk.zero() for blk in self.blocks]
        parts[j] = element
        return ProductElement(self, parts)

    def identity_at(self, e):
        return ProductElement(self, [blk.identity_at(e) for blk in self.blocks])

    def component_dimension(self, gamma):
        return sum(blk.component_dimension(gamma) for blk in self.blocks)


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
    """The smallest object held by exactly one index of block j and by no
    other block, or None."""
    for k in range(spec.block_size(j)):
        e = spec.signature(j, k).source
        if len(spec.indices_at(j, e)) != 1:
            continue
        if any(spec.indices_at(jp, e) for jp in range(len(spec.blocks)) if jp != j):
            continue
        return e
    return None


def _verify_ipbn_witness(spec, e, members, singleton_of):
    """Check AB = identity at e and BA = the diagonal of local identities.

    ``members`` lists the (block, index) pairs at the crowded object;
    ``singleton_of`` maps a block to its exclusive singleton index.
    A is the row of E_{k, c_j}, B the column of E_{c_j, k}.
    """
    row = []
    col = []
    for (j, k) in members:
        c = singleton_of[j]
        row.append(spec.single(j, spec.blocks[j].e_unit(k, c)))
        col.append(spec.single(j, spec.blocks[j].e_unit(c, k)))
    ab = spec.zero()
    for a, b in zip(row, col):
        ab = ab.add(a.mul(b))
    if not ab.equal(spec.identity_at(e)):
        raise GradixError("internal error: pseudo-basis witness failed the AB identity")
    for s, b in enumerate(col):
        for t, a in enumerate(row):
            prod = b.mul(a)
            if s == t:
                j = members[s][0]
                f = spec.signature(j, singleton_of[j]).source
                if not prod.equal(spec.identity_at(f)):
                    raise GradixError("internal error: pseudo-basis witness failed the BA diagonal")
            else:
                if not prod.is_zero:
                    raise GradixError("internal error: pseudo-basis witness has off-diagonal terms")


def classify(spec):
    """Classification flags with certificates for a semisimple spec.

    A bare matrix ring is decomposed into its blocks first.
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
        blocks_here = spec.blocks_at(e)
        singleton_of = {}
        for j in blocks_here:
            f = _exclusive_singleton(spec, j)
            if f is None:
                break
            singleton_of[j] = spec.indices_at(j, f)[0]
        else:
            members = [(j, k) for j in blocks_here for k in spec.indices_at(j, e)]
            _verify_ipbn_witness(spec, e, members, singleton_of)
            ipbn = False
            witnesses["ipbn"] = (
                f"the module at object {e} has verified pseudo-bases of sizes 1 and {len(members)}"
            )
            witnesses["ipbn_data"] = {"object": e, "sizes": (1, len(members))}
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
    the class representative, with connecting degrees chosen as the
    first supported morphism in sort order.  The per-degree dimensions
    of the product are checked against the original ring.
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
        corner = d.corner(base)
        sigs = []
        for (i, s) in members:
            if s.target == base:
                connect = g.identity(base)
            else:
                candidates = sorted(
                    m for m in d.support if m.source == s.target and m.target == base
                )
                if not candidates:
                    raise GradixError(
                        f"no supported morphism connects {s.target} to the class base {base}"
                    )
                connect = candidates[0]
            sigs.append([g.compose(connect, s)])
        blocks.append(MatrixRing(corner, sigs))
        provenance.append(tuple(members))

    spec = SemisimpleRingSpec(blocks)
    spec.provenance = tuple(provenance)

    for gamma in g.morphisms():
        want = ring.component_dimension(gamma)
        got = spec.component_dimension(gamma)
        if want != got:
            raise GradixError(
                f"internal error: dimension audit failed at {gamma}: {want} != {got}"
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


def _mat_vec(m, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in m]


def solve_integer_system(rows, b):
    """One integer solution of rows * x = b, or None."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    a = [list(r) for r in rows]
    a, u, v = _smith(a, nrows, ncols)
    y = _mat_vec(u, b)
    xp = [0] * ncols
    for k in range(nrows):
        dk = a[k][k] if k < ncols else 0
        if dk == 0:
            if y[k] != 0:
                return None
        else:
            if y[k] % dk:
                return None
            xp[k] = y[k] // dk
    return _mat_vec(v, xp)


def solve_modular_system(rows, b, m):
    """One solution of rows * x = b over the integers mod m, or None."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    a = [list(r) for r in rows]
    a, u, v = _smith(a, nrows, ncols)
    y = [val % m for val in _mat_vec(u, b)]
    xp = [0] * ncols
    for k in range(nrows):
        dk = a[k][k] if k < ncols else 0
        if dk == 0:
            if y[k] % m:
                return None
        else:
            gg = gcd(dk, m)
            if y[k] % gg:
                return None
            mm = m // gg
            xp[k] = (y[k] // gg) * pow((dk // gg) % mm, -1, mm) % mm if mm > 1 else 0
    return [val % m for val in _mat_vec(v, xp)]


def _primitive_root(p):
    if p == 2:
        return 1
    order = p - 1
    factors = set()
    n = order
    q = 2
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise GradixError(f"no primitive root mod {p}")


def _factor_fraction(fr):
    """Sign bit and prime exponent dict of a nonzero rational."""
    sign = 1 if fr < 0 else 0
    exps = {}
    for val, direction in ((abs(fr.numerator), 1), (fr.denominator, -1)):
        n = val
        q = 2
        while q * q <= n:
            while n % q == 0:
                exps[q] = exps.get(q, 0) + direction
                n //= q
            q += 1
        if n > 1:
            exps[n] = exps.get(n, 0) + direction
    return sign, exps


def solve_coboundary(d1, d2, tau, bound=DEFAULT_COBOUNDARY_BOUND):
    """A map c: supp(d1) -> units with c(s)c(t)f2(s',t') = f1(s,t)c(st),
    primes denoting tau-conjugates, or None when the twists differ.

    That is exactly the condition making a |-> c(deg a) a ring map from
    the first twist to the tau-conjugated second.

    Both rings must be concentrated blocks and tau must conjugate the
    first support onto the second.
    """
    g = d1.groupoid
    field = d1.field
    supp = sorted(d1.support)
    if len(supp) > bound:
        raise GradixError(
            f"support size {len(supp)} exceeds the coboundary bound {bound}; raise it explicitly"
        )
    if field.kind == "Fp" and field.p - 1 > MAX_DLOG_ORDER:
        raise GradixError(
            f"F_{field.p} needs a discrete-log table of p - 1 entries, "
            f"above the ceiling MAX_DLOG_ORDER = {MAX_DLOG_ORDER}"
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

    if field.kind == "Fp":
        p = field.p
        root = _primitive_root(p)
        dlog = {}
        acc = 1
        for k in range(p - 1):
            dlog[acc] = k
            acc = acc * root % p
        b = [dlog[r] for r in ratios]
        exps = solve_modular_system(rows, b, p - 1)
        if exps is None:
            return None
        c = {s: pow(root, exps[index[s]] % (p - 1), p) for s in supp}
    else:
        signs = []
        factored = []
        primes = set()
        for r in ratios:
            sg, ex = _factor_fraction(Fraction(r))
            signs.append(sg)
            factored.append(ex)
            primes.update(ex)
        sign_sol = solve_modular_system(rows, signs, 2)
        if sign_sol is None:
            return None
        exps_by_prime = {}
        for q in sorted(primes):
            b = [ex.get(q, 0) for ex in factored]
            sol = solve_integer_system(rows, b)
            if sol is None:
                return None
            exps_by_prime[q] = sol
        c = {}
        for s in supp:
            val = Fraction(-1 if sign_sol[index[s]] % 2 else 1)
            for q, sol in exps_by_prime.items():
                val *= Fraction(q) ** sol[index[s]]
            c[s] = val

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

    def map_scalar(self, a):
        """The base-ring map: conjugate the degree by tau, twist the coefficient."""
        if a.is_zero:
            return self.target.ring.zero()
        g = self.source.ring.groupoid
        new_degree = g.compose(self.tau, g.compose(a.degree, g.inverse(self.tau)))
        field = self.source.ring.field
        return self.target.ring.scalar(new_degree, field.mul(self.coboundary[a.degree], a.coeff))

    def apply(self, x):
        """Carry a homogeneous element of the source block to the target."""
        if x.is_zero:
            return self.target.zero()
        d = self.source.ring
        out_entries = {}
        field = d.field
        for (i, j), coeff in x.entries.items():
            slot = self.source.slot_degree(i, j, x.degree)
            a = d.scalar(slot, coeff)
            conj = d.mul(d.mul(self.units[i], a), d.inv(self.units[j]))
            image = self.map_scalar(conj)
            key = (self.pi[i], self.pi[j])
            prev = out_entries.get(key, field.zero())
            out_entries[key] = field.add(prev, image.coeff)
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


def _find_certificate(block1, block2, bound):
    """The first conjugating morphism, coboundary and index matching found,
    as an unverified IsoCertificate, or None."""
    for blk in (block1, block2):
        SemisimpleRingSpec([blk])
    d1, d2 = block1.ring, block2.ring
    g = d1.groupoid
    if g.to_json() != d2.groupoid.to_json():
        raise GradixError("blocks are graded by different groupoids")
    if d1.field != d2.field:
        raise GradixError("blocks live over different fields")
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
        c = solve_coboundary(d1, d2, tau, bound=bound)
        if c is None:
            continue
        candidates = []
        connectors = {}
        for i in range(block1.size):
            si = block1.signatures[i][0]
            row = []
            for ip in range(block2.size):
                sp = block2.signatures[ip][0]
                if sp.source != si.source:
                    continue
                h = g.compose(tau_inv, g.compose(sp, g.inverse(si)))
                if h in d1.support:
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
        if u.is_zero or sp.source != s.source:
            raise GradixError(f"internal error: certificate pairs index {i} with a mismatched index")
        r = g.compose(sp, g.inverse(s))
        shift.append((r, g.inverse(r)))
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
                if conj[pos[w.degree]] != g.compose(shift[i][0], g.compose(h, shift[j][1])):
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


def iso_test(block1, block2, coboundary_bound=DEFAULT_COBOUNDARY_BOUND):
    """Search for a graded isomorphism between two blocks.

    Returns an IsoCertificate verified by ``_verify_certificate`` (on the
    products E_ij(h) E_jl(h') only, which is complete: every other
    generator pair is zero on both sides), or None when no conjugating
    morphism, signature matching and coboundary exist.
    """
    cert = _find_certificate(block1, block2, coboundary_bound)
    if cert is not None:
        _verify_certificate(cert)
    return cert


def spec_iso(spec1, spec2, coboundary_bound=DEFAULT_COBOUNDARY_BOUND):
    """Blockwise isomorphism of two semisimple specs.

    Returns a list pairing each block of the first spec with a block of
    the second and the certificate, or None.  Every block pair is
    searched, but only the n certificates of the final matching are
    verified, each as in ``iso_test``; a None answer verifies none.
    """
    n = len(spec1.blocks)
    if n != len(spec2.blocks):
        return None
    certs = {}
    candidates = []
    for j, blk in enumerate(spec1.blocks):
        row = []
        for jp, other in enumerate(spec2.blocks):
            cert = _find_certificate(blk, other, coboundary_bound)
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
    g = d.groupoid
    here = [k for k in range(block.size) if block.signatures[k][0].source == e]
    if not here:
        raise GradixError(f"object {e} carries no index of this block")
    parent = {k: k for k in here}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in here:
        for b in here:
            sa = block.signatures[a][0]
            sb = block.signatures[b][0]
            if g.compose(sa, g.inverse(sb)) in d.support:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    sizes = {}
    for k in here:
        r = find(k)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values())


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
        total += sum(len(spec.indices_at(j, e)) for j in range(len(spec.blocks)))
    return total
