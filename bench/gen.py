"""Seeded input generators.

Every input is built in the reference representation of ``ref`` and
carries the answer its construction fixes (a rank, a span dimension, the
primality classes), so the checks never depend on gradix.  ``spec()``
methods turn the inputs into the JSON spec format the program reads.
"""

from fractions import Fraction
from math import gcd

from ref import Groupoid, Matrix, Ring, cyclic, mat_mul, slot

P = 10007


def is_identity(groupoid, m):
    return m[1] == m[3] and m[2] == groupoid.blocks[m[0]][1].identity


def coboundary_factor(field, groupoid, support, rng, twist=None):
    """The normalized factor set c(s)c(t)/c(st) of a random c, times an optional cocycle.

    A coboundary of a map that is 1 on identities is a normalized 2-cocycle,
    so the ring is valid whatever the seed; ``twist(s, t)`` multiplies in a
    further cocycle.
    """
    c = {m: field.one() if is_identity(groupoid, m) else field.sample(rng, nonzero=True) for m in support}
    factor = {}
    for s in support:
        for t in support:
            st = groupoid.compose(s, t)
            if st is None:
                continue
            v = field.mul(field.mul(c[s], c[t]), field.inv(c[st]))
            if twist is not None:
                v = field.mul(v, twist(s, t))
            factor[(s, t)] = v
    return factor


def full_ring(field, groupoid, rng):
    """Support = every morphism; a random coboundary as factor set."""
    support = list(groupoid.morphisms())
    return Ring(field, groupoid, support, coboundary_factor(field, groupoid, support, rng))


def cyclic_cocycle(n, lam):
    """The cocycle of F[x]/(x^n - lam) on C_n: lam when the exponents wrap, else 1."""
    return lambda a, b: lam if a + b >= n else 1


# -- signatures and matrices ------------------------------------------------


def sig_entry(rng, ring, source):
    """A random morphism out of ``source`` whose target lies in gamma0."""
    g = ring.groupoid
    b = g.block_of[source]
    objs, grp = g.blocks[b]
    gamma0 = set(ring.gamma0())
    return (b, rng.choice([y for y in objs if y in gamma0]), rng.randrange(grp.order), source)


def fill(rng, ring, rows, cols, keep, pivot=lambda i, j: i == j):
    """Random coefficients on the alive slots (i, j) with keep(i, j), nonzero where pivot(i, j)."""
    f = ring.field
    entries = {}
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            must = pivot(i, j)
            if not keep(i, j) or slot(ring, a, b) is None:
                if must:
                    raise ValueError(f"pivot slot ({i}, {j}) is dead")
                continue
            x = f.sample(rng, nonzero=must)
            if not f.is_zero(x):
                entries[(i, j)] = x
    return Matrix(rows, cols, entries)


def sources(ring, n, start=0):
    """Signature sources cycle through gamma0, so which slots are alive does not depend on the seed."""
    gamma0 = ring.gamma0()
    return [gamma0[(start + k) % len(gamma0)] for k in range(n)]


def signature(rng, ring, n, start=0):
    return [sig_entry(rng, ring, s) for s in sources(ring, n, start)]


def invertible(rng, ring, n):
    """A = L*U with L lower and U upper triangular, both with nonzero diagonals."""
    alpha, gamma, beta = (signature(rng, ring, n) for _ in range(3))
    lower = fill(rng, ring, alpha, gamma, lambda i, j: j <= i)
    upper = fill(rng, ring, gamma, beta, lambda i, j: j >= i)
    return mat_mul(ring, lower, upper)


def of_rank(rng, ring, m, n, r):
    """A = B*C of inner size r; B's top and C's left r x r blocks are invertible triangles.

    Every leading k x k minor with k <= r is then invertible, so a minor
    search finds each size on its first try and the work is fixed by the
    shape alone.
    """
    alpha, gamma, beta = signature(rng, ring, m), signature(rng, ring, r), signature(rng, ring, n)
    b = fill(rng, ring, alpha, gamma, lambda i, j: i >= r or j <= i)
    c = fill(rng, ring, gamma, beta, lambda i, j: j >= r or j >= i)
    return mat_mul(ring, b, c)


def random_matrix(rng, ring, rows, cols):
    return fill(rng, ring, rows, cols, lambda i, j: True, pivot=lambda i, j: False)


def column(rng, ring, sig):
    """A one-column matrix x0 in [sig][(c)] for a random column degree c."""
    return random_matrix(rng, ring, sig, signature(rng, ring, 1))


class Span:
    """k vectors in a module of pdim n whose span has pdim s, built as the columns of B*C.

    B's bottom s x s block is an invertible triangle, so the span meets the
    first n - s standard generators only in zero; C's left s x s block is
    an invertible triangle, so the first s vectors are independent.
    """

    def __init__(self, rng, ring, n, s, k):
        # The last s shifts share their sources with gamma, and kappa cycles
        # through the same s sources.  Column j of C is nonzero at row j mod s,
        # so no vector is zero.
        self.shifts = signature(rng, ring, n - s, start=s) + signature(rng, ring, s)
        gamma = signature(rng, ring, s)
        kappa = [sig_entry(rng, ring, x) for x in (sources(ring, s) * k)[:k]]
        top = n - s
        b = fill(rng, ring, self.shifts, gamma, lambda i, j: i < top or j <= i - top, lambda i, j: j == i - top)
        c = fill(rng, ring, gamma, kappa, lambda i, j: j >= s or j >= i, lambda i, j: i == j % s)
        cols = mat_mul(ring, b, c)
        g = ring.groupoid
        self.degrees = [g.inverse(x) for x in kappa]
        self.vectors = [{i: v for (i, l), v in cols.entries.items() if l == col} for col in range(k)]
        self.ring = ring
        self.pdim, self.span_pdim = n, s

    def spec(self, ring_spec):
        f = self.ring.field
        return {
            "module": {"ring": ring_spec, "shifts": [list(m) for m in self.shifts]},
            "vectors": [
                {"degree": list(d), "entries": [[i, f.to_json(c)] for i, c in sorted(v.items())]}
                for d, v in zip(self.degrees, self.vectors)
            ],
        }


# -- structure inputs ---------------------------------------------------------


class Semisimple:
    """A matrix ring over a ring whose support splits into primality classes.

    The groupoid is one block on ``n_objects`` objects with isotropy C_n.
    Class q holds the objects ``classes[q]`` and the subgroup of order
    ``orders[q]``; its support is every morphism between its objects whose
    group element lies in that subgroup.  ``indices[q]`` signatures target
    class q.  Objects in no class lie outside gamma0.
    """

    def __init__(self, rng, field, n_objects, group_order, class_sizes, orders, indices, shared=0):
        objs = list(range(n_objects))
        rng.shuffle(objs)
        self.classes = []
        at = 0
        for size in class_sizes:
            self.classes.append(sorted(objs[at:at + size]))
            at += size
        grp = cyclic(group_order)
        self.groupoid = Groupoid([(range(n_objects), grp)])
        self.orders = orders
        self.support = []
        for cls, order in zip(self.classes, orders):
            step = group_order // order
            self.support += [(0, y, e, x) for y in cls for x in cls for e in range(0, group_order, step)]
        self.field = field
        self.group_order = group_order
        self.factor = coboundary_factor(field, self.groupoid, self.support, rng)
        self.ring = Ring(field, self.groupoid, self.support, self.factor)
        # Sources are fixed by position, so the index pattern (and with it
        # gr-division and the work of classify) does not depend on the seed.
        self.signatures = []
        src = 0
        for q, count in enumerate(indices):
            for _ in range(count):
                self.signatures.append([self._into(rng, q, src % n_objects)])
                src += 1
        for q in range(shared):
            # One index whose signature set reaches two classes.
            a, b = q % len(self.classes), (q + 1) % len(self.classes)
            self.signatures.append(
                [self._into(rng, a, src % n_objects), self._into(rng, b, (src + 1) % n_objects)]
            )
            src += 2

    def _into(self, rng, q, source):
        return (0, rng.choice(self.classes[q]), rng.randrange(self.group_order), source)

    def class_of(self, obj):
        return next(q for q, cls in enumerate(self.classes) if obj in cls)

    def pairs(self):
        return [(i, s) for i, sig in enumerate(self.signatures) for s in sig]

    def block_sizes(self):
        """Sorted sizes of the blocks: one block per class, one row per signature pair in it."""
        sizes = {}
        for _, s in self.pairs():
            q = self.class_of(s[1])
            sizes[q] = sizes.get(q, 0) + 1
        return sorted(sizes.values())

    def gr_division(self):
        srcs = [s[3] for _, s in self.pairs()]
        return len(srcs) == len(set(srcs))

    def pfm(self):
        """Every class has an object carrying exactly one index of its own and none of another."""
        count = {}
        for _, s in self.pairs():
            count.setdefault(s[3], []).append(self.class_of(s[1]))
        for q in {self.class_of(s[1]) for _, s in self.pairs()}:
            if not any(v == [q] for v in count.values()):
                return False
        return True

    def spec(self):
        return {"ring": self.ring.spec(), "signatures": [[list(m) for m in sig] for sig in self.signatures]}

    def iso_copy(self, rng):
        """Indices permuted, signatures shifted by supported morphisms, factor twisted by a coboundary."""
        return self._copy(rng, None)

    def other_class_copy(self, rng, lam):
        """The same shape, with the class of largest isotropy twisted by x^n = lam."""
        q = max(range(len(self.classes)), key=lambda k: self.orders[k])
        order, step = self.orders[q], self.group_order // self.orders[q]
        psi = cyclic_cocycle(order, lam)
        cls = set(self.classes[q])

        def twist(s, t):
            if s[1] not in cls:
                return 1
            return self.field.norm(psi(s[2] // step, t[2] // step))

        return self._copy(rng, twist)

    def _copy(self, rng, twist):
        g = self.groupoid
        factor = coboundary_factor(self.field, g, self.support, rng)
        factor = {k: self.field.mul(v, self.factor[k]) for k, v in factor.items()}
        if twist is not None:
            factor = {(s, t): self.field.mul(v, twist(s, t)) for (s, t), v in factor.items()}
        ring = Ring(self.field, g, self.support, factor)
        sigs = []
        for sig in self.signatures:
            shifted = []
            for s in sig:
                moves = [m for m in self.support if m[3] == s[1]]
                shifted.append(g.compose(rng.choice(moves), s))
            sigs.append(shifted)
        rng.shuffle(sigs)
        return {"ring": ring.spec(), "signatures": [[list(m) for m in sig] for sig in sigs]}


def non_power(field, n, rng):
    """A scalar that is not an n-th power, so x^n = lam is a different class from x^n = 1."""
    if field.p is None:
        return Fraction(rng.choice((2, 3, 5, 7)))
    while True:
        lam = rng.randrange(2, field.p)
        if pow(lam, (field.p - 1) // gcd(n, field.p - 1), field.p) != 1:
            return lam


class Category:
    """A matrix-form category: per object, one multiplicity per block."""

    def __init__(self, rng, field, rows):
        rows = list(rows)
        rng.shuffle(rows)
        self.objects = [f"X{k}" for k in range(len(rows))]
        self.dims = {name: list(row) for name, row in zip(self.objects, rows)}
        self.blocks = len(rows[0])
        self.field = field

    def hom_dim(self, a, b):
        return sum(x * y for x, y in zip(self.dims[a], self.dims[b]))

    def flags(self):
        active = [j for j in range(self.blocks) if any(self.dims[o][j] for o in self.objects)]
        free = all(
            any(self.dims[o][j] == 1 and sum(self.dims[o]) == 1 for o in self.objects) for j in active
        )
        return {
            "simple_artinian": len(active) == 1,
            "all_functors_free": free,
            "division": all(sum(self.dims[o]) <= 1 for o in self.objects),
        }

    def spec(self):
        return {
            "objects": self.objects,
            "division_rings": [self.field.spec()] * self.blocks,
            "dims": self.dims,
        }
