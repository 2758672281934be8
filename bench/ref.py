"""Reference arithmetic for the benchmark, written from the definitions.

Nothing here imports gradix.  A morphism is a plain tuple
(block, target, elem, source) running source -> target; a groupoid is a
list of blocks, each an object tuple and a group multiplication table; a
graded division ring is a field, a groupoid, a support set and a factor
dict; a matrix is a row signature, a column signature and a dict of
nonzero coefficients.  The product of two matrices is the plain
coefficient product twisted by the factor set, so the benchmark can check
the program's answers without trusting any of its code.
"""

from fractions import Fraction


class Field:
    """Q when p is None, else F_p.  Elements are Fraction or int in range(p)."""

    def __init__(self, p=None):
        self.p = p

    def norm(self, x):
        return Fraction(x) if self.p is None else x % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def inv(self, a):
        return 1 / Fraction(a) if self.p is None else pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0 if self.p is None else a % self.p == 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def to_json(self, a):
        if self.p is not None:
            return a % self.p
        a = Fraction(a)
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def spec(self):
        return {"kind": "Q"} if self.p is None else {"kind": "Fp", "p": self.p}

    def sample(self, rng, nonzero=False):
        while True:
            if self.p is None:
                x = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
            else:
                x = rng.randrange(self.p)
            if x != 0 or not nonzero:
                return x


class Group:
    """A finite group by its multiplication table, with inverses looked up once."""

    def __init__(self, mult):
        self.mult = [list(row) for row in mult]
        self.order = len(mult)
        self.identity = next(e for e in range(self.order) if all(self.mult[e][x] == x for x in range(self.order)))
        self.inv = [next(y for y in range(self.order) if self.mult[x][y] == self.identity) for x in range(self.order)]


def cyclic(n):
    return Group([[(i + j) % n for j in range(n)] for i in range(n)])


def direct_product(g, h):
    m = h.order
    return Group(
        [[g.mult[a // m][c // m] * m + h.mult[a % m][c % m] for c in range(g.order * m)] for a in range(g.order * m)]
    )


def symmetric3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: k for k, p in enumerate(perms)}
    return Group([[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms])


class Groupoid:
    """Disjoint union of blocks (objects, group); morphisms are (block, target, elem, source)."""

    def __init__(self, blocks):
        self.blocks = [(tuple(sorted(objs)), grp) for objs, grp in blocks]
        self.block_of = {x: b for b, (objs, _) in enumerate(self.blocks) for x in objs}

    def objects(self):
        return sorted(self.block_of)

    def compose(self, s, t):
        """s o t (t first), or None when source(s) != target(t)."""
        if s[0] != t[0] or s[3] != t[1]:
            return None
        return (s[0], s[1], self.blocks[s[0]][1].mult[s[2]][t[2]], t[3])

    def inverse(self, m):
        return (m[0], m[3], self.blocks[m[0]][1].inv[m[2]], m[1])

    def morphisms(self):
        for b, (objs, grp) in enumerate(self.blocks):
            for y in objs:
                for g in range(grp.order):
                    for x in objs:
                        yield (b, y, g, x)

    def spec(self):
        return {"blocks": [{"objects": list(objs), "group": {"mult": grp.mult}} for objs, grp in self.blocks]}


class Ring:
    """A graded division ring with one-dimensional components: u_s u_t = factor[s, t] u_st."""

    def __init__(self, field, groupoid, support, factor):
        self.field = field
        self.groupoid = groupoid
        self.support = frozenset(support)
        self.factor = dict(factor)

    def spec(self):
        f = self.field
        return {
            "field": f.spec(),
            "groupoid": self.groupoid.spec(),
            "support": [list(m) for m in sorted(self.support)],
            "factor": [[list(s), list(t), f.to_json(c)] for (s, t), c in sorted(self.factor.items())],
        }

    def gamma0(self):
        return sorted({m[3] for m in self.support})


class Matrix:
    """A graded matrix: the (i, j) slot has degree row_sig[i] o col_sig[j]^-1."""

    def __init__(self, row_sig, col_sig, entries):
        self.row_sig = tuple(row_sig)
        self.col_sig = tuple(col_sig)
        self.entries = dict(entries)

    def spec(self, field):
        """The matrix's signature and entry slots of a spec file (the ring slot is left to the caller)."""
        return {
            "row_signature": [list(m) for m in self.row_sig],
            "col_signature": [list(m) for m in self.col_sig],
            "entries": [[i, j, field.to_json(c)] for (i, j), c in sorted(self.entries.items())],
        }


def slot(ring, row, col):
    """The degree of a slot between a row and a column signature entry, or None when dead."""
    g = ring.groupoid
    d = g.compose(row, g.inverse(col))
    return d if d is not None and d in ring.support else None


def mat_mul(ring, a, b):
    """The twisted coefficient product [alpha][beta] x [beta][tau] -> [alpha][tau]."""
    if a.col_sig != b.row_sig:
        raise ValueError("signature mismatch")
    f = ring.field
    by_row = {}
    for (k, j), c in b.entries.items():
        by_row.setdefault(k, []).append((j, c))
    out = {}
    for (i, k), x in a.entries.items():
        dx = slot(ring, a.row_sig[i], a.col_sig[k])
        for j, y in by_row.get(k, ()):
            dy = slot(ring, b.row_sig[k], b.col_sig[j])
            t = f.mul(f.mul(x, y), ring.factor[(dx, dy)])
            out[(i, j)] = f.add(out.get((i, j), 0), t)
    return Matrix(a.row_sig, b.col_sig, {k: v for k, v in out.items() if not f.is_zero(v)})


def identity(ring, sig):
    return Matrix(sig, sig, {(i, i): ring.field.one() for i in range(len(sig))})


def same_matrix(ring, a, b):
    f = ring.field
    if a.row_sig != b.row_sig or a.col_sig != b.col_sig:
        return False
    keys = set(a.entries) | set(b.entries)
    return all(f.is_zero(f.add(a.entries.get(k, 0), -b.entries.get(k, 0))) for k in keys)
