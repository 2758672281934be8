"""Rings of small preadditive categories over the pair groupoid.

Two entry points.  A category in matrix form carries, per block, a scalar
field and a multiplicity for every object; hom groups are block-diagonal
spaces of rectangular matrices and everything about the category is
numeric.  A raw category carries hom-space dimensions, composition
structure constants and identity vectors; one read from a file is
validated exhaustively and is then its own structure-constant graded
ring, but the classification predicates refuse it.  The raw
category that spells out a matrix-form category in matrix units is valid
by construction and is built without that check.

The grading is by the pair groupoid on the object list: the component at
the pair (A, B) is the hom group of morphisms B -> A, and the ring
product is composition when the middle object matches, zero otherwise.
"""

from collections import defaultdict

from . import division, matrix_ring, structure
from .errors import FormatError, GradixError, ValidationError
from .groupoids import FiniteGroupoid, Morphism, is_index

# The largest total hom dimension, the sum of dim Hom(B, A) over all object
# pairs, of a raw category.  `gradix validate` of a one-object raw file of
# hom dimension 400 (8,000 structure constants, 160,000 associativity
# triples) takes 0.85-1.2 s in one process, 0.7 s of it validation (Python
# 3.11, one core of a shared 2-vCPU host), so the ceiling keeps reading a
# raw file near 1 s.  A matrix-form category is spelled out trusted.
MAX_HOM_DIMENSION = 400

# The largest total index count, the sum of n(j, A) over all blocks and
# objects, of the block family category_to_semisimple_spec builds: one
# signature per index.  A one-object category of multiplicity 10^5 takes
# 0.68 s in one process and grows it to 64 MB; 1.5 * 10^5 takes 1.04 s and
# 88 MB (Python 3.11, one core of a shared 2-vCPU host).  So the ceiling
# keeps the build under 1 s with room for a busy host.
MAX_SPEC_INDICES = 100_000


def check_hom_dimension(total):
    """Refuse a raw category whose hom dimensions add up past the ceiling,
    before any basis is built."""
    if total > MAX_HOM_DIMENSION:
        raise FormatError(
            f"total hom dimension {total} exceeds the ceiling MAX_HOM_DIMENSION = {MAX_HOM_DIMENSION}"
        )


class MatrixFormCategory:
    """Per-block fields and per-object multiplicities n(j, A)."""

    def __init__(self, objects, fields, dims):
        names = list(objects)
        if len(set(names)) != len(names):
            raise ValidationError("category.objects", f"duplicate object names in {names}")
        if not names:
            raise ValidationError("category.objects", "a category needs at least one object")
        self.objects = tuple(names)
        self.fields = tuple(fields)
        if not self.fields:
            raise ValidationError("category.dims", "at least one division ring is required")
        table = {}
        for name in names:
            if name not in dims:
                raise ValidationError("category.dims", f"object {name!r} has no multiplicity row")
            row = list(dims[name])
            if len(row) != len(self.fields):
                raise ValidationError(
                    "category.dims",
                    f"object {name!r} lists {len(row)} multiplicities for {len(self.fields)} blocks",
                )
            for n in row:
                if not is_index(n) or n < 0:
                    raise ValidationError(
                        "category.dims", f"multiplicity {n!r} at object {name!r} is not a count"
                    )
            table[name] = tuple(row)
        extra = set(dims) - set(names)
        if extra:
            raise ValidationError("category.dims", f"multiplicities for unknown objects {sorted(extra, key=repr)}")
        self.dims = table

    def multiplicity(self, j, name):
        return self.dims[name][j]

    def active_blocks(self):
        """Blocks with at least one index somewhere."""
        return [
            j
            for j in range(len(self.fields))
            if any(self.dims[name][j] for name in self.objects)
        ]


class CategoryFlags:
    def __init__(self, semisimple, simple_artinian, all_functors_free, division, witnesses):
        self.semisimple = semisimple
        self.simple_artinian = simple_artinian
        self.all_functors_free = all_functors_free
        self.division = division
        self.simple_division = division and simple_artinian
        self.witnesses = witnesses


def classify_category(cat):
    """Numeric classification of a matrix-form category.

    The flags are the ring's, read off the same multiplicity table: block
    j's runs are its nonzero n(j, A), in object order.  No ring is built,
    so blocks over different fields still classify.  Raw categories are
    refused as a FormatError: their semisimplicity is not decided here.
    """
    if not isinstance(cat, MatrixFormCategory):
        raise FormatError(
            "raw categories only get validation and a ring; classification "
            "needs the matrix form with explicit per-object multiplicities"
        )
    table = [[(a, cat.dims[a][j]) for a in cat.objects if cat.dims[a][j]] for j in range(len(cat.fields))]
    counts, crowded, singles = structure.multiplicities(table, cat.objects)
    active = [j for j, runs in enumerate(table) if runs]
    witnesses = {"simple_artinian": f"{len(active)} nonzero blocks"}
    lacking = [j for j in active if singles[j] is None]
    if lacking:
        witnesses["all_functors_free"] = f"block {lacking[0]} has no object of multiplicity one to itself"
    else:
        witnesses["all_functors_free"] = {j: singles[j] for j in active}
    if crowded:
        witnesses["division"] = f"object {crowded[0]!r} has total multiplicity {counts[crowded[0]]}"
    else:
        witnesses["division"] = "every object has total multiplicity at most one"
    return CategoryFlags(True, len(active) == 1, not lacking, not crowded, witnesses)


def category_to_semisimple_spec(cat):
    """The block family of matrix rings realizing the category's ring.

    One block per active j, over the field at the block's first populated
    object, with one singleton signature per copy of every object.  A
    category with more than MAX_SPEC_INDICES indices in all is refused
    before anything is built.
    """
    active = cat.active_blocks()
    if not active:
        raise GradixError("the zero category has no semisimple block form")
    total = sum(sum(row) for row in cat.dims.values())
    if total > MAX_SPEC_INDICES:
        raise FormatError(
            f"total index count {total} exceeds the ceiling MAX_SPEC_INDICES = {MAX_SPEC_INDICES}"
        )
    groupoid = FiniteGroupoid.pair(list(range(len(cat.objects))))
    index = {name: k for k, name in enumerate(cat.objects)}
    blocks = []
    for j in active:
        base = next(name for name in cat.objects if cat.multiplicity(j, name))
        ident = groupoid.identity(index[base])
        ring = division.GradedDivisionRing(
            cat.fields[j], groupoid, [ident], {(ident, ident): cat.fields[j].one()}
        )
        sigs = []
        for name in cat.objects:
            for _ in range(cat.multiplicity(j, name)):
                sigs.append([Morphism(0, index[base], 0, index[name])])
        blocks.append(matrix_ring.MatrixRing(ring, sigs))
    return structure.SemisimpleRingSpec(blocks)


# -- raw categories and their rings ------------------------------------------


class RawCategory:
    """Hom dimensions, composition structure constants, identity vectors.

    ``hom_dims`` maps a pair (A, B) to dim Hom(B, A); missing pairs are
    zero.  ``compose`` maps a basis pair ((A, B, i), (B, C, j)) to the
    coefficient dict {k: scalar} of the composite in the (A, C) basis;
    missing entries are zero composites.  ``identities`` maps each object
    to its coefficient dict over the (A, A) basis.  The constructor
    checks all axioms exhaustively; ``_trusted`` builds a category from
    structure constants that satisfy them by construction.

    A valid category is also its ring: the component at the object pair
    (A, B) is Hom(B, A), and the product is the compose table.
    """

    def __init__(self, objects, field, hom_dims, compose, identities):
        names = list(objects)
        if len(set(names)) != len(names) or not names:
            raise ValidationError("category.objects", f"bad object list {names}")
        self.objects = tuple(names)
        self.field = field
        dims = {}
        for key, dim in dict(hom_dims).items():
            a, b = key
            if a not in self.objects or b not in self.objects:
                raise ValidationError("category.hom", f"hom pair {key!r} names unknown objects")
            if not is_index(dim) or dim < 0:
                raise ValidationError("category.hom", f"hom dimension {dim!r} at {key!r}")
            if dim:
                dims[(a, b)] = dim
        self.hom_dims = dims
        self.compose_table = {}
        for (left, right), coeffs in dict(compose).items():
            la, lb, li = left
            ra, rb, rj = right
            if lb != ra:
                raise ValidationError(
                    "category.hom", f"composite {left!r} after {right!r} has mismatched middle objects"
                )
            if not (0 <= li < self.component_dimension(la, lb)) or not (0 <= rj < self.component_dimension(ra, rb)):
                raise ValidationError("category.hom", f"basis index out of range in {left!r} o {right!r}")
            clean = self._vector(
                coeffs, (la, rb), "category.hom", f"composite of {left!r} and {right!r} hits bad index"
            )
            if clean:
                self.compose_table[(left, right)] = clean
        self.identities = {}
        for name in self.objects:
            raw = identities.get(name)
            if raw is None:
                raise ValidationError("category.identity", f"object {name!r} has no identity vector")
            self.identities[name] = self._vector(
                raw, (name, name), "category.identity", f"identity of {name!r} uses bad basis index"
            )
        extra = set(identities) - set(self.objects)
        if extra:
            raise ValidationError(
                "category.identity", f"identity vectors for unknown objects {sorted(extra, key=repr)}"
            )
        self._validate()

    def _vector(self, coeffs, pair, invariant, bad_index):
        """A coefficient dict over the basis of Hom at pair, zeros dropped."""
        clean, dim = {}, self.component_dimension(*pair)
        for k, raw in dict(coeffs).items():
            if not (0 <= k < dim):
                raise ValidationError(invariant, f"{bad_index} {k}")
            v = self.field.coerce(raw)
            if not self.field.is_zero(v):
                clean[k] = v
        return clean

    @classmethod
    def _trusted(cls, objects, field, hom_dims, compose_table, identities):
        """A category built without ``__init__`` or ``_validate``, from data
        already in normal form (no zero dimension or coefficient) whose
        axioms hold by construction; only ``raw_from_matrix_form`` calls it."""
        cat = cls.__new__(cls)
        cat.objects = tuple(objects)
        cat.field = field
        cat.hom_dims = hom_dims
        cat.compose_table = compose_table
        cat.identities = identities
        return cat

    def component_dimension(self, a, b):
        """dim Hom(B, A), the dimension of the ring's component at (A, B)."""
        return self.hom_dims.get((a, b), 0)

    def support(self):
        """Object pairs with nonzero components, sorted."""
        return sorted(self.hom_dims)

    def _validate(self):
        """Both identity laws on every basis morphism, then associativity on
        every basis triple where a bracketing can be nonzero.

        The compose table and the identity vectors are put over one common
        denominator d once, so every composite is an integer sum over d^2,
        reduced once when compared.  (uv)w can be nonzero only if w composes
        nonzero with some basis morphism in the support of uv, and u(vw)
        only if u composes nonzero with some basis morphism in the support
        of vw; every other triple is zero on both sides, so the candidates
        come from the nonzero entries of the compose table.  The failure
        reported is the first failing triple in the order of the
        all-triples loop: hom pairs, then basis indices.
        """
        field = self.field
        # basis morphisms numbered in hom-pair order; a pair (x, y) is x * n + y
        start, basis = {}, []
        for (a, b), dim in self.hom_dims.items():
            start[(a, b)] = len(basis)
            basis += [(a, b, i) for i in range(dim)]
        n = len(basis)
        table = self.compose_table
        values = [c for coeffs in table.values() for c in coeffs.values()]
        values += [c for coeffs in self.identities.values() for c in coeffs.values()]
        nums, d = field.integers(values)
        nums = iter(nums)
        rows, right_of, left_of = {}, {}, {}
        for ((a, b, i), (_, c, j)), coeffs in table.items():
            x, y, z = start[(a, b)] + i, start[(b, c)] + j, start[(a, c)]
            rows[x * n + y] = [(z + k, next(nums)) for k in coeffs]
            right_of.setdefault(x, []).append(y)
            left_of.setdefault(y, []).append(x)
        identity = {
            name: [(start[(name, name)] + k, next(nums)) for k in coeffs]
            for name, coeffs in self.identities.items()
        }
        quotient, dd = field.quotient, d * d

        def fixes(x, products):
            """Whether the composites, (row key, coefficient) pairs, sum to x."""
            sums = defaultdict(int)
            sums[x] = -dd
            for key, c in products:
                for z, y in rows.get(key, ()):
                    sums[z] += c * y
            return not any(s and not field.is_zero(quotient(s, dd)) for s in sums.values())

        for x, (a, b, _) in enumerate(basis):
            if not fixes(x, [(u * n + x, c) for u, c in identity[a]]):
                raise ValidationError("category.identity", f"I_{a!r} does not fix basis morphism {basis[x]}")
            if not fixes(x, [(x * n + w, c) for w, c in identity[b]]):
                raise ValidationError("category.identity", f"basis morphism {basis[x]} is not fixed by I_{b!r}")
        triples = set()
        for key, uv in rows.items():
            u, v = divmod(key, n)
            for z, _ in uv:
                triples.update((u, v, w) for w in right_of.get(z, ()))
        for key, vw in rows.items():
            v, w = divmod(key, n)
            for z, _ in vw:
                triples.update((u, v, w) for u in left_of.get(z, ()))
        failed = []
        for u, v, w in triples:
            sums = defaultdict(int)
            for z, x in rows.get(u * n + v, ()):
                for k, y in rows.get(z * n + w, ()):
                    sums[k] += x * y
            for z, x in rows.get(v * n + w, ()):
                for k, y in rows.get(u * n + z, ()):
                    sums[k] -= x * y
            if any(s and not field.is_zero(quotient(s, dd)) for s in sums.values()):
                failed.append(tuple(basis[t] for t in (u, v, w)))
        if failed:
            place = {pair: k for k, pair in enumerate(self.hom_dims)}
            u, v, w = min(failed, key=lambda t: tuple(place[x[:2]] for x in t) + tuple(x[2] for x in t))
            raise ValidationError(
                "category.associativity", f"({u} o {v}) o {w} differs from the right-bracketing"
            )


def ring_of_category(raw):
    """The graded ring of a raw category, which is the category itself,
    valid once built: validated by the constructor, or spelled out in
    matrix units."""
    if not isinstance(raw, RawCategory):
        raise GradixError("ring construction needs a RawCategory")
    return raw


def raw_from_matrix_form(cat):
    """Spell out a matrix-form category as structure constants.

    The basis of Hom(B, A) is the matrix units E(j, p, q) of every block j,
    with p < n(j, A) and q < n(j, B), in that order; composition contracts
    the inner index within a block, E(j, p, q) E(j, q, s) = E(j, p, s), and
    only those composing pairs are written.  Used to cross-check the ring's
    per-degree dimensions against the product formula.

    The result is built without revalidation: matrix units compose
    associatively, and the identity of each object is the sum of its
    diagonal units E(j, p, p), so both identity laws hold.  The hom
    dimension ceiling and the single-field check still run first.
    """
    active = cat.active_blocks()
    fields = {cat.fields[j] for j in active} or {cat.fields[0]}
    if len(fields) > 1:
        raise ValidationError("category.common_field", "structure constants need a single scalar field")
    field = fields.pop()
    check_hom_dimension(sum(sum(cat.multiplicity(j, a) for a in cat.objects) ** 2 for j in active))

    one = field.one()
    # offset[(a, b)][j]: the position of block j's first unit in the (a, b) basis
    offset, hom_dims = {}, {}
    for a in cat.objects:
        for b in cat.objects:
            offset[(a, b)] = starts = [0]
            for na, nb in zip(cat.dims[a], cat.dims[b]):
                starts.append(starts[-1] + na * nb)
            if starts[-1]:
                hom_dims[(a, b)] = starts[-1]
    compose = {}
    for j in active:
        live = [(a, cat.multiplicity(j, a)) for a in cat.objects if cat.multiplicity(j, a)]
        for a, na in live:
            for b, nb in live:
                for c, nc in live:
                    ab, bc, ac = offset[(a, b)][j], offset[(b, c)][j], offset[(a, c)][j]
                    for p in range(na):
                        for q in range(nb):
                            left = (a, b, ab + p * nb + q)
                            for s in range(nc):
                                compose[(left, (b, c, bc + q * nc + s))] = {ac + p * nc + s: one}
    identities = {
        a: {offset[(a, a)][j] + p * (n + 1): one for j, n in enumerate(cat.dims[a]) for p in range(n)}
        for a in cat.objects
    }
    return RawCategory._trusted(cat.objects, field, hom_dims, compose, identities)
