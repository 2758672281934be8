"""The ``structure`` workload: decomposition, classification, isomorphism, categories.

Two matrix rings over rings whose supports split into primality classes
(one connected groupoid with C_4 isotropy; each class takes a subgroup),
one over Q and one over F_101, and two matrix-form categories with two
blocks each.  For each ring a round asks: the block decomposition, the
classification flags, isomorphism with a disguised copy (indices
permuted, signatures shifted by supported morphisms, factor set twisted
by a random coboundary: isomorphic), and isomorphism with a copy whose
largest class carries a cocycle of another class (not isomorphic).  For
each category: its ring through raw structure constants, and its
classification.  The index pattern is fixed by position, so only the
degrees and coefficients depend on the seed, and the work does not.
"""

import random

import checks
import gen
from harness import Job
from ref import Field

# label, p, objects, group order, class sizes, subgroup orders, indices per class, two-class index sets.
RINGS = [
    ("q7", None, 7, 4, (3, 3), (4, 2), (1, 2), 1),
    ("f101", 101, 8, 4, (2, 3, 2), (4, 2, 4), (1, 2, 1), 1),
    ("q6", None, 6, 2, (2, 2, 2), (2, 2, 1), (2, 1, 1), 1),
]
# label, p, per-object multiplicities over two blocks.
CATEGORIES = [
    ("cat6", None, [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (1, 0)]),
    ("cat5", 101, [(1, 0), (0, 1), (1, 1), (0, 2), (1, 0)]),
]


def make(seed):
    """Spec data and the facts each answer must match; nothing here touches gradix."""
    rng = random.Random(seed)
    rings = []
    for label, p, n_obj, order, sizes, orders, indices, shared in RINGS:
        field = Field(p)
        ss = gen.Semisimple(rng, field, n_obj, order, sizes, orders, indices, shared)
        lam = gen.non_power(field, max(orders), rng)
        rings.append(
            dict(
                label=label,
                sizes=ss.block_sizes(),
                flags={"gr_simple": len(ss.block_sizes()) == 1, "gr_division": ss.gr_division(), "pfm": ss.pfm()},
                spec=ss.spec(),
                iso_spec=ss.iso_copy(rng),
                other_spec=ss.other_class_copy(rng, lam),
            )
        )
    cats = []
    for label, p, rows in CATEGORIES:
        cat = gen.Category(rng, Field(p), rows)
        dims = {(a, b): cat.hom_dim(a, b) for a in cat.objects for b in cat.objects}
        cats.append(dict(label=label, spec=cat.spec(), dims=dims, flags=cat.flags()))
    return dict(rings=rings, categories=cats)


def build(data):
    """Load every input through gradix's loaders; return the round's jobs."""
    from gradix.categories import classify_category, raw_from_matrix_form, ring_of_category
    from gradix.specfiles import load_category, load_matrix_ring
    from gradix.structure import classify, spec_iso, wedderburn_decompose

    jobs = []
    for r in data["rings"]:
        ring, twin, other = (load_matrix_ring(r[k]) for k in ("spec", "iso_spec", "other_spec"))

        def iso(a, b):
            return spec_iso(wedderburn_decompose(a), wedderburn_decompose(b)) is not None

        jobs += [
            Job(
                f"{r['label']}.decompose",
                lambda m=ring: [blk.size for blk in wedderburn_decompose(m).blocks],
                lambda got, r=r: checks.decomposition(got, r["sizes"]),
            ),
            Job(
                f"{r['label']}.classify",
                lambda m=ring: classify(m).as_dict(),
                lambda got, r=r: checks.flags(got, r["flags"]),
            ),
            Job(f"{r['label']}.iso", lambda a=ring, b=twin: iso(a, b), lambda got: checks.iso(got, True)),
            Job(f"{r['label']}.not_iso", lambda a=ring, b=other: iso(a, b), lambda got: checks.iso(got, False)),
        ]
    for c in data["categories"]:
        cat = load_category(c["spec"])

        def to_ring(cat=cat):
            ring = ring_of_category(raw_from_matrix_form(cat))
            return {(a, b): ring.component_dimension(a, b) for (a, b) in ring.support()}

        def flags(cat=cat):
            f = classify_category(cat)
            return {k: getattr(f, k) for k in ("simple_artinian", "all_functors_free", "division")}

        jobs += [
            Job(f"{c['label']}.to_ring", to_ring, lambda got, c=c: checks.hom_dims(got, c["dims"])),
            Job(f"{c['label']}.classify", flags, lambda got, c=c: checks.flags(got, c["flags"])),
        ]
    return jobs
