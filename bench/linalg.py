"""The ``linalg`` workload: graded matrices and modules, no structure theory.

Two rings, each over F_10007 and (at a smaller size) over Q:

- ``dense``: the group ring of S_3 at one object, twisted by a random
  coboundary.  Every slot of every matrix is alive.
- ``sparse``: the full-support ring on 6 objects with C_2 isotropy.  A
  slot is alive only when its row and column signatures share a source,
  so about five slots in six are dead.

A round asks every case the same questions: invert, solve, multiply,
all four ranks past the minor-search bound (rank_all skips rho_i above
8 rows or columns), all four ranks with the bounded minor search, and the
span and quotient pseudo-dimensions of a family of vectors.
"""

import random

import checks
import gen
from harness import Job
from ref import Field, Groupoid, cyclic, mat_mul, symmetric3

# label, p (None for Q), ring, and sizes: invert/solve n; multiply (m, k, n);
# rank past the bound (m, n, r); bounded rank (m, n, r); module (pdim, span pdim, vectors).
# Every pdim_of_span call rebuilds and revalidates the opposite ring, which
# costs about 80 ms on the sparse ring over F_p and twice that over Q, so
# the sparse module is small and the Q sparse case asks no module question:
# one quotient there would take a third of the round.
CASES = [
    ("fp.dense", gen.P, "dense", 16, (16, 16, 16), (12, 10, 5), (6, 6, 4), (6, 3, 4)),
    ("fp.sparse", gen.P, "sparse", 24, (24, 24, 24), (16, 14, 8), (6, 6, 4), (2, 1, 1)),
    ("q.dense", None, "dense", 10, (10, 10, 10), (10, 9, 4), (5, 5, 3), (5, 2, 3)),
    ("q.sparse", None, "sparse", 12, (12, 12, 12), (12, 10, 5), (5, 5, 3), None),
]


def make_ring(rng, field, kind):
    if kind == "dense":
        groupoid = Groupoid([((0,), symmetric3())])
    else:
        groupoid = Groupoid([(range(6), cyclic(2))])
    return gen.full_ring(field, groupoid, rng)


def make(seed):
    """Spec data and the facts each answer must match; nothing here touches gradix."""
    rng = random.Random(seed)
    cases = []
    for label, p, kind, n_inv, n_mul, n_skip, n_minor, n_mod in CASES:
        ring = make_ring(rng, Field(p), kind)
        square = gen.invertible(rng, ring, n_inv)
        x0 = gen.column(rng, ring, square.col_sig)
        m, k, n = n_mul
        left = gen.random_matrix(rng, ring, gen.signature(rng, ring, m), gen.signature(rng, ring, k, start=1))
        right = gen.random_matrix(rng, ring, left.col_sig, gen.signature(rng, ring, n, start=2))
        cases.append(
            dict(
                label=label,
                ring=ring,
                square=square,
                rhs=mat_mul(ring, square, x0),
                left=left,
                right=right,
                skip=gen.of_rank(rng, ring, *n_skip),
                skip_rank=n_skip[2],
                minor=gen.of_rank(rng, ring, *n_minor),
                minor_rank=n_minor[2],
                span=n_mod and gen.Span(rng, ring, *n_mod),
            )
        )
    return [dict(c, specs=specs_of(c)) for c in cases]


def specs_of(case):
    ring = case["ring"]
    out = {"ring": ring.spec(), "span": case["span"] and case["span"].spec(None)}
    for key in ("square", "rhs", "left", "right", "skip", "minor"):
        out[key] = case[key].spec(ring.field)
    return out


def build(cases):
    """Load every input through gradix's loaders and constructors; return the round's jobs."""
    return [job for case in cases for job in case_jobs(case)]


def case_jobs(case):
    from gradix.elimination import invert_square, rank_all, solve
    from gradix.matrices import HomMatrix
    from gradix.modules import GradedModule
    from gradix.specfiles import load_division_ring

    specs, ref_ring, label, span = case["specs"], case["ring"], case["label"], case["span"]
    ring = load_division_ring(specs["ring"])
    g, f = ring.groupoid, ring.field

    def matrix(key):
        spec = specs[key]
        rows = [g.morphism_from_json(m) for m in spec["row_signature"]]
        cols = [g.morphism_from_json(m) for m in spec["col_signature"]]
        return HomMatrix(ring, rows, cols, {(i, j): f.coerce(c) for i, j, c in spec["entries"]})

    def ranks(report):
        return (report.rho_r, report.rho_c, report.rho, report.rho_i, report.rho_i_skipped)

    def as_ref(m):
        return m and checks.to_ref(m)

    square, rhs, left, right, skip, minor = map(matrix, ("square", "rhs", "left", "right", "skip", "minor"))
    jobs = [
        Job(
            f"{label}.invert",
            lambda: invert_square(square),
            lambda b: checks.inverse(ref_ring, case["square"], as_ref(b)),
        ),
        Job(
            f"{label}.solve",
            lambda: solve(square, rhs),
            lambda x: checks.solution(ref_ring, case["square"], as_ref(x), case["rhs"]),
        ),
        Job(
            f"{label}.mul",
            lambda: left.mul(right),
            lambda ab: checks.product(ref_ring, case["left"], case["right"], as_ref(ab)),
        ),
        Job(
            f"{label}.rank_skip",
            lambda: ranks(rank_all(skip)),
            lambda got: checks.ranks(got, case["skip_rank"], skipped=True),
        ),
        Job(
            f"{label}.rank_minor",
            lambda: ranks(rank_all(minor)),
            lambda got: checks.ranks(got, case["minor_rank"], skipped=False),
        ),
    ]
    if span is None:
        return jobs
    module = GradedModule(ring, [g.morphism_from_json(m) for m in specs["span"]["module"]["shifts"]])
    vectors = [
        module.vector(g.morphism_from_json(v["degree"]), dict(v["entries"])) for v in specs["span"]["vectors"]
    ]
    return jobs + [
        Job(f"{label}.span", lambda: module.pdim_of_span(vectors), lambda got: got == span.span_pdim),
        Job(f"{label}.quotient", lambda: module.quotient_pdim(vectors), lambda got: got == span.pdim - span.span_pdim),
    ]
