"""Time the large cases of the ROADMAP table once each (not part of the rounds).

    python3 bench/large.py

They take seconds to minutes apiece, too long for a round: 40 x 40
``row_reduce`` over F_10007 and over Q on a plain field, and the self-
isomorphism of a size-24 block over the full-support pair-groupoid ring on
8 objects.  Each answer is checked against its construction.
"""

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
from ref import Field, Groupoid, cyclic  # noqa: E402


def timed(label, fn, check):
    t0 = time.perf_counter()
    answer = fn()
    elapsed = time.perf_counter() - t0
    print(f"{label}: {elapsed:.2f} s, {'ok' if check(answer) else 'WRONG'}", flush=True)


def main():
    from gradix.elimination import row_reduce
    from gradix.matrices import HomMatrix
    from gradix.specfiles import load_division_ring, load_matrix_ring
    from gradix.structure import spec_iso, wedderburn_decompose

    rng = random.Random(1)
    for p in (gen.P, None):
        ref_ring = gen.full_ring(Field(p), Groupoid([((0,), cyclic(1))]), rng)
        a = gen.invertible(rng, ref_ring, 40)
        ring = load_division_ring(ref_ring.spec())
        g = ring.groupoid
        m = HomMatrix(
            ring,
            [g.morphism_from_json(list(x)) for x in a.row_sig],
            [g.morphism_from_json(list(x)) for x in a.col_sig],
            {k: ring.field.coerce(ref_ring.field.to_json(v)) for k, v in a.entries.items()},
        )
        timed(f"row_reduce 40x40 {ring.field.describe()}", lambda: row_reduce(m).rank, lambda r: r == 40)

    pair = Groupoid([(range(8), cyclic(1))])
    ref_ring = gen.full_ring(Field(None), pair, rng)
    sigs = [[s] for s in gen.signature(rng, ref_ring, 24)]
    mring = load_matrix_ring({"ring": ref_ring.spec(), "signatures": [[list(m) for m in s] for s in sigs]})
    spec = wedderburn_decompose(mring)
    timed(
        "spec_iso self, block size 24, pair groupoid on 8 objects",
        lambda: spec_iso(spec, spec),
        lambda r: r is not None,
    )


if __name__ == "__main__":
    main()
