"""Command-line front end.

Each invocation runs one verb over JSON spec files and prints a short
deterministic report.  Machine-readable output is available with
--emit json under the schema name "gradix/1".  Exit status: 0 on
success, 1 when a structure violates its laws (the message names the
invariant), 2 when input cannot be read or parsed.
"""

import argparse
import json
import os
import sys

from . import categories, elimination, matrix_ring, structure
from .errors import FormatError, GradixError
from .specfiles import (
    load_any,
    load_category,
    load_json,
    load_kind,
    load_matrix,
    load_module,
    load_vectors,
)

SCHEMA = "gradix/1"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value if isinstance(value, (int, str, bool, type(None))) else str(value)


def _flag(value):
    return "true" if value else "false"


def _matrix_json(matrix):
    g = matrix.ring.groupoid
    field = matrix.ring.field
    return {
        "row_signature": [g.morphism_to_json(m) for m in matrix.row_sig],
        "col_signature": [g.morphism_to_json(m) for m in matrix.col_sig],
        "entries": [
            [i, j, field.to_json(c)] for (i, j), c in sorted(matrix.entries.items())
        ],
    }


def _counts_text(counts):
    inner = ", ".join(f"{e}: {c}" for e, c in sorted(counts.items()))
    return "{" + inner + "}"


def _block_counts(spec):
    """Each block's index count per object, read off the spec's table."""
    return [structure.multiplicities([runs])[0] for runs in spec.table]


def _block_lines(spec):
    return [
        f"block {j}: size {blk.size}, base object {spec.base_object(j)}, "
        f"support order {len(blk.ring.support)}, indices {_counts_text(counts)}"
        for j, (blk, counts) in enumerate(zip(spec.blocks, _block_counts(spec)))
    ]


def _block_records(spec):
    return [
        {
            "size": blk.size,
            "base_object": spec.base_object(j),
            "support_order": len(blk.ring.support),
            "indices": {str(e): c for e, c in sorted(counts.items())},
        }
        for j, (blk, counts) in enumerate(zip(spec.blocks, _block_counts(spec)))
    ]


def _cmd_validate(args):
    kind, obj = load_any(args.file)
    if kind == "groupoid":
        b = len(obj.blocks)
        n = sum(len(blk.objects) for blk in obj.blocks)
        text = [f"groupoid: {b} block{'s' if b != 1 else ''}, {n} objects"]
        record = {"kind": kind, "blocks": b, "objects": n}
    elif kind == "ring":
        text = [
            f"ring: {len(obj.support)} support degrees over {len(obj.gamma0())} objects, "
            f"prime: {_flag(obj.is_gr_prime())}"
        ]
        record = {
            "kind": kind,
            "support": len(obj.support),
            "objects": len(obj.gamma0()),
            "prime": obj.is_gr_prime(),
        }
    elif kind == "matrix ring":
        text = [f"matrix ring: {obj.size} indices, {len(obj.ring.support)} support degrees"]
        record = {"kind": kind, "indices": obj.size, "support": len(obj.ring.support)}
    elif kind == "matrix":
        m, n = obj.shape
        text = [f"matrix: {m}x{n} over {len(obj.ring.support)} support degrees"]
        record = {"kind": kind, "rows": m, "cols": n}
    elif kind == "module":
        text = [f"module: pdim {obj.pdim()}"]
        record = {"kind": kind, "pdim": obj.pdim()}
    elif kind == "vectors":
        module, vectors = obj
        text = [f"vectors: {len(vectors)} in a module of pdim {module.pdim()}"]
        record = {"kind": kind, "vectors": len(vectors), "pdim": module.pdim()}
    elif isinstance(obj, categories.MatrixFormCategory):
        active = len(obj.active_blocks())
        text = [f"category: {len(obj.objects)} objects, {active} active blocks"]
        record = {"kind": kind, "objects": len(obj.objects), "active_blocks": active}
    else:
        text = [f"category: {len(obj.objects)} objects, raw structure constants valid"]
        record = {"kind": kind, "objects": len(obj.objects), "raw": True}
    return text, record


def _cmd_rank(args):
    report = elimination.rank_all(load_kind(args.file, load_matrix))
    record = {
        "rho_r": report.rho_r,
        "rho_c": report.rho_c,
        "rho": report.rho,
        "rho_i": report.rho_i,
        "rho_i_skipped": report.rho_i_skipped,
    }
    # rank_all raises unless the computed ranks agree
    if report.rho_i_skipped:
        text = [f"rho_r=rho_c=rho={report.rho}, rho_i skipped (size over bound {elimination.RHO_I_BOUND})"]
    else:
        text = [f"rho_r=rho_c=rho=rho_i={report.rho}"]
    return text, record


def _cmd_invert(args):
    matrix = load_kind(args.file, load_matrix)
    inverse = elimination.invert_square(matrix)
    if inverse is None:
        rank = elimination.row_reduce(matrix).rank
        n = matrix.shape[0]
        return (
            [f"invertible: false (rank {rank} of {n})"],
            {"invertible": False, "rank": rank, "size": n},
        )
    text = ["invertible: true"]
    field = matrix.ring.field
    for (i, j), c in sorted(inverse.entries.items()):
        text.append(f"  inverse[{i},{j}] = {field.format(c)}")
    return text, {"invertible": True, "inverse": _matrix_json(inverse)}


def _cmd_solve(args):
    matrix = load_kind(args.matrix, load_matrix)
    rhs = load_kind(args.rhs, load_matrix)
    x = elimination.solve(matrix, rhs)
    if x is None:
        return ["solvable: false"], {"solvable": False}
    text = ["solvable: true"]
    field = matrix.ring.field
    for (i, _), c in sorted(x.entries.items()):
        text.append(f"  x[{i}] = {field.format(c)}")
    return text, {"solvable": True, "solution": _matrix_json(x)}


def _load_ring_spec(path):
    """Load a matrix ring, lifting a bare ring over its identity signature."""
    kind, obj = load_any(path)
    if kind == "matrix ring":
        return obj
    if kind == "ring":
        g = obj.groupoid
        return matrix_ring.MatrixRing(obj, [[g.identity(e) for e in obj.gamma0()]])
    raise FormatError(f"{path}: expected a ring or matrix ring file, found {kind}")


def _cmd_classify(args):
    ring = _load_ring_spec(args.file)
    spec = structure.wedderburn_decompose(ring)
    flags = structure.classify(spec)
    w = flags.witnesses
    text = [f"blocks: {len(spec.blocks)}"]
    text.append(f"gr-semisimple: {_flag(flags.gr_semisimple)}")
    text.append(f"gr-simple: {_flag(flags.gr_simple)}")
    text.append(f"gamma0-artinian: {_flag(flags.gamma0_artinian)}")
    line = f"pfm: {_flag(flags.pfm)}, gr-division: {_flag(flags.gr_division)}"
    if not flags.gr_division:
        line += f" (witness: {w['gr_division']})"
    text.append(line)
    if not flags.pfm:
        text.append(f"pfm witness: {w['pfm']}")
    if flags.ipbn:
        text.append("ipbn: true")
    else:
        text.append(f"ipbn: false ({w['ipbn']})")
    text.extend(_block_lines(spec))
    record = {
        "flags": flags.as_dict(),
        "witnesses": _jsonable(w),
        "blocks": _block_records(spec),
    }
    return text, record


def _cmd_decompose(args):
    ring = _load_ring_spec(args.file)
    spec = structure.wedderburn_decompose(ring)
    text = [f"blocks: {len(spec.blocks)}"]
    text.extend(_block_lines(spec))
    text.append("dimension audit: ok")
    return text, {"blocks": _block_records(spec), "dimension_audit": "ok"}


def _cmd_iso(args):
    left = structure.wedderburn_decompose(_load_ring_spec(args.left))
    right = structure.wedderburn_decompose(_load_ring_spec(args.right))
    match = structure.spec_iso(left, right)
    if match is None:
        return ["isomorphic: false"], {"isomorphic": False}
    g = left.groupoid
    text = ["isomorphic: true"]
    pairs = []
    for j, jp, cert in match:
        tau = g.morphism_to_json(cert.tau)
        text.append(f"pair: {j} -> {jp} (tau={tau})")
        pairs.append({"left": j, "right": jp, "tau": tau})
    return text, {"isomorphic": True, "pairs": pairs}


def _cmd_module(args):
    data, base_dir = load_json(args.file), os.path.dirname(args.file)
    if isinstance(data, dict) and "vectors" in data:
        module, vectors = load_vectors(data, base_dir)
        span = module.pdim_of_span(vectors)
        quot = module.quotient_pdim(vectors)
        text = [
            f"pdim: {module.pdim()}",
            f"span pdim: {span}",
            f"quotient pdim: {quot}",
        ]
        return text, {"pdim": module.pdim(), "span_pdim": span, "quotient_pdim": quot}
    module = load_module(data, base_dir)
    return [f"pdim: {module.pdim()}"], {"pdim": module.pdim()}


def _cmd_category(args):
    cat = load_kind(args.file, load_category)
    if args.action == "classify":
        flags = categories.classify_category(cat)
        text = [
            f"semisimple: {_flag(flags.semisimple)}",
            f"simple-artinian: {_flag(flags.simple_artinian)}",
            f"all-functors-free: {_flag(flags.all_functors_free)}",
            f"division: {_flag(flags.division)}",
            f"simple-division: {_flag(flags.simple_division)}",
        ]
        record = {
            "flags": {
                "semisimple": flags.semisimple,
                "simple_artinian": flags.simple_artinian,
                "all_functors_free": flags.all_functors_free,
                "division": flags.division,
                "simple_division": flags.simple_division,
            },
            "witnesses": _jsonable(flags.witnesses),
        }
        return text, record
    if isinstance(cat, categories.MatrixFormCategory):
        cat = categories.raw_from_matrix_form(cat)
    ring = categories.ring_of_category(cat)
    dims = [[a, b, ring.component_dimension(a, b)] for a, b in ring.support()]
    text = [f"objects: {', '.join(str(n) for n in ring.objects)}"] + [f"dim[{a}, {b}] = {d}" for a, b, d in dims]
    return text, {"objects": list(ring.objects), "dims": dims}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=["text", "json"], default="text")

    parser = argparse.ArgumentParser(prog="gradix", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a spec file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("rank", parents=[common], help="all four ranks of a matrix")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("invert", parents=[common], help="two-sided inverse of a square matrix")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("solve", parents=[common], help="solve A*x = b")
    p.add_argument("matrix")
    p.add_argument("rhs")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", parents=[common], help="classification flags of a matrix ring")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", parents=[common], help="block decomposition of a matrix ring")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("iso", parents=[common], help="graded isomorphism test")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("module", parents=[common], help="pseudo-dimension reports")
    p.add_argument("file")
    p.set_defaults(func=_cmd_module)

    p = sub.add_parser("category", parents=[common], help="category ring operations")
    p.add_argument("action", choices=["classify", "to-ring"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_category)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, record = args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GradixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.emit == "json":
        payload = {"schema": SCHEMA, "verb": args.verb}
        payload.update(record)
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text:
            print(line)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
