"""Reading the JSON spec files that describe mathematical objects.

This is the one reader of the file format: every shape check on JSON
data, fields and groupoids (block and raw form) included, lives here and
is written on the helpers below, so the constructors it calls see Python
values of the right types and check only the mathematics.

One file per object.  Any slot that takes a sub-object also accepts
{"ref": "relative/path.json"}, resolved against the referring file's
directory, so fixtures compose without duplication.

Parse problems, a slot holding the wrong JSON type among them, raise
FormatError; a well-formed file describing a structure that breaks its
own laws raises ValidationError from the constructors, carrying the
violated invariant's name.
"""

import json
import os

from . import categories, division, groupoids, matrices, matrix_ring, modules
from .errors import FormatError
from .fields import PrimeField, Rationals
from .groupoids import is_index


def load_json(path):
    """The JSON value in a file; a key repeated inside one object is a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=lambda pairs: _keyed(pairs, f"{path}: key"))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # not JSON, not UTF-8, or an integer past Python's 4300-digit limit
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _chase(data, base_dir, seen):
    """Follow {"ref": path} indirections, returning (data, directory)."""
    while isinstance(data, dict) and set(data) == {"ref"}:
        if not isinstance(data["ref"], str):
            raise FormatError(f"ref must be a path string, got {data['ref']!r}")
        target = os.path.normpath(os.path.join(base_dir, data["ref"]))
        if target in seen:
            raise FormatError(f"reference cycle through {target}")
        seen = seen | {target}
        data = load_json(target)
        base_dir = os.path.dirname(target)
    return data, base_dir


_LIST = (list, tuple)


def _require(data, key, path, kind=None):
    """data[key], which must exist and, when kind is given, be of that JSON type."""
    if not isinstance(data, dict) or key not in data:
        raise FormatError(f"{path}: missing key {key!r}")
    return _typed(data[key], kind, f"{path}: {key!r}")


def _optional_list(data, key, path):
    """data[key] when present, else an empty list; a present value must be a list."""
    return _typed(data.get(key, []), _LIST, f"{path}: {key!r}")


def _typed(value, kind, what):
    if kind is not None and not isinstance(value, kind):
        expected = "a list" if kind is _LIST else "an object"
        raise FormatError(f"{what} must be {expected}, got {value!r}")
    return value


def _keyed(pairs, what):
    """A dict from (key, value) pairs; a key given twice is a FormatError naming it."""
    out = {}
    for count, (key, value) in enumerate(pairs, 1):
        out[key] = value
        if len(out) != count:
            raise FormatError(f"{what} {key!r} is given twice")
    return out


def _row(row, size, what, ids=0):
    """row, a list of size items whose first ``ids`` items are integer ids;
    what says so in the FormatError otherwise."""
    if not (isinstance(row, _LIST) and len(row) == size and all(map(is_index, row[:ids]))):
        raise FormatError(f"{what}, got {row!r}")
    return row


def _distinct(morphisms, what):
    """The morphisms in order; one given twice is a FormatError naming it."""
    return list(_keyed(((m, None) for m in morphisms), what))


def _names(names, what):
    """Category object names: a list of strings (identities are keyed by them in JSON)."""
    if not all(isinstance(name, str) for name in _typed(names, _LIST, what)):
        raise FormatError(f"{what} must be strings, got {names!r}")
    return names


def _coeff_dict(pairs, what):
    """A list of [index, scalar] pairs as a dict."""
    if not (isinstance(pairs, _LIST) and all(isinstance(p, _LIST) and len(p) == 2 and is_index(p[0]) for p in pairs)):
        raise FormatError(f"{what} must be a list of [index, scalar] pairs, got {pairs!r}")
    return _keyed(pairs, f"{what}: index")


def _is_named(x):
    """[name, name, integer]: a hom row [target, source, dim] or a basis morphism."""
    return isinstance(x, _LIST) and len(x) == 3 and isinstance(x[0], str) and isinstance(x[1], str) and is_index(x[2])


def _block(data):
    """A connected block {"objects": [id, ...], "group": {"mult": rows}};
    the group may also state its "order", which must match the table."""
    objects = _require(data, "objects", "block", _LIST)
    group_data = _require(data, "group", "block", dict)
    mult = _require(group_data, "mult", "group", _LIST)
    if not all(isinstance(row, _LIST) and all(is_index(v) for v in row) for row in mult):
        raise FormatError(f"group: 'mult' must be rows of element indices, got {mult!r}")
    group = groupoids.FiniteGroup(mult)
    order = group_data.get("order", group.order)
    if not is_index(order) or order != group.order:
        raise FormatError(f"group: stated order {order!r} does not match table size {group.order}")
    return groupoids.ConnectedBlock(objects, group)


def _raw_groupoid(raw):
    """The block form of {"objects": [id, ...], "morphisms": [{"source": x,
    "target": y}, ...], "compose": [[g, h, gh], ...]}, morphism ids being
    list positions; groupoids.from_composition_table checks the laws."""
    objects = _require(raw, "objects", "raw groupoid", _LIST)
    records = _require(raw, "morphisms", "raw groupoid", _LIST)
    entries = _require(raw, "compose", "raw groupoid", _LIST)
    if not all(is_index(x) for x in objects):
        raise FormatError(f"raw groupoid: objects must be integer ids, got {objects!r}")
    for i, record in enumerate(records):
        if not (isinstance(record, dict) and is_index(record.get("source")) and is_index(record.get("target"))):
            raise FormatError(f"raw groupoid: morphism {i} needs integer 'source' and 'target', got {record!r}")
    table = _keyed(_products(entries, len(records)), "compose pair")
    src, tgt = [r["source"] for r in records], [r["target"] for r in records]
    return groupoids.from_composition_table(objects, src, tgt, table)[0]


def _products(entries, n):
    """((g, h), gh) for each composition entry [g, h, gh] of morphism ids
    in range(n)."""
    for entry in entries:
        g, h, gh = _row(entry, 3, "raw groupoid: composition entry must be [g, h, gh] of morphism ids", 3)
        if not (0 <= g < n and 0 <= h < n and 0 <= gh < n):
            raise FormatError(f"raw groupoid: composition entry {entry!r} refers to an unknown morphism")
        yield (g, h), gh


def load_groupoid(data, base_dir="", seen=frozenset()):
    """A groupoid in block form {"blocks": [block, ...]} or raw form {"raw": {...}}."""
    data, _ = _chase(data, base_dir, seen)
    if isinstance(data, dict) and "blocks" in data:
        return groupoids.FiniteGroupoid([_block(b) for b in _require(data, "blocks", "groupoid", _LIST)])
    if isinstance(data, dict) and "raw" in data:
        return _raw_groupoid(data["raw"])
    raise FormatError("groupoid needs either 'blocks' or 'raw'")


def load_field(data, base_dir="", seen=frozenset()):
    """A field {"kind": "Q"} or {"kind": "Fp", "p": p}."""
    data, _ = _chase(data, base_dir, seen)
    kind = _require(data, "kind", "field")
    if kind == "Q":
        return Rationals()
    if kind == "Fp":
        return PrimeField(_require(data, "p", "field"))
    raise FormatError(f"field: unknown kind {kind!r}")


def load_division_ring(data, base_dir="", seen=frozenset()):
    data, base_dir = _chase(data, base_dir, seen)
    field = load_field(_require(data, "field", "ring"), base_dir, seen)
    groupoid = load_groupoid(_require(data, "groupoid", "ring"), base_dir, seen)
    support = _distinct(
        (groupoid.morphism_from_json(m) for m in _require(data, "support", "ring", _LIST)), "support morphism"
    )
    factor = []
    for row in _require(data, "factor", "ring", _LIST):
        s, t, value = _row(row, 3, "factor row must be [morphism, morphism, scalar]")
        factor.append(((groupoid.morphism_from_json(s), groupoid.morphism_from_json(t)), field.coerce(value)))
    factor = _keyed(factor, "factor pair")
    return division.GradedDivisionRing(field, groupoid, support, factor)


def load_matrix_ring(data, base_dir="", seen=frozenset()):
    data, base_dir = _chase(data, base_dir, seen)
    ring = load_division_ring(_require(data, "ring", "matrix ring"), base_dir, seen)
    g = ring.groupoid
    raw = _require(data, "signatures", "matrix ring", _LIST)
    signatures = [
        _distinct((g.morphism_from_json(m) for m in _typed(sig, _LIST, "signature")), "signature morphism")
        for sig in raw
    ]
    return matrix_ring.MatrixRing(ring, signatures)


def load_matrix(data, base_dir="", seen=frozenset()):
    data, base_dir = _chase(data, base_dir, seen)
    ring = load_division_ring(_require(data, "ring", "matrix"), base_dir, seen)
    g = ring.groupoid
    rows = [g.morphism_from_json(m) for m in _require(data, "row_signature", "matrix", _LIST)]
    cols = [g.morphism_from_json(m) for m in _require(data, "col_signature", "matrix", _LIST)]
    entries = []
    for row in _optional_list(data, "entries", "matrix"):
        i, j, value = _row(row, 3, "matrix entry must be [row, col, scalar] with integer indices", 2)
        entries.append(((i, j), ring.field.coerce(value)))
    return matrices.HomMatrix(ring, rows, cols, _keyed(entries, "matrix entry position"))


def load_module(data, base_dir="", seen=frozenset()):
    data, base_dir = _chase(data, base_dir, seen)
    ring = load_division_ring(_require(data, "ring", "module"), base_dir, seen)
    g = ring.groupoid
    shifts = [g.morphism_from_json(m) for m in _require(data, "shifts", "module", _LIST)]
    return modules.GradedModule(ring, shifts)


def load_vectors(data, base_dir="", seen=frozenset()):
    """A module plus a list of homogeneous vectors in it."""
    data, base_dir = _chase(data, base_dir, seen)
    module = load_module(_require(data, "module", "vectors"), base_dir, seen)
    g = module.ring.groupoid
    vectors = []
    for vd in _require(data, "vectors", "vectors", _LIST):
        degree = g.morphism_from_json(_require(vd, "degree", "vector"))
        entries = []
        for row in _optional_list(vd, "entries", "vector"):
            i, value = _row(row, 2, "vector entry must be [index, scalar]", 1)
            entries.append((i, module.ring.field.coerce(value)))
        vectors.append(module.vector(degree, _keyed(entries, "vector coordinate")))
    return module, vectors


def load_module_file(data, base_dir="", seen=frozenset()):
    """A module file: (module, vectors) when its top level has a "vectors"
    key, else (module, None)."""
    if isinstance(data, dict) and "vectors" in data:
        return load_vectors(data, base_dir, seen)
    return load_module(data, base_dir, seen), None


def load_category(data, base_dir="", seen=frozenset()):
    """Either matrix form or a raw structure-constant category."""
    data, base_dir = _chase(data, base_dir, seen)
    if isinstance(data, dict) and "raw_category" in data:
        raw = data["raw_category"]
        field = load_field(_require(raw, "field", "raw category"), base_dir, seen)
        objects = _names(_require(raw, "objects", "raw category"), "raw category objects")
        homs = _require(raw, "homs", "raw category", _LIST)
        for row in homs:
            if not _is_named(row):
                raise FormatError(f"hom row must be [target, source, dim], got {row!r}")
        hom_dims = _keyed((((row[0], row[1]), row[2]) for row in homs), "hom pair")
        categories.check_hom_dimension(sum(hom_dims.values()))
        compose = []
        for row in _optional_list(raw, "compose", "raw category"):
            if not (isinstance(row, _LIST) and len(row) == 3 and _is_named(row[0]) and _is_named(row[1])):
                raise FormatError(f"compose row must be [left, right, coeffs], got {row!r}")
            left, right, coeffs = row
            compose.append(((tuple(left), tuple(right)), _coeff_dict(coeffs, f"compose coefficients in {row!r}")))
        compose = _keyed(compose, "compose pair")
        identities = {
            name: _coeff_dict(vec, f"identity of {name!r}")
            for name, vec in _require(raw, "identities", "raw category", dict).items()
        }
        return categories.RawCategory(objects, field, hom_dims, compose, identities)
    fields = [
        load_field(fd, base_dir, seen)
        for fd in _require(data, "division_rings", "category", _LIST)
    ]
    dims = _require(data, "dims", "category")
    if not (isinstance(dims, dict) and all(isinstance(row, _LIST) for row in dims.values())):
        raise FormatError(f"category dims must map object names to count lists, got {dims!r}")
    return categories.MatrixFormCategory(_names(_require(data, "objects", "category"), "category objects"), fields, dims)


_LOADERS = [
    ("blocks", "groupoid", load_groupoid),
    ("raw", "groupoid", load_groupoid),
    ("signatures", "matrix ring", load_matrix_ring),
    ("row_signature", "matrix", load_matrix),
    ("shifts", "module", load_module),
    ("vectors", "vectors", load_vectors),
    ("support", "ring", load_division_ring),
    ("division_rings", "category", load_category),
    ("raw_category", "category", load_category),
]


def load_any(path):
    """Detect the object kind from its keys; returns (kind, object)."""
    data = load_json(path)
    base_dir = os.path.dirname(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    for key, kind, loader in _LOADERS:
        if key in data:
            return kind, loader(data, base_dir)
    raise FormatError(f"{path}: cannot tell what kind of object this file describes")


def load_kind(path, loader):
    """Load a file with a specific loader, resolving refs from its directory."""
    return loader(load_json(path), os.path.dirname(path))
