"""Answers do not depend on the order of lists whose order means nothing.

A support is a set of degrees, a factor set, a matrix or vector and a
raw composition table are sets of entries, and a raw category's hom list
is a set of pairs.  For every fixture and every verb that reads it, and
for every file of fixtures/broken/ through ``validate``, each list under
one of the keys below is shuffled on its own, wherever it sits in the
file.  The run must give the same exit code and byte-identical stdout as
the unshuffled file, in text and ``--emit json``; a run that exits 1
must name the same invariant.  Every file is shuffled at once, so the
rings and modules a file refers to, and the other operand of ``solve``
and ``iso``, are shuffled too.  The shuffles are seeded, so every run of
the suite checks the same orders.

Nor do they depend on names.  A seeded ``Relabelling`` (tests/oracles.py)
moves every object id and renames the elements of every group of two or
more elements so that the identity is not element 0, in every slot of
every fixture file.  A
relabelled file describes an isomorphic structure: read in process, its
ranks, pdims, classification flags and sorted block sizes are those of
the original; through ``gradix.cli.run`` every case above keeps its exit
code, and every file of fixtures/broken/ its invariant.  Output that
names an object or an index may change, so it is not compared.  The
relabelled copy is graded by another groupoid, so ``iso x T(x)`` exits 1
naming ``block.common_grading``.  The benchmark's seeded structure rings,
with C_4 isotropy, keep their block sizes, flags and isomorphism answers.

Answers do not change under a coboundary twist either: multiplying the
factor set by c(s)c(t)/c(st) gives an isomorphic graded ring.  For the
fixture rings and matrix rings, random matrix rings over the reference
rings and the two-object rings with C_2 isotropy, and the benchmark's
seeded structure rings (whose corners carry the twist), a seeded twist keeps
the block sizes, signatures and base objects of the decomposition and
the classification flags, and ``spec_iso`` of the two decompositions
answers with verified certificates.
"""

import contextlib
import io
import json
import os
import random
import re

import pytest

from gradix.cli import run
from gradix.elimination import invert_square, rank_all
from gradix.errors import ValidationError
from gradix.fields import PrimeField, Rationals
from gradix.matrix_ring import MatrixRing
from gradix.specfiles import load_any, load_matrix_ring
from gradix.structure import classify, spec_iso, wedderburn_decompose
from oracles import (
    Relabelling,
    benchmark_structure_inputs,
    coboundary_twist,
    random_matrix_ring,
    reference_rings,
    ring_two_object_c2,
)
from test_loader_fuzz import FIXTURES, MUTANT, READERS
from test_trusted import RING_FIXTURES, lifted

UNORDERED = ("support", "factor", "entries", "compose", "homs")
SHUFFLES = 4
BROKEN = sorted(n for n in os.listdir(os.path.join(FIXTURES, "broken")) if n.endswith(".json"))
with open(os.path.join(FIXTURES, "broken", "manifest.json"), encoding="utf-8") as fh:
    MANIFEST = json.load(fh)
INVARIANT = re.compile(r"^error: ([a-z0-9_]+\.[a-z0-9_]+): ")

CASES = [(name, argv) for name in sorted(READERS) for argv in READERS[name]]
CASES += [("broken/" + name, ["validate", MUTANT]) for name in BROKEN if name != "manifest.json"]


def shuffled(value, rng):
    """A copy of the JSON value with every list under an UNORDERED key shuffled."""
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():
            v = shuffled(v, rng)
            if key in UNORDERED and isinstance(v, list):
                rng.shuffle(v)
            out[key] = v
        return out
    if isinstance(value, list):
        return [shuffled(v, rng) for v in value]
    return value


def outcome(argv):
    """(exit code, stdout, invariant named on stderr or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    named = INVARIANT.match(err.getvalue())
    return code, out.getvalue(), named.group(1) if named else None


def fixture_files():
    for dirpath, _, names in os.walk(FIXTURES):
        for n in sorted(names):
            if n.endswith(".json") and n != "manifest.json":
                yield os.path.relpath(os.path.join(dirpath, n), FIXTURES)


TREES = {}
for rel in fixture_files():
    with open(os.path.join(FIXTURES, rel), encoding="utf-8") as fh:
        TREES[rel] = json.load(fh)


def write_shuffled(root, rng):
    """Every fixture file, its unordered lists shuffled, under root; refs resolve inside it."""
    for rel, data in TREES.items():
        path = root / rel
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(shuffled(data, rng)))


def argv_in(root, name, argv, emit):
    """argv with its files under root, MUTANT standing for the file name."""
    return [os.path.join(root, name if a == MUTANT else a) if a.endswith(".json") else a for a in argv] + ["--emit", emit]


CASE_IDS = [" ".join([n] + [w for w in a if w != MUTANT]) for n, a in CASES]


@pytest.mark.parametrize("name, argv", CASES, ids=CASE_IDS)
def test_shuffled_lists_give_the_same_answer(tmp_path, name, argv):
    rng = random.Random(name + " ".join(argv))
    originals = {emit: outcome(argv_in(FIXTURES, name, argv, emit)) for emit in ("text", "json")}
    if name.startswith("broken/"):
        assert originals["text"][0] == 1 and originals["text"][2] == MANIFEST[os.path.basename(name)]
    for _ in range(SHUFFLES):
        write_shuffled(tmp_path, rng)
        for emit, original in originals.items():
            assert outcome(argv_in(tmp_path, name, argv, emit)) == original


# -- relabelling -----------------------------------------------------------------


def resolver(trees, rel):
    """Resolve a ref of the file rel among the in-memory fixture trees."""

    def resolve(ref):
        target = os.path.normpath(os.path.join(os.path.dirname(rel), ref))
        return trees[target], resolver(trees, target)

    return resolve


def write_relabelled(root, relabelling):
    """Every fixture file, relabelled, under root; refs resolve inside it."""
    for rel, data in TREES.items():
        path = root / rel
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(relabelling.spec(data, resolver(TREES, rel))))


def answers(path):
    """What a relabelling keeps of a healthy fixture, read in process."""
    kind, obj = load_any(str(path))
    if kind == "groupoid":
        return kind, sorted((len(b.objects), b.group.order) for b in obj.blocks)
    if kind in ("ring", "matrix ring"):
        if kind == "ring":
            obj = MatrixRing(obj, [[obj.groupoid.identity(e) for e in obj.gamma0()]])
        spec = wedderburn_decompose(obj)
        return kind, sorted(blk.size for blk in spec.blocks), classify(spec).as_dict()
    if kind == "matrix":
        r = rank_all(obj)
        square = obj.shape[0] == obj.shape[1]
        return kind, (r.rho_r, r.rho_c, r.rho, r.rho_i), square and invert_square(obj) is not None
    module, vectors = obj
    return kind, module.pdim(), module.pdim_of_span(vectors), module.quotient_pdim(vectors)


RELABELLED = sorted(name for name in READERS if not name.endswith(".category.json"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelling_keeps_ranks_pdims_flags_and_block_sizes(tmp_path, seed):
    relabelling = Relabelling(seed)
    write_relabelled(tmp_path, relabelling)
    for name in RELABELLED:
        assert relabelling.spec(TREES[name], resolver(TREES, name)) != TREES[name], name
        assert answers(tmp_path / name) == answers(os.path.join(FIXTURES, name)), name


@pytest.mark.parametrize("name, argv", CASES, ids=CASE_IDS)
def test_relabelling_keeps_exit_codes_and_invariants(tmp_path, name, argv):
    write_relabelled(tmp_path, Relabelling(name))
    code, _, invariant = outcome(argv_in(FIXTURES, name, argv, "text"))
    if name.startswith("broken/"):
        assert (code, invariant) == (1, MANIFEST[os.path.basename(name)])
    for emit in ("text", "json"):
        assert outcome(argv_in(tmp_path, name, argv, emit))[::2] == (code, invariant)


@pytest.mark.parametrize("name", RING_FIXTURES)
def test_iso_with_the_relabelled_copy_names_the_common_grading(tmp_path, name):
    write_relabelled(tmp_path, Relabelling(name))
    copy = str(tmp_path / name)
    assert outcome(["iso", os.path.join(FIXTURES, name), copy]) == (1, "", "block.common_grading")
    assert outcome(["iso", copy, copy])[0] == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_benchmark_rings_keep_their_answers(seed):
    relabelling = Relabelling(seed)
    for r in benchmark_structure_inputs(seed)["rings"]:
        specs = {}
        for key in ("spec", "iso_spec", "other_spec"):
            specs[key] = [wedderburn_decompose(load_matrix_ring(data)) for data in (r[key], relabelling.spec(r[key], None))]
        spec, moved = specs["spec"]
        # the C_4 of the grading now has its identity away from element 0
        assert spec.groupoid.blocks[0].group.identity == 0 != moved.groupoid.blocks[0].group.identity
        assert sorted(blk.size for blk in moved.blocks) == sorted(blk.size for blk in spec.blocks)
        assert classify(moved).as_dict() == classify(spec).as_dict()
        match = spec_iso(moved, specs["iso_spec"][1])
        assert match is not None and all(cert.verified for _, _, cert in match)
        assert spec_iso(moved, specs["other_spec"][1]) is None
        with pytest.raises(ValidationError) as err:
            spec_iso(spec, moved)
        assert err.value.invariant == "block.common_grading"


# -- coboundary twists ---------------------------------------------------------


def twist_cases():
    """(label, matrix ring): fixture rings lifted over their identity
    signature and fixture matrix rings, random matrix rings over the
    reference rings and the two-object rings with C_2 isotropy, and the
    benchmark's seeded structure rings."""
    cases = [(name, lifted(name)) for name in RING_FIXTURES]
    rng = random.Random(41)
    for k, d in enumerate(reference_rings() + [ring_two_object_c2(PrimeField(7)), ring_two_object_c2(Rationals())]):
        cases += [(f"reference {k} size {size}", random_matrix_ring(rng, d, size)) for size in (1, 3)]
    for seed in (1, 2, 3):
        for r in benchmark_structure_inputs(seed)["rings"]:
            cases.append((f"{r['label']} seed {seed}", load_matrix_ring(r["spec"])))
    return cases


TWIST_CASES = twist_cases()


def block_shape(spec):
    return [(blk.size, blk.signatures, spec.base_object(j)) for j, blk in enumerate(spec.blocks)]


@pytest.mark.parametrize("label, ring", TWIST_CASES, ids=[label for label, _ in TWIST_CASES])
def test_coboundary_twist_gives_the_same_answer(label, ring):
    rng = random.Random(label)
    for _ in range(2):
        twisted = MatrixRing(coboundary_twist(ring.ring, rng), ring.signatures)
        spec, spec_t = wedderburn_decompose(ring), wedderburn_decompose(twisted)
        assert block_shape(spec_t) == block_shape(spec)
        assert classify(spec_t).as_dict() == classify(spec).as_dict()
        match = spec_iso(spec, spec_t)
        assert match is not None and all(cert.verified for _, _, cert in match)
