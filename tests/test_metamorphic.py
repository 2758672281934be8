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
"""

import contextlib
import io
import json
import os
import random
import re

import pytest

from gradix.cli import run
from test_loader_fuzz import FIXTURES, MUTANT, READERS

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


@pytest.mark.parametrize("name, argv", CASES, ids=[" ".join([n] + [w for w in a if w != MUTANT]) for n, a in CASES])
def test_shuffled_lists_give_the_same_answer(tmp_path, name, argv):
    def argv_in(root, emit):
        return [os.path.join(root, name if a == MUTANT else a) if a.endswith(".json") else a for a in argv] + ["--emit", emit]

    rng = random.Random(name + " ".join(argv))
    originals = {emit: outcome(argv_in(FIXTURES, emit)) for emit in ("text", "json")}
    if name.startswith("broken/"):
        assert originals["text"][0] == 1 and originals["text"][2] == MANIFEST[os.path.basename(name)]
    for _ in range(SHUFFLES):
        write_shuffled(tmp_path, rng)
        for emit, original in originals.items():
            assert outcome(argv_in(tmp_path, emit)) == original
