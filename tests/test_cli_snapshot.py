"""Regression pin of the command line's exit codes and standard output.

Every verb runs in text and ``--emit json`` form on every file under
``fixtures/`` and ``fixtures/broken/`` (every ordered pair of files for
``solve`` and ``iso``), and the exit code and stdout must equal the
committed record in ``cli_snapshot.json``.  Standard error is not
pinned, but every run that exits 1 must name the violated invariant on
it, and no run may print a traceback.  The record is a pin, not an
oracle: it holds whatever the code printed when it was written.  A change that means to alter stdout rewrites it
with

    PYTHONPATH=src python tests/test_cli_snapshot.py

and says so where the change is described.
"""

import contextlib
import io
import json
import os

import pytest

from gradix.cli import run
from test_loader_fuzz import NAMED_INVARIANT

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.normpath(os.path.join(HERE, "..", "fixtures"))
SNAPSHOT = os.path.join(HERE, "cli_snapshot.json")

SINGLE = [
    ("validate",),
    ("rank",),
    ("invert",),
    ("classify",),
    ("decompose",),
    ("module",),
    ("category", "classify"),
    ("category", "to-ring"),
]
PAIRED = [("solve",), ("iso",)]
EMITS = ("text", "json")


def fixture_names():
    names = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json"))
    broken = os.path.join(FIXTURES, "broken")
    names += sorted("broken/" + n for n in os.listdir(broken) if n.endswith(".json"))
    return names


def cases(verb):
    """(key, argv) for one verb over the fixture corpus, both emit forms."""
    names = fixture_names()
    operands = [(a, b) for a in names for b in names] if verb in PAIRED else [(a,) for a in names]
    for emit in EMITS:
        for files in operands:
            argv = list(verb) + [os.path.join(FIXTURES, f) for f in files] + ["--emit", emit]
            yield " ".join((emit,) + files), argv


def outcome(argv):
    """[exit code, stdout] as pinned, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return [code, out.getvalue()], err.getvalue()


def record():
    return {" ".join(verb): {key: outcome(argv)[0] for key, argv in cases(verb)} for verb in SINGLE + PAIRED}


@pytest.fixture(scope="module")
def snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("verb", SINGLE + PAIRED, ids=" ".join)
def test_stdout_and_exit_code_match_the_snapshot(snapshot, verb):
    seen = dict(cases(verb))
    pinned = snapshot[" ".join(verb)]
    assert sorted(seen) == sorted(pinned), "the fixture corpus changed; rewrite the snapshot"
    changed, unnamed = [], []
    for key, argv in seen.items():
        pin, err = outcome(argv)
        if pin != pinned[key]:
            changed.append(key)
        if "Traceback" in err or (pin[0] == 1 and not NAMED_INVARIANT.match(err)):
            unnamed.append((key, err))
    assert not changed, f"{len(changed)} outputs differ, first: {changed[:5]}"
    assert not unnamed, f"{len(unnamed)} runs name no invariant, first: {unnamed[:3]}"


if __name__ == "__main__":
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=0, sort_keys=True)
        fh.write("\n")
