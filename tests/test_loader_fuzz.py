"""Mutated fixtures never crash the command line.

Each example takes one file of fixtures/, changes it in one place (drops
a key, gives a value another JSON type, repeats a key, repeats one
element of a list, or puts a huge number such as 10^18, 2^63, a
5000-digit integer or an exponent string like "1e99999999" in place of a
number) and runs a verb that reads it through gradix.cli.main.
Every run must exit 0, 1 or 2 without a traceback within the deadline,
and an exit 1 must name the violated invariant.  The huge numbers land on
object ids, group elements, multiplicities, indices, moduli and scalars,
so each must be refused or handled without work that grows with it.
"""

import contextlib
import copy
import io
import json
import os
import re
import shutil
import sys
import time
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import cli

FIXTURES = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "fixtures"))
MUTANT = "mutant.json"

# The verbs that read each fixture; MUTANT stands for the mutated copy.
READERS = {
    "pair3.groupoid.json": [["validate", MUTANT]],
    "pair_ring.json": [["classify", MUTANT], ["decompose", MUTANT], ["iso", MUTANT, "pair_ring.json"]],
    "pfm_m3.ring.json": [["classify", MUTANT], ["iso", MUTANT, MUTANT]],
    "point_ring.json": [["validate", MUTANT], ["classify", MUTANT]],
    "point_ring2.json": [["decompose", MUTANT]],
    "rank1.matrix.json": [["rank", MUTANT], ["invert", MUTANT]],
    "unimodular.matrix.json": [["invert", MUTANT], ["solve", MUTANT, "rhs.matrix.json"]],
    "rhs.matrix.json": [["solve", "unimodular.matrix.json", MUTANT]],
    "span.vectors.json": [["module", MUTANT]],
    "two_sizes.category.json": [["category", "classify", MUTANT], ["category", "to-ring", MUTANT]],
}


class Obj(list):
    """A JSON object as its list of (key, value) pairs, so a key can appear twice."""


def parse(text):
    return json.loads(text, object_pairs_hook=Obj)


class Digits(str):
    """A JSON integer written out as its digits, past the length json.dumps converts."""


def dump(value):
    if isinstance(value, Digits):
        return str(value)
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value)


def json_type(value):
    if isinstance(value, Obj):
        return "object"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


# One small value of every JSON type, numbers both signs and a fraction.
REPLACEMENTS = [None, True, False, 0, -1, 3, 0.5, "x", [], [0], Obj(), Obj([("kind", "Q")])]


def nodes(value, path=()):
    """Every (path, value) in the tree; a path step is an index into a list or a pair list."""
    yield path, value
    children = [v for _, v in value] if isinstance(value, Obj) else value if isinstance(value, list) else []
    for i, child in enumerate(children):
        yield from nodes(child, path + (i,))


def replace(tree, path, new):
    if not path:
        return new
    parent = tree
    for i in path[:-1]:
        parent = parent[i][1] if isinstance(parent, Obj) else parent[i]
    i = path[-1]
    if isinstance(parent, Obj):
        parent[i] = (parent[i][0], new)
    else:
        parent[i] = new
    return tree


def lookup(tree, path):
    for i in path:
        tree = tree[i][1] if isinstance(tree, Obj) else tree[i]
    return tree


# Numbers far past every size ceiling, of both signs and past 64 bits; an
# integer past Python's 4300-digit conversion limit; and exponent strings
# whose value would take unbounded time and memory to build or print.
TOO_LONG = Digits("9" * 5000)
EXPONENTS = ["1e99999999", "1e-200000"]
HUGE = [10**18, 2**63, 10**9, -(10**18), TOO_LONG, *EXPONENTS]


def numbers(tree):
    return [path for path, v in nodes(tree) if json_type(v) == "number"]


def with_keys(tree):
    return [path for path, v in nodes(tree) if isinstance(v, Obj) and v]


def nonempty_lists(tree):
    return [path for path, v in nodes(tree) if isinstance(v, list) and not isinstance(v, Obj) and v]


TREES = {}
for name in READERS:
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        TREES[name] = parse(fh.read())


@st.composite
def mutants(draw):
    """(fixture name, mutated JSON text, argv)."""
    name = draw(st.sampled_from(sorted(READERS)))
    tree = copy.deepcopy(TREES[name])
    how = draw(st.sampled_from(["drop", "swap", "repeat", "duplicate", "huge"]))
    if how == "huge":
        tree = replace(tree, draw(st.sampled_from(numbers(tree))), draw(st.sampled_from(HUGE)))
    elif how == "duplicate":
        items = lookup(tree, draw(st.sampled_from(nonempty_lists(tree))))
        element = items[draw(st.integers(0, len(items) - 1))]
        items.insert(draw(st.integers(0, len(items))), copy.deepcopy(element))
    elif how == "swap":
        path, old = draw(st.sampled_from(list(nodes(tree))))
        new = draw(st.sampled_from([v for v in REPLACEMENTS if json_type(v) != json_type(old)]))
        tree = replace(tree, path, copy.deepcopy(new))
    else:
        obj = lookup(tree, draw(st.sampled_from(with_keys(tree))))
        i = draw(st.integers(0, len(obj) - 1))
        if how == "drop":
            del obj[i]
        else:
            key, value = obj[i]
            again = draw(st.sampled_from([value, *REPLACEMENTS]))
            obj.insert(draw(st.integers(0, len(obj))), (key, copy.deepcopy(again)))
    return name, dump(tree), draw(st.sampled_from(READERS[name]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A copy of fixtures/, so refs from a mutant resolve as they do from the original."""
    out = tmp_path_factory.mktemp("fuzz")
    for name in os.listdir(FIXTURES):
        if name.endswith(".json"):
            shutil.copy(os.path.join(FIXTURES, name), out / name)
    return out


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["gradix", *argv]), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as done:
            cli.main()
    return done.value.code, out.getvalue(), err.getvalue()


NAMED_INVARIANT = re.compile(r"^error: [a-z0-9_]+\.[a-z0-9_]+: ")


@settings(max_examples=250, derandomize=True, database=None, deadline=timedelta(seconds=2))
@given(case=mutants())
def test_mutated_fixture_exits_cleanly(workdir, case):
    name, text, argv = case
    (workdir / MUTANT).write_text(text)
    code, out, err = run_main([str(workdir / arg) if arg.endswith(".json") else arg for arg in argv])
    assert code in (0, 1, 2), (name, text, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and err.startswith("error: "), (name, text, err)
    if code == 1:
        assert NAMED_INVARIANT.match(err), (name, text, err)


@pytest.mark.parametrize("emit", ["text", "json"])
@pytest.mark.parametrize("huge", [TOO_LONG, *EXPONENTS], ids=["5000 digits", *EXPONENTS])
def test_huge_scalar_is_a_format_error(workdir, huge, emit):
    # the scalar of one entry of a Q matrix, read by a verb that prints its answer
    tree = copy.deepcopy(TREES["unimodular.matrix.json"])
    dict(tree)["entries"][0][2] = huge
    (workdir / MUTANT).write_text(dump(tree))
    start = time.perf_counter()
    code, out, err = run_main(["invert", str(workdir / MUTANT), "--emit", emit])
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "") and err.startswith("error: "), err
