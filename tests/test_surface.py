"""No public surface that only its own tests reach.

Every public function and method defined in src/gradix must be named
somewhere in src/gradix or bench/ outside its own definition: as a name,
an attribute, an import, or a word of a string that is not a docstring
(bench/tracing.py patches methods by their dotted names).  Tests do not
count.  Uses are resolved by class where the source says which class is
meant: ``self.x`` and ``cls.x`` inside a class that defines x, ``C.x``
for a class C of src/gradix, and the dotted string word ``C.x``.  Such a
use counts for that class's method only.  Every other name or attribute
is a bare word and counts for every definition of that name.

Bare words still hide a dead method that shares its name with live
ones: an unresolved ``obj.add`` counts for every ``add``.  So a dynamic
companion runs the fixture corpus through ``gradix.cli.run`` under
``sys.setprofile`` and fails on a public function that the corpus never
enters and that has no resolved use in src/gradix or bench/.  A use is
resolved when it names the function, or Class.name as above, or is any
attribute ``obj.name`` of a name that one class alone defines.  A class
whose public methods are those of another (the two fields) implements
the same interface, so a method entered on one counts for both.

The definitions in KEEP are kept even though only tests call them; each
carries its reason.

A second check keeps the slot rule in one place: outside groupoids.py no
module of src/gradix may call compose(x, inverse(y)); a degree a o b^-1
comes from FiniteGroupoid.compose_inverse, or from
GradedDivisionRing.slot when it must also lie in the support.  The matrix
modules (elimination, matrices, matrix_ring) may not call compose_inverse
at all: they read every slot through GradedDivisionRing.slot, so they
share the ring's one slot table.  And the product and the entry check
learn a slot from signatures only: no call to sparse_product or
live_entries in src/gradix passes a lambda or a slot_degree attribute.

A third keeps the reading of the file format in one place: ``raise
FormatError`` appears in src/gradix only in specfiles.py, the one reader,
and in the few functions FORMAT_RAISERS names, each for its reason; and
``load_json`` is named in src/gradix only in specfiles.py, so no other
module looks inside a file's JSON.

A fourth keeps a ring's kept structure complete and started in one
place: GradedDivisionRing.__init__ and _trusted both call _setup, and
every private attribute that any method of the class assigns is started
there, so a trusted corner, prime block or opposite ring never lacks a
cache.  And division.py puts the factor set on integers in factor_rows
alone: no other function of it calls ``.integers(``.
"""

import ast
import contextlib
import io
import os
import re
import sys

import pytest

from gradix.cli import run
from test_cli_snapshot import FIXTURES, SINGLE, fixture_names

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src", "gradix")
SCANNED = ("src/gradix", "bench")

KEEP = {
    # the Gabriel/Mitchell bridge from a category to a semisimple spec
    "category_to_semisimple_spec",
    # the corner ring's matrix factors at an object (the paper's corner count)
    "corner_structure",
    # the split of a division ring into gr-simple blocks
    "GradedDivisionRing.decompose_prime",
    # the ring product; MatrixFormBridge and IsoCertificate.apply call it as
    # d.mul, a name that several classes define
    "GradedDivisionRing.mul",
    # the matrix-form isomorphism, both ways
    "MatrixFormBridge.from_matrix",
    "MatrixFormBridge.to_matrix",
    "matrix_form",
    # the plain group ring F[G], a constructor of the paper's examples
    "GradedDivisionRing.group_ring",
    # the cyclic groups and their products, the gradings of those examples
    "FiniteGroup.cyclic",
    "FiniteGroup.direct_product",
    # the shifted module M(sigma), the paper's shift of a graded module
    "GradedModule.shift",
    # names the field in a ring's repr and in bench/large.py's labels, which
    # reach it through an attribute that both fields define
    "PrimeField.describe",
    "Rationals.describe",
    # the dimension of a hom space between graded modules at a degree
    "hom_degree_dimension",
    # pseudo-independence of a family of module vectors
    "GradedModule.is_pseudo_independent",
    # the gr-prime ring of a one-object corner and its sections
    "GradedDivisionRing.prime_form",
    # the number of simple summands of a shifted free module over a pfm ring
    "simple_dimension",
    # the twisted group ring, a constructor of the paper's examples
    "GradedDivisionRing.twisted_group_ring",
}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def python_files(top):
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def public_definitions(tree):
    """(qualified name, first line, last line) of each public top-level
    function and method; a method is named Class.name.  The first line is
    that of the first decorator, as in the function's code object."""
    for top in tree.body:
        owner = top.name + "." if isinstance(top, ast.ClassDef) else ""
        for node in [top] + (top.body if owner else []):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield owner + node.name, first, node.end_lineno


class Mentions(ast.NodeVisitor):
    """(key, line) for every name, attribute, import and non-docstring
    string word: the key is Class.name when the use is resolved to a class
    that defines the name, .name for any other attribute, else the bare
    name."""

    def __init__(self, methods, tree):
        self.methods = methods  # class name -> names of its methods
        self.skip = docstrings(tree)
        self.owner = None
        self.out = []

    def resolved(self, cls, name):
        return f"{cls}.{name}" if name in self.methods.get(cls, ()) else name

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_Name(self, node):
        self.out.append((node.id, node.lineno))

    def visit_alias(self, node):
        self.out.append((node.name.rsplit(".", 1)[-1], None))

    def visit_Attribute(self, node):
        recv = node.value
        name = getattr(recv, "id", None)
        if name in ("self", "cls") and self.owner:
            self.out.append((self.resolved(self.owner, node.attr), node.lineno))
        elif name in self.methods:
            self.out.append((self.resolved(name, node.attr), node.lineno))
        else:
            self.out.append(("." + node.attr, node.lineno))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if not isinstance(node.value, str) or id(node) in self.skip:
            return
        for word in WORD.findall(node.value):
            parts = word.split(".")
            k = 0
            while k < len(parts):
                if parts[k] in self.methods and k + 1 < len(parts):
                    self.out.append((self.resolved(parts[k], parts[k + 1]), node.lineno))
                    k += 2
                else:
                    self.out.append((parts[k], node.lineno))
                    k += 1


def method_table(trees):
    """Class name -> names of the methods it defines, over the src trees."""
    out = {}
    for tree in trees:
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                out[top.name] = {n.name for n in top.body if isinstance(n, ast.FunctionDef)}
    return out


def scan(sources):
    """For {path: source}, paths relative to the root: the uses (key ->
    [(path, line)]), the public definitions [(path, name, first, last)] of
    the files under src/gradix, and their method table."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    methods = method_table(t for p, t in trees.items() if p.startswith("src/gradix"))
    used, defined = {}, []
    for path, tree in trees.items():
        visitor = Mentions(methods, tree)
        visitor.visit(tree)
        for key, line in visitor.out:
            used.setdefault(key, []).append((path, line))
        if path.startswith("src/gradix"):
            defined += [(path, *d) for d in public_definitions(tree)]
    return used, defined, methods


def repo_sources():
    out = {}
    for top in SCANNED:
        for path in python_files(top):
            with open(path, encoding="utf-8") as fh:
                out[os.path.relpath(path, ROOT)] = fh.read()
    return out


def uses_elsewhere(used, path, name, first, last, bare=True, attribute=True):
    """The uses of a definition outside its own lines.  A function's uses
    are its name and any attribute of that name; a method's are Class.name,
    and with ``bare`` its name, and with ``attribute`` any attribute of
    that name."""
    cls, _, word = name.rpartition(".")
    keys = [name, "." + word] if not cls else [name] + [word] * bare + ["." + word] * attribute
    return [
        (p, line)
        for key in keys
        for p, line in used.get(key, ())
        if not (p == path and line is not None and first <= line <= last)
    ]


def unreached(sources):
    used, defined, _ = scan(sources)
    return [
        f"{path}:{first} {name}"
        for path, name, first, last in defined
        if name not in KEEP and not uses_elsewhere(used, path, name, first, last)
    ]


def test_every_public_surface_has_a_caller():
    assert unreached(repo_sources()) == []


def test_the_keep_list_names_live_definitions():
    _, defined, _ = scan(repo_sources())
    assert KEEP <= {name for _, name, _, _ in defined}


def test_the_check_sees_a_dead_method_named_like_a_live_one():
    # Dead.add shares its name with Kept.add, which self.add reaches; a
    # bare-word check would count that use for both.
    source = (
        "class Kept:\n"
        "    def add(self, other):\n"
        "        return other\n"
        "    def twice(self, other):\n"
        "        return self.add(self.add(other))\n"
        "class Dead:\n"
        "    def add(self, other):\n"
        "        return other\n"
    )
    caller = "from gradix.toy import Kept\nKept().twice(1)\nKept.add(None, 2)\n"
    assert unreached({"src/gradix/toy.py": source, "bench/toy.py": caller}) == ["src/gradix/toy.py:7 Dead.add"]
    assert unreached({"src/gradix/toy.py": source, "bench/toy.py": caller + "'Dead.add'\n"}) == []


# -- the slot rule ------------------------------------------------------------


def _called(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def compose_inverse_calls(source):
    """Lines of every compose(x, inverse(y)) call in a module's source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _called(node) == "compose"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Call)
        and _called(node.args[1]) == "inverse"
    ]


def test_the_guard_sees_an_inline_compose_inverse():
    assert compose_inverse_calls("d = g.compose(a, g.inverse(b))\ne = compose(g.inverse(a), b)\n") == [1]


def test_no_module_forks_the_slot_rule():
    forks = []
    for path in python_files("src/gradix"):
        if os.path.basename(path) == "groupoids.py":
            continue
        with open(path, encoding="utf-8") as fh:
            forks += [f"{os.path.relpath(path, ROOT)}:{line}" for line in compose_inverse_calls(fh.read())]
    assert forks == []


SLOT_READERS = ("elimination.py", "matrices.py", "matrix_ring.py")


def slot_compositions(source):
    """Lines of every compose_inverse call in a module's source, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called(node) == "compose_inverse"
    )


def test_the_guard_sees_an_inline_slot_composition():
    source = (
        "at = [pos.get(g.compose_inverse(alpha, b)) for b in col_sig]\n"
        "d = ring.slot(alpha, beta)\n"
        "e = compose_inverse(alpha, beta)\n"
    )
    assert slot_compositions(source) == [1, 3]


def test_matrix_modules_read_slots_through_the_ring():
    inline = []
    for name in SLOT_READERS:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            inline += [f"src/gradix/{name}:{line}" for line in slot_compositions(fh.read())]
    assert inline == []


SLOT_TAKERS = ("sparse_product", "live_entries")


def slot_callbacks(source):
    """Lines of every sparse_product or live_entries call in a module's
    source with a lambda or a .slot_degree attribute inside an argument."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _called(node) in SLOT_TAKERS
        and any(
            isinstance(sub, ast.Lambda) or (isinstance(sub, ast.Attribute) and sub.attr == "slot_degree")
            for arg in node.args + [k.value for k in node.keywords]
            for sub in ast.walk(arg)
        )
    )


def test_the_guard_sees_a_slot_callback():
    source = (
        "out = sparse_product(ring, x, y, lambda i, k: f(i, k), right)\n"
        "out = matrices.sparse_product(ring, x, y, a.slot_degree, b.slot_degree)\n"
        "out = live_entries('e', ring, entries, *(rows, cols), check=lambda i, j: None)\n"
        "out = sparse_product(ring, x, y, p.signatures_at(g1), p.signatures_at(g2))\n"
        "out = live_entries('e', ring, entries, rows, cols)\n"
        "f = lambda i, j: m.slot_degree(i, j)\n"
    )
    assert slot_callbacks(source) == [1, 2, 3]


def test_slots_come_from_signatures():
    callbacks = []
    for path in python_files("src/gradix"):
        with open(path, encoding="utf-8") as fh:
            callbacks += [f"{os.path.relpath(path, ROOT)}:{line}" for line in slot_callbacks(fh.read())]
    assert callbacks == []


# -- the one reader ----------------------------------------------------------

# Module -> the functions that may raise FormatError; None means anywhere.
FORMAT_RAISERS = {
    # the reader of the file format
    "specfiles.py": None,
    # a file of the wrong kind for the verb
    "cli.py": {"_load_ring_spec"},
    # refusals of input past a ceiling or outside what is decided
    "categories.py": {"check_hom_dimension", "classify_category", "category_to_semisimple_spec"},
    # scalars are parsed by the field that holds them; moduli by the field
    "fields.py": {"Rationals.coerce", "PrimeField.__init__", "PrimeField.coerce"},
    # a morphism read from JSON, which bench code also calls
    "groupoids.py": {"FiniteGroupoid.morphism_from_json"},
}


def owned_nodes(source, match):
    """(enclosing function, line) of every node of a module's source for
    which match is true; a method is named Class.name, module level is ''."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if match(child):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def _raises_format_error(node):
    if not (isinstance(node, ast.Raise) and node.exc is not None):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "FormatError"


def format_raises(source):
    """(enclosing function, line) of every ``raise FormatError`` in a
    module's source."""
    return owned_nodes(source, _raises_format_error)


def test_the_guard_sees_every_format_error_raise():
    source = (
        "class A:\n"
        "    def f(self):\n"
        "        if x:\n"
        "            raise FormatError('a')\n"
        "        def g():\n"
        "            raise errors.FormatError\n"
        "raise ValueError('b')\n"
        "raise FormatError('c')\n"
    )
    assert format_raises(source) == [("A.f", 4), ("A.f.g", 6), ("", 8)]


def test_only_the_reader_raises_format_errors():
    stray = []
    for path in python_files("src/gradix"):
        allowed = FORMAT_RAISERS.get(os.path.basename(path), set())
        with open(path, encoding="utf-8") as fh:
            raises = format_raises(fh.read())
        stray += [
            f"{os.path.relpath(path, ROOT)}:{line} {owner}"
            for owner, line in raises
            if allowed is not None and owner not in allowed
        ]
    assert stray == []


def load_json_references(source):
    """Lines of every name, attribute or import of load_json in a module's source."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "load_json")
        or (isinstance(node, ast.Attribute) and node.attr == "load_json")
        or (
            isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.rsplit(".", 1)[-1] == "load_json" for alias in node.names)
        )
    )


def test_the_guard_sees_every_load_json_reference():
    source = (
        "from .specfiles import (\n"
        "    load_json,\n"
        "    load_kind,\n"
        ")\n"
        "data = load_json(path)\n"
        "data = specfiles.load_json(path)\n"
        "read = load_kind\n"
    )
    assert load_json_references(source) == [1, 5, 6]


def test_only_the_reader_opens_json():
    stray = []
    for path in python_files("src/gradix"):
        if os.path.basename(path) == "specfiles.py":
            continue
        with open(path, encoding="utf-8") as fh:
            stray += [f"{os.path.relpath(path, ROOT)}:{line}" for line in load_json_references(fh.read())]
    assert stray == []


# -- kept structure ------------------------------------------------------------


def _private_sets(func, name):
    """The private attributes that assignments in func set on the variable
    name, or on any variable when name is None."""
    found = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and name in (None, sub.value.id)
                    and sub.attr.startswith("_")
                ):
                    found.add(sub.attr)
    return found


def unstarted_caches(source, cls="GradedDivisionRing"):
    """What keeps a ring's caches out of its one setup: the constructors
    (__init__, _trusted) that never call _setup, and the private attributes
    that a method assigns on any variable but _setup does not start on
    self, each sorted."""
    (klass,) = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == cls]
    methods = {n.name: n for n in klass.body if isinstance(n, ast.FunctionDef)}
    skipping = [
        name
        for name in ("__init__", "_trusted")
        if not any(isinstance(n, ast.Call) and _called(n) == "_setup" for n in ast.walk(methods[name]))
    ]
    started = _private_sets(methods["_setup"], "self")
    assigned = set().union(*(_private_sets(f, None) for name, f in methods.items() if name != "_setup"))
    return skipping, sorted(assigned - started)


def division_source():
    with open(os.path.join(SRC, "division.py"), encoding="utf-8") as fh:
        return fh.read()


def without(source, line):
    assert source.count(line) == 1
    return source.replace(line, "")


@pytest.mark.parametrize(
    "line, unstarted",
    [
        ("        ring._setup()\n", (["_trusted"], [])),
        ("        self._setup()\n", (["__init__"], [])),
    ],
    ids=["missing in _trusted", "missing in __init__"],
)
def test_the_guard_sees_a_cache_missing_from_either_constructor(line, unstarted):
    assert unstarted_caches(without(division_source(), line)) == unstarted


def test_the_guard_sees_a_cache_missing_from_setup():
    # connector() still fills self._connectors, which _setup no longer starts.
    assert unstarted_caches(without(division_source(), "        self._connectors = {}\n")) == ([], ["_connectors"])


def test_trusted_rings_start_every_cache():
    assert unstarted_caches(division_source()) == ([], [])


def integer_forms(source):
    """(enclosing function, line) of every ``.integers(`` call in a module's source."""
    return owned_nodes(source, lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "integers")


def test_the_guard_sees_a_second_integer_form():
    line = "        g, field = self.groupoid, self.field\n"
    source = division_source()
    assert source.count(line) == 1
    source = source.replace(line, line + "        nums, _ = field.integers(list(self.factor.values()))\n")
    assert [owner for owner, _ in integer_forms(source)] == [
        "GradedDivisionRing._check_cocycle",
        "GradedDivisionRing.factor_rows",
    ]


def test_only_factor_rows_puts_the_factor_set_on_integers():
    assert [owner for owner, _ in integer_forms(division_source())] == ["GradedDivisionRing.factor_rows"]


# -- the dynamic companion -----------------------------------------------------


def corpus():
    """Every single-operand verb on every fixture, and solve and iso on
    each healthy fixture paired with itself, in text form only; the other
    pairs of the snapshot enter no further function."""
    names = fixture_names()
    for verb in SINGLE:
        for name in names:
            yield list(verb) + [os.path.join(FIXTURES, name)]
    for verb in ("solve", "iso"):
        for name in names:
            if not name.startswith("broken/"):
                yield [verb] + [os.path.join(FIXTURES, name)] * 2


def entered_functions():
    """(path, first line) of every src/gradix function the corpus enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in corpus():
                run(argv)
    finally:
        sys.setprofile(None)
    return {(os.path.relpath(path, ROOT), line) for path, line in seen}


def interface_twins(methods):
    """Class -> the other classes with the same public method names: they
    implement one interface (the two fields), so a method entered on one
    is live on all."""
    public = {c: frozenset(n for n in names if not n.startswith("_")) for c, names in methods.items()}
    return {c: [d for d in public if d != c and public[d] == names] for c, names in public.items()}


def test_every_public_function_is_entered_or_named_by_class():
    entered = entered_functions()
    used, defined, methods = scan(repo_sources())
    owners = {}
    for cls, names in methods.items():
        for name in names:
            owners.setdefault(name, []).append(cls)
    live = {name for path, name, first, _ in defined if (path, first) in entered}
    twins = interface_twins(methods)

    def reached(path, name, first, last):
        cls, _, bare = name.rpartition(".")
        return (
            name in live
            or any(f"{twin}.{bare}" in live for twin in twins.get(cls, ()))
            # a name that one class alone defines is resolved by its name
            or uses_elsewhere(used, path, name, first, last, bare=False, attribute=owners.get(bare) == [cls])
        )

    dead = [
        f"{path}:{first} {name}"
        for path, name, first, last in defined
        if name not in KEEP and not reached(path, name, first, last)
    ]
    assert dead == [], "never entered and named by no class:\n" + "\n".join(dead)
