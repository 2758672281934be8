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
share the ring's one slot table.
"""

import ast
import contextlib
import io
import os
import re
import sys

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
