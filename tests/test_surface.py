"""No public surface that only its own tests reach.

Every public function and method defined in src/gradix must be named
somewhere in src/gradix or bench/ outside its own definition: as a name,
an attribute, an import, or a word of a string that is not a docstring
(bench/tracing.py patches methods by their dotted names).  Tests do not
count.  The names are compared as bare words, so a method shares its
uses with every other method of the same name; the check catches the
surfaces whose name nothing else mentions at all.

The paper's constructions below are kept even though only tests call
them: they are the library's account of the paper, not dead code.

A second check keeps the slot rule in one place: outside groupoids.py no
module of src/gradix may call compose(x, inverse(y)); a degree a o b^-1
comes from FiniteGroupoid.compose_inverse, or from
GradedDivisionRing.slot when it must also lie in the support.
"""

import ast
import os
import re

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SCANNED = ("src/gradix", "bench")

KEEP = {
    "category_to_semisimple_spec",  # the Gabriel/Mitchell bridge as a semisimple spec
    "corner_structure",
    "decompose_prime",
    "from_matrix",  # the matrix_form bridge, both ways
    "group_ring",
    "hom_degree_dimension",
    "is_pseudo_independent",
    "matrix_form",
    "prime_form",
    "simple_dimension",
    "to_matrix",
    "twisted_group_ring",
}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def mentions(tree):
    """(word, line) for every name, attribute, import and non-docstring string word."""
    skip = docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            for word in WORD.findall(node.value):
                yield word, node.lineno


def public_definitions(tree):
    """(name, first line, last line) of each public top-level function and method."""
    for top in tree.body:
        for node in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node.lineno, node.end_lineno


def unreached():
    used = {}  # word -> [(path, line)]
    defined = []  # (path, name, first, last)
    for top in SCANNED:
        for path in python_files(top):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for word, line in mentions(tree):
                used.setdefault(word, []).append((path, line))
            if top == "src/gradix":
                defined += [(path, *d) for d in public_definitions(tree)]
    out = []
    for path, name, first, last in defined:
        elsewhere = [
            (p, line) for p, line in used.get(name, ()) if not (p == path and line is not None and first <= line <= last)
        ]
        if not elsewhere and name not in KEEP:
            out.append(f"{os.path.relpath(path, ROOT)}:{first} {name}")
    return out


def test_every_public_surface_has_a_caller():
    assert unreached() == []


def test_the_keep_list_names_live_definitions():
    defined = set()
    for path in python_files("src/gradix"):
        with open(path, encoding="utf-8") as fh:
            defined |= {name for name, _, _ in public_definitions(ast.parse(fh.read(), path))}
    assert KEEP <= defined


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
