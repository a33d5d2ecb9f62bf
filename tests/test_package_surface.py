"""The package holds what a route reads.

Every function, method and class defined in ``src/zollfins`` must be read
somewhere outside its own definition: in the package, in a benchmark script
(``bench/*.py``, whose tracer binds names as strings) or in the README's
library quick tour.  An import alone is not a read, so a re-export in
``__init__.py`` does not count.  A method counts as read where its name is
taken as an attribute, a function or class where its name is loaded; a
string constant equal to the name counts as both.  Dunder methods run
implicitly and are not checked.  What the tests alone read belongs in
``tests/oracles.py``, or on ``UNREAD`` with the reason it stays.

Every name a module imports must be loaded in that module too, so that a
deletion leaves no stale import behind; the re-exports of ``__init__.py``
are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "zollfins").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

#: Definitions that no route reads, each with the reason it stays.
UNREAD = {
    "coords_of_geodesic": "public chart map of a surface geodesic; the README's notes name it",
    "f_polynomial": "the exact F-equation, the algebraic oracle of the norm (ROADMAP item 6)",
    "FPolynomial.coeffs": "the float coefficients of f_polynomial's equation",
    "example1": "the paper's first worked profile, public",
    "example2": "the paper's second worked profile, public",
    "round_sphere": "the round sphere h = 0, public",
}


def _definitions(tree: ast.AST, owner: str = ""):
    """(qualified name, node, is_method) of every def and class, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{owner}{node.name}", node, bool(owner) and owner[-1] == "."
            inner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            yield from _definitions(node, inner)
        else:
            yield from _definitions(node, owner)


def _reads(tree: ast.AST) -> tuple[Counter, Counter]:
    """Names loaded and attribute names taken in ``tree``; a string
    constant counts as both."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
            attrs[node.value] += 1
    return names, attrs


def _unread() -> set[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + BENCH}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _reads(tree)
        names.update(n)
        attrs.update(a)
    readme = (ROOT / "README.md").read_text()
    tour = Counter(re.findall(r"\w+", readme.split("## Library quick tour", 1)[1]
                              .split("```")[1]))
    unread = set()
    for path in SRC:
        for qualname, node, is_method in _definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _reads(node)
            outside = attrs[name] - own_attrs[name]
            if not is_method:
                outside += names[name] - own_names[name]
            if outside <= 0 and not tour[name]:
                unread.add(qualname)
    return unread


def test_every_definition_is_read_or_listed():
    """A definition that only the tests read fails this until it moves to
    tests/oracles.py or gains an UNREAD entry, and one that gains a reader
    must leave UNREAD."""
    assert _unread() == set(UNREAD)


def _stale_imports(tree: ast.AST) -> set[str]:
    """Names bound by the imports in ``tree`` (``from __future__`` aside)
    that no expression in it loads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


def test_every_import_is_read():
    stale = {f"{path.stem}.{name}" for path in SRC if path.name != "__init__.py"
             for name in _stale_imports(ast.parse(path.read_text(), str(path)))}
    assert stale == set()
