"""Every function and method of the package has a caller outside tests.

A function that only its own tests call is dead weight: it is deleted
together with those tests.  A function counts as used when its name is
loaded (as a name or an attribute) somewhere in src/autconj or perfbench/,
leaving out perfbench's own tests and the function's own definition.  The
same holds for the non-dunder methods of the package's classes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autconj"
USERS = (PACKAGE, ROOT / "perfbench")

# peval is kept as the root oracle of the factoring tests
ALLOWED = {"peval"}


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        if "tests" not in path.relative_to(ROOT).parts:
            yield path, ast.parse(path.read_text(), filename=str(path))


def _loaded_names(node):
    """Counter of the names loaded under node, as names or attributes."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def test_every_package_function_has_a_caller():
    everywhere = Counter()
    for users in USERS:
        for _, tree in _trees(users):
            everywhere += _loaded_names(tree)
    unused = []
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [("%s.%s" % (node.name, fn.name), fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")]
            else:
                continue
            for name, fn in defs:
                if fn.name not in ALLOWED and everywhere[fn.name] == _loaded_names(fn)[fn.name]:
                    unused.append("%s.%s" % (path.stem, name))
    assert unused == []
