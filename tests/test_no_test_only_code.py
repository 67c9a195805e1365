"""Every function and method of the package has a caller outside tests.

A function that only its own tests call is dead weight: it is deleted
together with those tests.  A function counts as used when its name is
loaded (as a name or an attribute) somewhere in src/autconj or perfbench/,
leaving out perfbench's own tests and the function's own definition.  The
same holds for the non-dunder methods of the package's classes, except
that a method counts as used only through an attribute load: a local
variable of the same name does not call it.
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
    """Counters of the names loaded under node: (as names, as attributes)."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs[sub.attr] += 1
    return names, attrs


def test_every_package_function_has_a_caller():
    names, attrs = Counter(), Counter()
    for users in USERS:
        for _, tree in _trees(users):
            n, a = _loaded_names(tree)
            names += n
            attrs += a
    unused = []
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                defs = [("%s.%s" % (node.name, fn.name), fn, True) for fn in node.body
                        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")]
            else:
                continue
            for name, fn, method in defs:
                own_names, own_attrs = _loaded_names(fn)
                uses = attrs[fn.name] - own_attrs[fn.name]
                if not method:
                    uses += names[fn.name] - own_names[fn.name]
                if fn.name not in ALLOWED and uses == 0:
                    unused.append("%s.%s" % (path.stem, name))
    assert unused == []
