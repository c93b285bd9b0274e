"""No orphaned code: every function and class in src/selmerfq is used."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selmerfq"


def _references(node):
    """The names node refers to: Name ids, Attribute attrs, the last part
    of imported names and their aliases, and string constants (a name
    passed to getattr or setattr, like the spans of bench/spans.py)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
            if sub.asname:
                yield sub.asname
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _trees(*folders):
    for folder in folders:
        for path in sorted(folder.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def test_every_definition_is_referenced():
    uses = collections.Counter()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "bench"):
        uses.update(_references(tree))
    definitions = collections.defaultdict(list)
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")):
                definitions[node.name].append(
                    "%s:%d" % (path.relative_to(ROOT), node.lineno))
                # a recursive call is no use from outside
                uses[node.name] -= sum(r == node.name
                                       for r in _references(node))
    orphans = sorted(where for name, places in definitions.items()
                     if uses[name] <= 0 for where in places)
    assert orphans == []
