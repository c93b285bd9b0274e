"""No orphaned code: every function and class in src/selmerfq is used, and
every function that no report runs is named with the check it serves."""

import ast
import collections
import json
import pathlib
import sys

import selmerfq
from selmerfq import cli, lfunction

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selmerfq"

# The module-level functions and methods that no CLI report enters, each
# with the check it serves.  Every other one is run by a report, as
# test_every_definition_is_reached_or_named traces.
NAMED = {
    # cross-checks: a second route to what a report computes
    "weierstrass.is_smooth_surface":
        "Kodaira route to smoothness: the oracle of smooth_by_gcd "
        "(criterion 10, bench/selftest.py)",
    "weierstrass.singular_surface_points":
        "direct Jacobian search: the oracle of is_smooth_surface and "
        "census.singular_branches (criterion 10)",
    "weierstrass.fiber_cubic":
        "the reduced fiber cubic of singular_surface_points and "
        "fiber_point_count",
    "weierstrass._fiber_multiple_root":
        "the fiber's multiple root, for singular_surface_points",
    "ffpoly.BinaryForm.jet":
        "Taylor coefficients at a place: the oracle of leading_at, and "
        "the fiber data of singular_surface_points",
    "weierstrass.minimality_bruteforce":
        "divisibility at every place: the oracle of minimality_of_forms",
    "lfunction.surface_point_count_slow":
        "pure-Python point count: the oracle of surface_point_count",
    "localdata.cubic_point_count":
        "a fiber's points by characters, for the slow counts",
    "ffpoly.UniPoly.evaluate":
        "evaluation in the slow counts and the torsion search",
    "ffpoly.Field.elements":
        "enumeration of F_q in the slow counts, stabilizer_order and the "
        "torsion search",
    "localdata.fiber_point_count":
        "fiber count: the oracle of local_data_at's Kodaira type and "
        "split flag",
    "ffpoly.is_squarefree":
        "scalar oracle of classify's squarefree_disc bit (bench/spans.py)",
    "ffpoly.ord_at":
        "scalar valuation, the oracle of classify and incidence_mask",
    "weierstrass.stabilizer_order":
        "stabilizer of a model in G, for orbit_stabilizer_audit",
    "weierstrass.compose":
        "the group law of G: checks that act is a group action",
    "census.exhaustive_minimality":
        "non-minimal tuples at q = 3 by two routes (criterion 6, bench)",
    "census.tuple_to_index":
        "mixed-radix code of exhaustive_minimality's second route",
    # acceptance deliverables
    "census.orbit_stabilizer_audit":
        "criterion 7: |orbit| |stabilizer| = |G|",
    "weierstrass.act_on_forms": "criterion 7: G acting on coefficient forms",
    "weierstrass.f7_example_model": "criterion 8: the F_7 example",
    "weierstrass.torsion_section_search":
        "criteria 8 and 9: polynomial torsion sections",
    "weierstrass._roots_in_t": "torsion_section_search's roots in F_q[t]",
    "weierstrass._psi3_in_x": "torsion_section_search's 3-division polynomial",
    "weierstrass._subst_x": "torsion_section_search's substitution x = r(t)",
    # constructors the tests build inputs with
    "ffpoly.BinaryForm.zero": "the zero form, for constant test models",
    "weierstrass.act": "G acting on models, for invariance tests",
    # run at import, before any report
    "lfunction._cyclotomics": "the cyclotomic table, built at import",
}

# y^2 = x^3 + t^2 s^2 x + t^3 s^3 + t^6 over F_5: I_0* at t = 0, where the
# component count reaches count_roots
I0_STAR = {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 0], "a4": [0, 0, 1, 0, 0],
           "a6": [0, 0, 0, 1, 0, 0, 1]}
# y^2 = x^3 + s^2 x^2 + t^5 s over F_5: I_5 at t = 0 and t = 3, II at
# infinity; the 5th powers in Delta reach factor's p-th-root step
I5_PAIR = {"p": 5, "k": 1, "d": 1, "a2": [1, 0, 0], "a4": [0, 0, 0, 0, 0],
           "a6": [0, 0, 0, 0, 0, 1, 0]}


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


def _definitions(package):
    """(file, first line) -> "module.name" for each non-dunder module-level
    function and method; a decorated one starts at its first decorator, as
    its code object does."""
    out = {}
    for path, tree in _trees(package):
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            for f in node.body if is_class else [node]:
                if isinstance(f, ast.FunctionDef) \
                        and not (f.name.startswith("__")
                                 and f.name.endswith("__")):
                    name = node.name + "." + f.name if is_class else f.name
                    first = min([f.lineno] + [d.lineno
                                              for d in f.decorator_list])
                    out[str(path), first] = path.stem + "." + name
    return out


def test_every_definition_is_reached_or_named(tmp_path, monkeypatch, capsys):
    # empty caches, so that the tables and the parser are built in the trace
    monkeypatch.setattr(lfunction.ExtField, "_cache", {})
    lfunction._cyclotomic_products.cache_clear()
    cli.build_parser.cache_clear()
    reports = [
        ["census", "--q", "5", "--d", "1", "--n", "10000"],
        ["census", "--q", "5", "--d", "0", "--mode", "exhaustive"],
        ["divisor-count", "--q", "3", "--samples", "300"],
        ["orbits", "--n", "2", "--d", "2"],
        ["orbits", "--n", "3", "--d", "2", "--mode", "sample",
         "--pairs", "2"],
        ["weyl-e8", "--n", "2", "--out", str(tmp_path / "weyl.json")],
        ["average-table", "--n", "2,3", "--d", "1",
         "--out", str(tmp_path / "table.json")],
        ["average-table", "--n", "2,3", "--d", "2"],
    ]
    draws = [
        ["model-gen", "--q", "5", "--d", "1", "--smooth", "--count", "2"],
        ["model-gen", "--q", "5^2", "--d", "1", "--minimal", "--count", "2"],
        ["model-gen", "--q", "7", "--d", "2", "--count", "2"],
        ["model-gen", "--q", "2147483659", "--d", "1"],
    ]
    entered, codes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename,
                         frame.f_code.co_firstlineno))

    def run(argv):
        codes.append((cli.main(argv), argv))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in reports:
            run(argv)
        models = [I0_STAR, I5_PAIR]
        for i, argv in enumerate(draws):
            out = tmp_path / ("draw%d.json" % i)
            run(argv + ["--out", str(out)])
            models += json.loads(out.read_text())["result"]["models"]
        for i, model in enumerate(models):
            path = tmp_path / ("model%d.json" % i)
            path.write_text(json.dumps(model))
            for command in ("tate", "lfunction"):
                run([command, "--model", str(path)])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    # 2: lfunction refuses d = 2, F_25 and the large prime, and the I_0*
    # and I_5 models are not smooth
    assert [argv for code, argv in codes if code not in (0, 2)] == []
    entered = {(str(pathlib.Path(f).resolve()), line) for f, line in entered}
    package = pathlib.Path(selmerfq.__file__).resolve().parent
    unreached = {name for key, name in _definitions(package).items()
                 if key not in entered}
    assert sorted(unreached - set(NAMED)) == [], "run by no report, not named"
    assert sorted(set(NAMED) - unreached) == [], "named, but run or gone"
