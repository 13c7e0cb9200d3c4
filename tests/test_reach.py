"""Every function, class and method of diskrig is reached from outside the
unit tests: named in the package itself (outside its own definition), in the
benchmark, or in the acceptance suite.  What only unit tests reach is deleted
together with the tests that exist only for it, or listed in EXEMPT with the
reason it stays.  Likewise every defaulted or keyword-only parameter is
passed by some call from outside the unit tests, or listed in OPTION_EXEMPT.
Every name in EXEMPT is defined in the package, and every key of
OPTION_EXEMPT names a defaulted or keyword-only parameter of it.  And every
name that the package or the tests import is used where it is imported."""
import ast
import re
from collections import Counter
from pathlib import Path

import diskrig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diskrig"
TESTS = ROOT / "tests"
READERS = [*sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "bench" / "tests").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# reached only from the unit tests, and kept
EXEMPT = {
    # the strict check of the observations on the shift graph H, which
    # subsumptive_subsets reports without raising
    "build_H",
    # raised by the tests' reference triple-intersection oracle of is_thin
    "DegenerateTriple",
}

# a string that is a dotted identifier names code: the benchmark's tracer
# wraps functions by such names; free text and docstrings name nothing
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and DOTTED.fullmatch(n.value):
            yield from n.value.split(".")


def _definitions(tree):
    """(qualified name, node) of each module-level function and class, and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__")):
                    yield f"{node.name}.{m.name}", m


def test_no_api_that_only_unit_tests_reach():
    trees = {path: ast.parse(path.read_text()) for path in [*sorted(SRC.glob("*.py")), *READERS]}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unreached = [
        f"{path.name}: {qualname}"
        for path, tree in trees.items()
        if path.parent == SRC
        for qualname, node in _definitions(tree)
        if node.name not in EXEMPT
        and node.name not in diskrig.__all__
        and used[node.name] == Counter(_names(node))[node.name]
    ]
    assert unreached == []


# options that no call outside the unit tests passes, and kept
OPTION_EXEMPT = {
    "index_via_torus.u": "the torus formula holds at any admissible base point; the tests evaluate it off the graph's own",
    "is_thin.interiors_only": "the paper's variant of thinness without a common interior point, checked against its reference",
    "generate_meat.shrink": "the near-degenerate meat instances, whose margin must stay positive as it tends to 0",
    "generate_finlandia.shrink": "the near-degenerate finlandia instances, as for meat",
    "generate_contained_loops.n": "contained loops of every length from 3 to 8, not only the lengths a draw picks",
    "resolve_pair.n_petals": "the 6-petal solver pair that the CLI's normalize test compares",
}


def _options(tree):
    """(called name, qualified name, parameter, position in a call) of each
    defaulted or keyword-only parameter of each module-level function and
    method.  A call names an __init__ by its class and passes a method's self
    or cls implicitly; a keyword-only parameter has no position."""
    funcs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    funcs += [(node, m) for node in tree.body if isinstance(node, ast.ClassDef) for m in node.body if isinstance(m, ast.FunctionDef)]
    for cls, f in funcs:
        name = cls.name if cls and f.name == "__init__" else f.name
        qualname = f"{cls.name}.{f.name}" if cls else f.name
        bound = cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        positional = [*f.args.posonlyargs, *f.args.args]
        first = len(positional) - len(f.args.defaults)
        for k, a in enumerate(positional[first:], first):
            yield name, f"{qualname}.{a.arg}", a.arg, k - bound
        for a in f.args.kwonlyargs:
            yield name, f"{qualname}.{a.arg}", a.arg, None


def _passed(trees):
    """(called name, parameter name or position) of every argument that a call
    passes."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Name, ast.Attribute)):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            yield from ((name, kw.arg) for kw in node.keywords)
            yield from ((name, k) for k in range(len(node.args)))


def test_no_option_that_only_unit_tests_pass():
    trees = {path: ast.parse(path.read_text()) for path in [*sorted(SRC.glob("*.py")), *READERS]}
    passed = set(_passed(trees.values()))
    unpassed = [
        f"{path.name}: {option}"
        for path, tree in trees.items()
        if path.parent == SRC
        for name, option, arg, position in _options(tree)
        if arg not in ("self", "cls") and option not in OPTION_EXEMPT
        and (name, arg) not in passed and (name, position) not in passed
    ]
    assert unpassed == []


def test_no_stale_exemption():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = {node.name for tree in trees for _qualname, node in _definitions(tree)}
    options = {option for tree in trees for _name, option, _arg, _position in _options(tree)}
    assert sorted(EXEMPT - defined) == []
    assert sorted(set(OPTION_EXEMPT) - options) == []


def _imported(tree):
    """(name bound, line) of each import; __future__ imports bind nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _uses(tree, *, fixtures):
    """Every name read in the module, each string listed in its __all__ and,
    with fixtures, every function parameter, as pytest passes an imported
    fixture to a parameter of that name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif fixtures and isinstance(node, ast.FunctionDef):
            yield from (a.arg for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs])
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str))


def test_no_unused_imports():
    unused = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        tree = ast.parse(path.read_text())
        uses = set(_uses(tree, fixtures=path.parent == TESTS))
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in _imported(tree) if name not in uses]
    assert unused == []
