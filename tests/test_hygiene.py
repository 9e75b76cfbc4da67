"""Import hygiene: no imported name goes unused, the public API resolves and
is used, and every indented JSON document goes through one writer."""

import ast
import re
from collections import Counter
from pathlib import Path

import qvlasov
from qvlasov import cli, evaluate, series

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "qvlasov").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _exported(tree: ast.Module) -> set:
    """The names listed in a module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(path: Path) -> list:
    """'file:line: name' for each name a module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


# The only modules that may read seed derivatives: the rest of the package
# turns series terms into floats through evaluate.term_derivatives.
SEED_READERS = {"seeds.py", "evaluate.py"}
SEED_NAMES = {"f0_deriv", "derivative_table", "seed_derivatives"}


def seed_reads(path: Path) -> list:
    """'file:line: name' for each use of a seed-derivative name in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in SEED_NAMES:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return found


def test_no_unused_imports():
    assert SOURCES
    assert [line for path in SOURCES for line in unused_imports(path)] == []


def test_public_names_resolve():
    missing = [name for name in qvlasov.__all__ if not hasattr(qvlasov, name)]
    assert missing == []


def test_seed_derivatives_read_in_one_place():
    modules = sorted((ROOT / "src" / "qvlasov").glob("*.py"))
    assert {path.name for path in modules} >= SEED_READERS
    assert [line for path in modules if path.name not in SEED_READERS
            for line in seed_reads(path)] == []


def indented_json_calls(source: str, name: str = "<source>") -> list:
    """'name:line' for each json.dump or json.dumps call in source that sets
    indent, or passes keywords through ** that could."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and any(k.arg in ("indent", None) for k in node.keywords)):
            found.append(f"{name}:{node.lineno}")
    return found


def test_indented_json_written_in_one_place():
    assert indented_json_calls("json.dump(d, fh, indent=2)\njson.dumps(d)\n"
                               "json.dumps(d, **kw)\n") == ["<source>:1",
                                                             "<source>:3"]
    modules = sorted((ROOT / "src" / "qvlasov").glob("*.py"))
    assert [line for path in modules for line in indented_json_calls(
        path.read_text(), str(path.relative_to(ROOT)))] == []
    assert cli._write_json is series.write_json
    assert evaluate.write_json is series.write_json


# Library entry points the README documents that no module of the package
# calls; every other function, class and method is used by the package
# itself or by perfbench.
LIBRARY_ONLY = ["seeds.py:CombinedSeed", "seeds.py:polylog_neg",
                "seeds.py:chi_from_z"]


def _references(tree: ast.AST) -> Counter:
    """How often tree reads each identifier: as a name, an attribute, an
    imported name or a part of a string that is a dotted name (perfbench
    names its targets in "module:Class.method" strings, getattr takes one)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.:]+", node.value):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def unreferenced(modules: dict, others=()) -> list:
    """'module:name' for each top-level function or class of modules
    ({file name: source}), and each of their non-dunder methods, that
    nothing outside its own definition references: no module other than
    __init__.py, and no source in others.  Names are matched bare, so a
    method counts as used when any method of its name is."""
    trees = {name: ast.parse(source) for name, source in modules.items()
             if name != "__init__.py"}
    total = sum((_references(t) for t in trees.values()), Counter())
    for source in others:
        total += _references(ast.parse(source))
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)] + [
                (f"{node.name}.{sub.name}", sub) for sub in node.body
                if isinstance(node, ast.ClassDef) and isinstance(sub, ast.FunctionDef)
                and not (sub.name.startswith("__") and sub.name.endswith("__"))]
            found += [f"{name}:{qual}" for qual, d in defs
                      if total[d.name] == _references(d)[d.name]]
    return found


def test_unreferenced_names_are_found():
    modules = {
        "a.py": ('def used():\n    return 1\n\n'
                 'def unused():\n    return unused() or "not unused"\n\n'
                 'class Kept:\n    def method(self):\n        pass\n\n'
                 '    def __len__(self):\n        return 0\n'),
        "b.py": "from a import used\n",
        "__init__.py": "from a import unused\n",
    }
    assert unreferenced(modules) == ["a.py:unused", "a.py:Kept",
                                     "a.py:Kept.method"]
    assert unreferenced(modules, ['TARGET = "a:Kept.method"\n']) == ["a.py:unused"]


def test_every_public_name_is_used():
    package = ROOT / "src" / "qvlasov"
    modules = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert bench
    assert unreferenced(modules, bench) == LIBRARY_ONLY
