"""Import hygiene: no imported name goes unused, the public API resolves, and\nevery indented JSON document goes through one writer."""

import ast
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
