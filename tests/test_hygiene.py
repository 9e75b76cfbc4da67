"""Import hygiene: no imported name goes unused, and the public API resolves."""

import ast
from pathlib import Path

import qvlasov

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
