"""Import hygiene: no imported name goes unused, the public API resolves and
is used, every defaulted parameter is set by some caller, no positional
parameter is always passed the same literal, every indented JSON document
goes through one writer, the exact layer loads no numpy and reaches floats
through one kernel, no command loads numpy.random, no module makes a
grid axis but evaluate.axis_points, and no module calls np.trapezoid or
forms trapezoid weights but evaluate."""

import ast
import os
import re
import subprocess
import sys
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


def _package_and_bench():
    """({file name: source} of the package's modules, [perfbench sources])."""
    package = ROOT / "src" / "qvlasov"
    modules = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert bench
    return modules, bench


def test_every_public_name_is_used():
    assert unreferenced(*_package_and_bench()) == LIBRARY_ONLY


# Defaulted parameters of the ring's constructors that only the tests set.
TEST_ONLY_ARGUMENTS = ["ring.py:Coefficient.__init__(terms)",
                       "ring.py:Coefficient.pi_power(value)",
                       "ring.py:RingElem.x(power)", "ring.py:RingElem.trig(xpow)",
                       "ring.py:RingElem.trig(coeff)"]


def _call_name(call: ast.Call):
    """The bare name a call is made through: a function's or an attribute's."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _positional(func: ast.FunctionDef, method: bool) -> list:
    """The positional parameters of func, without self or cls."""
    positional = func.args.posonlyargs + func.args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in func.decorator_list):
        positional = positional[1:]
    return positional


def _defaulted(func: ast.FunctionDef, method: bool) -> list:
    """(name, position) of each defaulted parameter of func, the position
    counted without self or cls, None for a keyword-only one."""
    args = func.args
    positional = _positional(func, method)
    first = len(positional) - len(args.defaults)
    return [(a.arg, i) for i, a in enumerate(positional) if i >= first] + [
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _sets(call: ast.Call, name: str, position) -> bool:
    """Whether call sets the parameter: by keyword, through a * or **
    splat, or with more than position positional arguments."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def _calls_and_defs(modules: dict, others) -> tuple:
    """({bare name: [calls]} over modules ({file name: source}) and others,
    [(module, qualified name, bare name, def, is method)] for each top-level
    function and each method of a top-level class outside __init__.py).  A
    function is called by its name, a method by its name after a dot, and
    __init__ by its class's name."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    calls: dict = {}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    defs = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((name, node.name, node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(name, f"{node.name}.{sub.name}",
                          node.name if sub.name == "__init__" else sub.name, sub, True)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
    return calls, defs


def unset_defaults(modules: dict, others=()) -> list:
    """'module:name(parameter)' for each defaulted parameter of a top-level
    function of modules ({file name: source}), or of a method of a top-level
    class, that no call sets outside the function's own body: no call in
    modules, __init__.py included, and none in others.  Calls are matched
    bare, by the function's name, or by the class's name for __init__."""
    calls, defs = _calls_and_defs(modules, others)
    found = []
    for name, qual, callee, func, method in defs:
        own = {id(n) for n in ast.walk(func)}
        found += [f"{name}:{qual}({param})"
                  for param, position in _defaulted(func, method)
                  if not any(_sets(call, param, position)
                             for call in calls.get(callee, [])
                             if id(call) not in own)]
    return found


def test_unset_defaults_are_found():
    modules = {
        "a.py": ("def f(x, y=1, *, z=2):\n    return f(x, y, z=z)\n\n"
                 "def g(x, y=1):\n    pass\n\n"
                 "class K:\n    def __init__(self, a=0):\n        pass\n\n"
                 "    def m(self, b=0, c=1):\n        pass\n\n"
                 "    @staticmethod\n    def s(b=0):\n        pass\n"),
        "b.py": "from a import K, f, g\nf(1)\ng(*args)\nK(1).m(2)\nK.s(1)\n",
        "__init__.py": "def h(v=0):\n    pass\n",
    }
    assert unset_defaults(modules) == ["a.py:f(y)", "a.py:f(z)", "a.py:K.m(c)"]
    assert unset_defaults(modules, ["f(0, z=3)\n", "K().m(**kw)\n"]) == ["a.py:f(y)"]


def test_every_defaulted_parameter_is_set():
    assert unset_defaults(*_package_and_bench()) == TEST_ONLY_ARGUMENTS


# Positional parameters of the ring's constructors that only the tests vary.
TEST_ONLY_VARIED = ["ring.py:Coefficient.pi_power(exponent)"]


def _passed_literal(call: ast.Call, name: str, position: int):
    """ast.dump of the literal call passes as the parameter, or None when it
    passes no literal there, leaves the parameter out or has a splat."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    value = (call.args[position] if len(call.args) > position
             else next((k.value for k in call.keywords if k.arg == name), None))
    if value is None:
        return None
    try:
        ast.literal_eval(value)
    except (ValueError, TypeError):
        return None
    return ast.dump(value)


def always_one_literal(modules: dict, others=()) -> list:
    """'module:name(parameter)' for each positional parameter of a top-level
    function of modules ({file name: source}), or of a method of a top-level
    class, that every call passes as the same literal: calls in modules,
    __init__.py and the function's own body included, and in others.  Calls
    are matched bare, as in unset_defaults; a call that leaves the parameter
    out, or passes arguments through a * or ** splat, keeps it unflagged."""
    calls, defs = _calls_and_defs(modules, others)
    found = []
    for name, qual, callee, func, method in defs:
        for position, arg in enumerate(_positional(func, method)):
            passed = {_passed_literal(call, arg.arg, position)
                      for call in calls.get(callee, [])}
            if len(passed) == 1 and None not in passed:
                found.append(f"{name}:{qual}({arg.arg})")
    return found


def test_parameters_always_one_literal_are_found():
    modules = {
        "a.py": ("def f(x, y, z):\n    return f(x - 1, 2, z) if x else 0\n\n"
                 "def g(x, y=1):\n    pass\n\n"
                 "class K:\n    def __init__(self, a):\n        pass\n\n"
                 "    def m(self, b, c=0):\n        pass\n\n"
                 "    @staticmethod\n    def s(b):\n        pass\n"),
        "b.py": ("from a import K, f, g\nf(3, 2, 'z')\ng(-1.5)\ng(x=-1.5, y=2)\n"
                 "K(None).m((1, 2))\nK.s(1)\nK.s(2)\n"),
        "__init__.py": "from a import f\nf(1, 2, 'z')\ng(-1.5, 3)\n",
    }
    assert always_one_literal(modules) == ["a.py:f(y)", "a.py:g(x)", "a.py:K.__init__(a)",
                                           "a.py:K.m(b)"]
    assert always_one_literal(modules, ["f(0, *rest)\n", "K(**kw)\n", "g(1.5)\n"]) == [
        "a.py:K.m(b)"]


def test_no_parameter_is_always_one_literal():
    assert always_one_literal(*_package_and_bench()) == TEST_ONLY_VARIED


# The exact layer: its modules import no numpy when they are loaded, and
# its elements reach floats only through the numeric layer's one kernel.
EXACT_LAYER = ("ring.py", "series.py", "parser.py", "potentials.py")
FLOAT_KERNEL = ["evaluate.py:cell_values"]


def _import_time_nodes(node: ast.AST):
    """The nodes of node that run when its module is loaded: all but the
    bodies of functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def module_numpy_imports(source: str, name: str = "<source>") -> list:
    """'name:line' for each import of numpy, or of a part of it, that runs
    when source is loaded as a module."""
    found = []
    for node in _import_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        if any(m == "numpy" or m.startswith("numpy.") for m in modules):
            found.append(f"{name}:{node.lineno}")
    return found


def callers(modules: dict, attribute: str) -> list:
    """'module:function' for each top-level function of modules ({file
    name: source}), or method of a top-level class, that reads attribute,
    one entry per read."""
    found = []
    for name, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                funcs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            found += [f"{name}:{qual}" for qual, func in funcs for n in ast.walk(func)
                      if isinstance(n, ast.Attribute) and n.attr == attribute]
    return sorted(found)


def test_layering_checks_find_their_cases():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nimport numpyro\n"
              "from . import numpy\ntry:\n    import numpy.fft\nexcept ImportError:\n"
              "    pass\nclass K:\n    import numpy\n\n    def f(self):\n"
              "        import numpy\n\ndef g():\n    import numpy\n")
    assert module_numpy_imports(source) == ["<source>:1", "<source>:2", "<source>:6",
                                            "<source>:10"]
    modules = {"a.py": ("def f(e):\n    return e._g() + e._g()\n\n"
                        "class K:\n    def _g(self):\n        return self._h\n\n"
                        "    def m(self):\n        return self._g()\n"),
               "b.py": "def h(e):\n    return e._h\n"}
    assert callers(modules, "_g") == ["a.py:K.m", "a.py:f", "a.py:f"]
    assert callers(modules, "_h") == ["a.py:K._g", "b.py:h"]


def test_exact_layer_loads_no_numpy_and_reads_floats_in_one_kernel():
    package = ROOT / "src" / "qvlasov"
    modules = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert set(modules) >= set(EXACT_LAYER)
    assert [line for name in EXACT_LAYER
            for line in module_numpy_imports(modules[name], name)] == []
    assert callers(modules, "_float_groups") == FLOAT_KERNEL


def numpy_random_uses(source: str, name: str = "<source>") -> list:
    """'name:line' for each import of numpy.random in source, in any form,
    and each read of a random attribute of numpy or np."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        else:
            continue
        if hit:
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_module_imports_numpy_random():
    assert numpy_random_uses(
        "import numpy.random\nfrom numpy.random import default_rng\n"
        "from numpy import random, pi\nimport numpy as np\nnp.random.rand\n"
        "from random import random\nimport random\n") == [
        "<source>:1", "<source>:2", "<source>:3", "<source>:5"]
    modules = sorted((ROOT / "src" / "qvlasov").glob("*.py"))
    assert [line for path in modules for line in numpy_random_uses(
        path.read_text(), str(path.relative_to(ROOT)))] == []


def linspace_uses(source: str, name: str = "<source>") -> list:
    """'name:line' for each read or import of a name linspace in source."""
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and node.id == "linspace")
            or (isinstance(node, ast.Attribute) and node.attr == "linspace")
            or (isinstance(node, ast.alias) and node.name == "linspace")]


def test_grid_axes_made_in_one_place():
    # every grid axis is evaluate.axis_points, whose bitwise antisymmetry on
    # a symmetric range the grid fill relies on; np.linspace's is not
    assert linspace_uses("import numpy as np\nfrom numpy import linspace\n"
                         "np.linspace(0, 1, 3)\nlinspace(0, 1, 3)\n"
                         "'np.linspace'\n") == ["<source>:2", "<source>:3",
                                                 "<source>:4"]
    modules = sorted((ROOT / "src" / "qvlasov").glob("*.py"))
    assert [line for path in modules for line in linspace_uses(
        path.read_text(), str(path.relative_to(ROOT)))] == []


def trapezoid_names(source: str, name: str = "<source>") -> list:
    """'name:line: id' for each read, import or definition in source of a
    name with trapezoid or trapz in it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            ident = node.name
        else:
            continue
        if "trapezoid" in ident or "trapz" in ident:
            found.append((node.lineno, ident))
    return [f"{name}:{line}: {ident}" for line, ident in sorted(found)]


def test_grid_integrals_take_one_trapezoid_rule():
    # every grid integral takes evaluate's unit trapezoid weights on the
    # uniform steps; np.trapezoid takes the steps between the rounded axis
    # points, a second rule that differs by roundoff, which a cancelling
    # integral amplifies
    assert trapezoid_names("import numpy as np\nfrom numpy import trapz\n"
                           "np.trapezoid(y, x)\ndef _trapezoid_weights(n):\n"
                           "    return 'trapezoid'\n") == [
        "<source>:2: trapz", "<source>:3: trapezoid", "<source>:4: _trapezoid_weights"]
    found = [line for path in sorted((ROOT / "src" / "qvlasov").glob("*.py"))
             for line in trapezoid_names(path.read_text(), path.name)]
    assert found and {line.split(":")[0] for line in found} == {"evaluate.py"}
    assert {line.split(": ")[1] for line in found} == {"_unit_trapezoid"}


# One small run of each command, numeric and symbolic verify both; none may
# load numpy.random, which verify's sample points are drawn without.
GUARD_SCRIPT = """
import sys
from qvlasov.cli import main
assert "numpy.random" not in sys.modules, "import"
common = ["--potential", "goldstone", "--order", "2", "--qrange=-3,3,21",
          "--prange=-3,3,21"]
runs = [["expand", "--potential", "goldstone", "--order", "2"],
        ["evaluate", *common, "--hbar", "0.3"],
        ["diagnose", *common, "--hbar-list", "0.1,0.3"],
        ["verify", "--potential", "modulated:a=1/2", "--order", "1",
         "--seed", "fd:z=1", "--mode", "numeric", "--samples", "8"],
        ["verify", "--potential", "goldstone", "--order", "2",
         "--mode", "symbolic"]]
for i, argv in enumerate(runs):
    assert main([*argv, "--out", f"{sys.argv[1]}/{i}"]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
"""


def test_no_command_loads_numpy_random(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", GUARD_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2", "3", "4"]


# fd:chi calibrates with a Gauss-Legendre rule held as constants, so no
# run loads numpy.polynomial (seven modules) for it.
CALIBRATION_SCRIPT = """
import sys
from qvlasov.cli import main
assert main(["diagnose", "--potential", "goldstone", "--order", "1",
             "--seed", "fd:chi=1", "--qrange=-3,3,11", "--prange=-3,3,11",
             "--hbar-list", "0.2", "--out", sys.argv[1]]) == 0
assert "numpy.polynomial" not in sys.modules
"""


def test_fd_chi_calibration_leaves_numpy_polynomial_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CALIBRATION_SCRIPT, str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "qsweep.csv").is_file()
