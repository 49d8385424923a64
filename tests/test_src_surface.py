"""``src/osmrank`` holds the production path only.

Every top-level definition of the package must be reachable from a root:
``cli.main``, the top-level statements of each module, the names the
benchmark's span tracer wraps (``TRACED`` in ``perfbench/spans.py``) and the
names its set-up probe imports (``setup`` in ``perfbench/inproc.py``).  Code
that only tests use, the generic pair-table models among it, belongs in
``tests/oracles.py``.

The walk is by name over the syntax tree: a definition reaches every
top-level name of its own module and every imported ``osmrank`` name that
appears in its body, annotations included.  Imports themselves reach
nothing, so a re-export does not keep a name alive.  Every name a module
imports must also be used in that module, annotations included, and every
name in a module's ``__all__`` must be defined there.
"""

from __future__ import annotations

import ast
import os

from test_trace_contract import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(HERE, os.pardir, "src", "osmrank")
INPROC = os.path.join(HERE, os.pardir, "perfbench", "inproc.py")

def parse(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def package_modules() -> dict[str, ast.Module]:
    modules = {}
    for filename in sorted(os.listdir(PACKAGE)):
        stem, ext = os.path.splitext(filename)
        if ext == ".py":
            modules["osmrank" if stem == "__init__" else f"osmrank.{stem}"] = parse(
                os.path.join(PACKAGE, filename))
    return modules


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level definition or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def imported_names(module: str, tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) for each ``from osmrank... import``."""
    package = module if module == "osmrank" else module.rsplit(".", 1)[0]
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            source = f"{package}.{stmt.module}" if stmt.level else stmt.module
            for alias in stmt.names:
                out[alias.asname or alias.name] = (source, alias.name)
    return out


def names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def probe_imports() -> set[tuple[str, str]]:
    setup = next(s for s in parse(INPROC).body if isinstance(s, ast.FunctionDef) and s.name == "setup")
    return {(s.module, a.name) for s in ast.walk(setup) if isinstance(s, ast.ImportFrom) for a in s.names}


def surface() -> tuple[dict[tuple[str, str], ast.stmt], set[tuple[str, str]]]:
    """(every top-level definition, the definitions reachable from the roots)."""
    modules = package_modules()
    definitions, imports, roots = {}, {}, [("osmrank.cli", "main")]
    for module, tree in modules.items():
        imports[module] = imported_names(module, tree)
        for stmt in tree.body:
            names = defined_names(stmt)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or any(n.startswith("__") for n in names):
                continue  # imports and module metadata (__all__, __version__) reach nothing
            for name in names:
                definitions[module, name] = stmt
            if not names:
                roots += [(module, name) for name in names_in(stmt)]
    roots += [(module, name) for module, names in TRACED.items() for name in names]
    roots += sorted(probe_imports())

    reached: set[tuple[str, str]] = set()
    while roots:
        module, name = roots.pop()
        if (module, name) not in definitions:
            if name in imports.get(module, {}):
                roots.append(imports[module][name])
            continue
        if (module, name) in reached:
            continue
        reached.add((module, name))
        roots += [(module, ref) for ref in names_in(definitions[module, name])]
    return definitions, reached


def test_every_definition_is_on_a_production_path():
    definitions, reached = surface()
    unreached = sorted(f"{m}.{n}" for m, n in definitions.keys() - reached)
    assert unreached == [], f"move to tests/oracles.py or delete: {', '.join(unreached)}"


def test_package_init_defines_only_the_version():
    tree = parse(os.path.join(PACKAGE, "__init__.py"))
    docstring, *rest = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(stmt).split(" =")[0] for stmt in rest] == ["__version__"]


def test_every_import_is_used():
    unused = []
    for module, tree in package_modules().items():
        used = names_in(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound = [a.asname or a.name.split(".")[0] for a in stmt.names]
                unused += [f"{module}: {name}" for name in bound if name not in used]
    assert unused == [], f"unused imports: {', '.join(unused)}"


def test_every_exported_name_is_defined():
    undefined = []
    for module, tree in package_modules().items():
        defined = {name for stmt in tree.body for name in defined_names(stmt)}
        for stmt in tree.body:
            if "__all__" in defined_names(stmt):
                exported = ast.literal_eval(stmt.value)
                undefined += [f"{module}.{name}" for name in exported if name not in defined]
    assert undefined == [], f"in __all__ but not defined: {', '.join(undefined)}"
