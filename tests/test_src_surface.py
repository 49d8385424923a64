"""``src/osmrank`` holds the production path only.

Every top-level definition of the package, and every method of a reached
class, must be reachable from a root: ``cli.main``, the top-level
statements of each module, the names the benchmark's span tracer wraps
(``TRACED`` in ``perfbench/spans.py``) and the names its set-up probe
imports (``setup`` in ``perfbench/inproc.py``).  Code that only tests use,
the generic pair-table models among it, belongs in ``tests/oracles.py``.

The walk is by name over the syntax tree: a reached body reaches every
top-level name of its own module and every imported ``osmrank`` name that
appears in it, annotations included.  A class adds only its bases,
decorators, class-level statements and reached methods; a method of a
reached class is reached when its name is read as an attribute in any
reached body (matching by name, so conservative), and dunder methods are
roots.  Imports themselves reach nothing, so a re-export does not keep a
name alive.  Every name a module imports must also be used in that module,
annotations included, and every name in a module's ``__all__`` must be
defined there.
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


def attributes_read(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def is_method(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))


def probe_imports() -> set[tuple[str, str]]:
    setup = next(s for s in parse(INPROC).body if isinstance(s, ast.FunctionDef) and s.name == "setup")
    return {(s.module, a.name) for s in ast.walk(setup) if isinstance(s, ast.ImportFrom) for a in s.names}


def production_roots() -> list[tuple[str, str]]:
    return [("osmrank.cli", "main"), *((m, n) for m, names in TRACED.items() for n in names),
            *sorted(probe_imports())]


def surface(
    modules: dict[str, ast.Module], roots: list[tuple[str, str]]
) -> tuple[dict[tuple[str, str], ast.stmt], set[tuple[str, str]]]:
    """(every top-level definition and method, the ones reachable from the
    roots and the modules' top-level statements); a method is keyed
    (module, "Class.method")."""
    definitions, imports, names, bodies = {}, {}, list(roots), []
    for module, tree in modules.items():
        imports[module] = imported_names(module, tree)
        for stmt in tree.body:
            defined = defined_names(stmt)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or any(n.startswith("__") for n in defined):
                continue  # imports and module metadata (__all__, __version__) reach nothing
            for name in defined:
                definitions[module, name] = stmt
            if isinstance(stmt, ast.ClassDef):
                for item in filter(is_method, stmt.body):
                    definitions[module, f"{stmt.name}.{item.name}"] = item
            if not defined:
                bodies.append((module, stmt))

    reached: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    waiting: dict[str, list[tuple[str, str]]] = {}  # attribute -> methods of reached classes it would reach
    while names or bodies:
        if not names:
            module, body = bodies.pop()
            names += [(module, ref) for ref in names_in(body)]
            for attribute in attributes_read(body) - attributes:
                attributes.add(attribute)
                names += waiting.pop(attribute, [])
            continue
        module, name = names.pop()
        if (module, name) not in definitions:
            if name in imports.get(module, {}):
                names.append(imports[module][name])
            continue
        if (module, name) in reached:
            continue
        reached.add((module, name))
        stmt = definitions[module, name]
        if not isinstance(stmt, ast.ClassDef):
            bodies.append((module, stmt))
            continue
        bodies += [(module, part) for part in (*stmt.bases, *stmt.keywords, *stmt.decorator_list)]
        for item in stmt.body:
            if not is_method(item):
                bodies.append((module, item))  # fields, __slots__ and other class-level statements
                continue
            method = (module, f"{stmt.name}.{item.name}")
            if item.name.startswith("__") and item.name.endswith("__") or item.name in attributes:
                names.append(method)
            else:
                waiting.setdefault(item.name, []).append(method)
    return definitions, reached


def unreached(modules: dict[str, ast.Module], roots: list[tuple[str, str]]) -> list[str]:
    """The definitions ``surface`` does not reach, as ``module.name`` and
    ``module.Class.method``; the methods of an unreached class are left out."""
    definitions, reached = surface(modules, roots)
    return sorted(f"{m}.{n}" for m, n in definitions.keys() - reached
                  if "." not in n or (m, n.split(".")[0]) in reached)


def test_every_definition_is_on_a_production_path():
    missing = unreached(package_modules(), production_roots())
    assert missing == [], f"move to tests/oracles.py or delete: {', '.join(missing)}"


WALKED = """
class Base:
    pass


class Model(Base):
    size: int = SIZE

    def __init__(self):
        self.cache = None

    def used(self):
        return helper()

    def unused(self):
        return only_in_unused() + self.ghost()

    def ghost(self):
        return 0


SIZE = 3


def helper():
    return 1


def only_in_unused():
    return 2


def main():
    return Model().used()
"""


def test_the_walk_reaches_methods_by_attribute_read():
    # a method nothing reads is flagged, and so are the names and attributes
    # read only inside it; one read as an attribute is reached; a dunder is a root
    modules, roots = {"pkg.cli": ast.parse(WALKED)}, [("pkg.cli", "main")]
    assert unreached(modules, roots) == ["pkg.cli.Model.ghost", "pkg.cli.Model.unused", "pkg.cli.only_in_unused"]
    _, reached = surface(modules, roots)
    assert {("pkg.cli", n) for n in ("Base", "SIZE", "helper", "Model.__init__", "Model.used")} <= reached


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
