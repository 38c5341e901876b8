"""API audit: every exported name, every module-level function and class of
the package, private ones included, and every module-level constant has a
caller outside the tests.

A name counts as used when, outside its own definition (or, for a constant,
its own assignment), it is loaded by name in its own module, imported by
name from that module, or read as `module.name`, anywhere in `src/oehnn`
(the package `__init__` re-exports do not count), `scripts/` or
`perfbench/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oehnn"
# the finite-difference test of the reference gradient in the dynamics
# tests takes it as its reference
EXEMPT = {"dynamics.hamiltonian_fn"}


def _sources() -> dict:
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _constants(node) -> set[str]:
    """The names a module-level statement assigns, dunder names aside."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    names = {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _module_of(node, aliases: dict) -> str | None:
    """The oehnn module `node` names: a local alias of it, or `oehnn.<module>`."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "oehnn" else None
    return None


def _used_names(path: Path, tree) -> set[str]:
    """Every `module.name` of the package that this file uses."""
    own = path.stem if path.parent == PACKAGE else None
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "oehnn":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(
                (a.asname, a.name.split(".")[1]) for a in node.names
                if a.asname and a.name.startswith("oehnn.")
            )
    used = set()
    stack = [(tree, frozenset())]  # (node, names of the definitions around it)
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node in tree.body:
            inside = inside | _constants(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oehnn."):
            used.update(f"{node.module.split('.')[1]}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute) and _module_of(node.value, aliases):
            used.add(f"{_module_of(node.value, aliases)}.{node.attr}")
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                used.add(f"{own}.{node.id}")
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return used


def test_every_exported_name_has_a_caller():
    sources = _sources()
    exported = [
        f"{path.stem}.{name}"
        for path, tree in sources.items()
        if path.parent == PACKAGE
        for name in _exports(tree)
    ]
    assert EXEMPT <= set(exported)
    used = set().union(*(_used_names(path, tree) for path, tree in sources.items()))
    unused = [name for name in exported if name not in used | EXEMPT]
    assert unused == [], f"exported but called only by tests: {unused}"


def test_every_module_level_definition_has_a_caller():
    """Private helpers too: a function or class that nothing but the tests
    uses is an orphan, whether or not its module exports it."""
    sources = _sources()
    defined = [
        f"{path.stem}.{node.name}"
        for path, tree in sources.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    used = set().union(*(_used_names(path, tree) for path, tree in sources.items()))
    unused = [name for name in defined if name not in used | EXEMPT]
    assert unused == [], f"defined but called only by tests: {unused}"


def test_every_module_level_constant_is_read():
    """A name assigned at module level that nothing reads outside its own
    assignment is an orphan too, such as a limit no code applies any more."""
    sources = _sources()
    assigned = [
        f"{path.stem}.{name}"
        for path, tree in sources.items()
        if path.parent == PACKAGE
        for node in tree.body
        for name in sorted(_constants(node))
    ]
    used = set().union(*(_used_names(path, tree) for path, tree in sources.items()))
    unread = [name for name in assigned if name not in used]
    assert unread == [], f"assigned but read only by tests: {unread}"


def test_only_textio_owns_the_text_formats():
    """The number format and the file parsers live in `textio` alone."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "textio.py":
            continue
        text = path.read_text(encoding="utf-8")
        if "17g" in text:
            found.append(f"{path.name} spells the number format")
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            found += [f"{path.name} imports {name}" for name in names
                      if name.split(".")[0] in ("csv", "configparser")]
    assert found == []
