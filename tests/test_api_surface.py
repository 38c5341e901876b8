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

import pytest

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


# each rule's text and the one module-level function of the package that
# may spell it
RULE_OWNERS = {
    "np.spacing": "data._step_rounding",  # how far rounding times moves a step
    "1e-300": "train._norm_pullback",  # the cotangent of a residual norm
    "x_true is None": "data._check_truth",  # the stored-truth check
    "dx_true is None": "data._check_truth",
    "np.matmul(xa, net.w_in": "netmodel._hidden",  # the energy net's first layer
}


@pytest.mark.parametrize("text", list(RULE_OWNERS))
def test_one_owner_per_rule(text):
    """Each rule is spelled once, in its owner, and every other module calls
    the owner instead of a copy."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        spans = [(node.lineno, node.end_lineno, node.name)
                 for node in ast.parse(source).body if hasattr(node, "name")]
        for number, line in enumerate(source.splitlines(), 1):
            if text in line:
                owner = next((name for lo, hi, name in spans if lo <= number <= hi), "<module>")
                found.add(f"{path.stem}.{owner}")
    assert found == {RULE_OWNERS[text]}


def _calls(path: Path, tree):
    """(module.name, positional count, keyword names) of each call in this
    file of a function of the package, direct or through `functools.partial`
    (whose later arguments count as the call's). A call that unpacks `*` or
    `**` arguments is left out: which parameters it passes is not written in
    it."""
    own = path.stem if path.parent == PACKAGE else None
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "oehnn":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oehnn."):
            module = node.module.split(".")[1]
            names.update((a.asname or a.name, f"{module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                (a.asname, a.name.split(".")[1]) for a in node.names
                if a.asname and a.name.startswith("oehnn.")
            )

    def callee(func):
        if isinstance(func, ast.Name):
            return names.get(func.id, f"{own}.{func.id}" if own else None)
        if isinstance(func, ast.Attribute) and _module_of(func.value, modules):
            return f"{_module_of(func.value, modules)}.{func.attr}"
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if (isinstance(func, ast.Name) and func.id == "partial") or (
            isinstance(func, ast.Attribute) and func.attr == "partial"
        ):
            if not args:
                continue
            func, args = args[0], args[1:]
        if any(isinstance(a, ast.Starred) for a in args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        name = callee(func)
        if name:
            yield name, len(args), {k.arg for k in node.keywords}


def test_every_private_default_is_passed_and_omitted():
    """A defaulted parameter of a module-level private function is an
    option: at least one call in `src/oehnn`, `scripts/` or `perfbench/`
    passes it and at least one omits it, or it has one value in use and
    should be a constant or a required parameter."""
    sources = _sources()
    calls = [call for path, tree in sources.items() for call in _calls(path, tree)]
    flagged = []
    for path, tree in sources.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            name = f"{path.stem}.{node.name}"
            own = [(n_args, keywords) for callee, n_args, keywords in calls if callee == name]
            for index, param in defaulted:
                passed = [
                    (index is not None and n_args > index) or param in keywords
                    for n_args, keywords in own
                ]
                if not (any(passed) and not all(passed)):
                    flagged.append(f"{name}({param})")
    assert flagged == [], f"defaulted but passed by every call or by none: {flagged}"
