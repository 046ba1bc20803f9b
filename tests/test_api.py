"""Reachability guard: no public name in ``src/weakmeas`` that nothing uses.

Walks the syntax trees of the package modules. Every public top-level
function, class or ALL_CAPS constant must be referenced from another
top-level definition or statement of the package (``__init__.py``, which only re-exports, does not
count), or be listed in ``KEPT_FOR_ACCEPTANCE`` with the acceptance test that
keeps it; that test must exist in ``tests/test_acceptance.py`` and use the
name. A reference is a bare name used in the defining module or imported
from it, or an attribute of a module alias (``proto.conditional_meter_state``
in ``cli``). Import statements alone are not references.
"""

import ast
from pathlib import Path

import weakmeas

PACKAGE = Path(weakmeas.__file__).parent

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# (module, name) -> the test function of tests/test_acceptance.py that uses it
KEPT_FOR_ACCEPTANCE = {
    ("collective", "collective_conditional_density"): "test_criterion_08_collective_asymptotics",
    ("lindblad", "gauss_legendre"): "test_criterion_09_lindblad_decomposition",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            continue
        defs.update((name, node) for name in names if not name.startswith("_"))
    return defs


def _references(module: str, tree: ast.Module) -> dict[tuple[str, str], set[int]]:
    """(defining module, name) -> ids of the top-level statements using it.

    Package modules import each other relatively; a test module imports
    ``weakmeas.<module>``, which counts the same, at top level or inside a
    function."""
    imported: dict[str, tuple[str, str]] = {}
    module_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module and node.module.removeprefix("weakmeas.")
        if node.level == 1 or source != node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    module_aliases[local] = alias.name
                else:
                    imported[local] = (source, alias.name)
    refs: dict[tuple[str, str], set[int]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(stmt):
            key = None
            if isinstance(node, ast.Name):
                key = imported.get(node.id, (module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in module_aliases:
                    key = (module_aliases[node.value.id], node.attr)
            if key is not None:
                refs.setdefault(key, set()).add(id(stmt))
    return refs


def unreferenced_public_names() -> set[tuple[str, str]]:
    modules = _modules()
    used: dict[tuple[str, str], set[int]] = {}
    for module, tree in modules.items():
        for key, stmts in _references(module, tree).items():
            used.setdefault(key, set()).update(stmts)
    missing = set()
    for module, tree in modules.items():
        for name, node in _public_definitions(tree).items():
            if used.get((module, name), set()) - {id(node)}:
                continue
            missing.add((module, name))
    return missing


def test_every_public_name_is_reached():
    missing = unreferenced_public_names() - KEPT_FOR_ACCEPTANCE.keys()
    assert not missing, f"public names no other package code uses: {sorted(missing)}"


def test_kept_names_exist_and_are_otherwise_unreached():
    modules = _modules()
    for module, name in KEPT_FOR_ACCEPTANCE:
        assert name in _public_definitions(modules[module]), (module, name)
    # a kept name that gains a caller no longer needs its entry
    assert KEPT_FOR_ACCEPTANCE.keys() <= unreferenced_public_names()


def test_kept_names_are_used_by_their_acceptance_test():
    tree = ast.parse(ACCEPTANCE.read_text(), filename=str(ACCEPTANCE))
    tests = {node.name: id(node) for node in tree.body if isinstance(node, ast.FunctionDef)}
    refs = _references(ACCEPTANCE.stem, tree)
    for key, test in KEPT_FOR_ACCEPTANCE.items():
        assert test in tests, f"{test} is not a test function of {ACCEPTANCE.name}"
        assert tests[test] in refs.get(key, ()), f"{test} does not use {'.'.join(key)}"
