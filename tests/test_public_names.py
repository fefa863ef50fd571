"""Every public name in `src/` has a caller outside the tests.

A name in a module's `__all__` must be re-exported by the package or used
by the code of another name in `src/nmshrink` or `demos/`, so that each job
has one path and no function survives only for its tests.  Uses are found in
the syntax tree, so a mention in a docstring or comment does not count.
"""

import ast
from pathlib import Path

import nmshrink

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "nmshrink").glob("*.py")
                 if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py"))


def module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def defined_names(node: ast.stmt) -> set[str]:
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [
        getattr(node, "target", None)
    ]
    return {n.id for t in targets if t is not None
            for n in ast.walk(t) if isinstance(n, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    """Names each top-level statement loads, as a bare name or an attribute,
    apart from the names the statement itself binds."""
    used = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        used |= names - defined_names(stmt)
    return used


def uncalled_public_names() -> list[str]:
    used = set()
    for path in CALLERS:
        used |= used_names(ast.parse(path.read_text(), str(path)))
    exported = set(nmshrink.__all__)
    return [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in module_all(ast.parse(path.read_text(), str(path)))
        if name not in exported and name not in used
    ]


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []


def test_only_another_name_s_code_is_a_use():
    # f mentions g in its docstring and calls h; h calls only itself.
    source = 'def f():\n    """Calls g."""\n    return h()\n\n\ndef h():\n    return h()\n'
    assert used_names(ast.parse(source)) == {"h"}
    source = 'def h():\n    return h()\n'
    assert used_names(ast.parse(source)) == set()
