"""Every public name in `src/` has a caller outside the tests.

A name in a module's or the package's `__all__`, and a public method or
property of a class in `src/`, must be used by the code of another name in
`src/nmshrink` or `demos/`, so that each job has one path and no function
survives only for its tests.  Uses are found in the syntax tree, so a
mention in a docstring or comment does not count.
"""

import ast
import functools
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


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


@functools.cache
def used_in_callers() -> frozenset[str]:
    return frozenset().union(*(used_names(parse(path)) for path in CALLERS))


def public_members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) for each public method or property of a top-level class."""
    return [
        (cls.name, node.name)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def test_every_public_name_has_a_caller():
    uncalled = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in module_all(parse(path))
        if name not in used_in_callers()
    ]
    assert uncalled == []


def test_every_export_has_a_caller():
    assert [name for name in nmshrink.__all__ if name not in used_in_callers()] == []


def test_every_public_member_has_a_caller():
    uncalled = [
        f"{path.stem}.{cls}.{member}"
        for path in MODULES
        for cls, member in public_members(parse(path))
        if member not in used_in_callers()
    ]
    assert uncalled == []


def test_only_another_name_s_code_is_a_use():
    # f mentions g in its docstring and calls h; h calls only itself.
    source = 'def f():\n    """Calls g."""\n    return h()\n\n\ndef h():\n    return h()\n'
    assert used_names(ast.parse(source)) == {"h"}
    source = 'def h():\n    return h()\n'
    assert used_names(ast.parse(source)) == set()
