"""boxlab's public surface, pinned: every name the package exports and every
public top-level function, class and alias of its public modules, each with
its signature, against the committed list tests/data/public_surface.txt.
A change that adds, removes or re-signatures a public name edits that list.
"""

import ast
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import boxlab

SRC = Path(boxlab.__file__).resolve().parent
SURFACE = Path(__file__).resolve().parent / "data" / "public_surface.txt"


def entry(name: str, obj) -> str:
    """One line of the list: the qualified name and its signature."""
    if inspect.ismodule(obj):
        return f"{name} module"
    try:
        return f"{name}{inspect.signature(obj)}"
    except ValueError:  # a class that keeps a builtin's constructor, such as an exception
        return f"{name} (no signature)"


def top_level_names(path: Path):
    """The names a module binds at its top level by def, class or assignment;
    not those it imports."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def surface() -> set[str]:
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported |= boxlab._QSTATE_NAMES | boxlab._LAZY_MODULES
    lines = {entry(f"boxlab.{name}", getattr(boxlab, name)) for name in exported}
    for info in pkgutil.iter_modules(boxlab.__path__):
        if info.name.startswith("_"):
            continue
        module = getattr(boxlab, info.name)
        for name in top_level_names(SRC / f"{info.name}.py"):
            obj = getattr(module, name)
            if not name.startswith("_") and callable(obj):
                lines.add(entry(f"boxlab.{info.name}.{name}", obj))
    return lines


def by_name(lines) -> dict[str, str]:
    return {re.match(r"[\w.]+", line).group(): line for line in lines}


def test_public_surface_matches_the_committed_list():
    got, want = by_name(surface()), by_name(SURFACE.read_text().splitlines())
    report = ([f"added: {got[n]}" for n in sorted(got.keys() - want.keys())]
              + [f"removed: {want[n]}" for n in sorted(want.keys() - got.keys())]
              + [f"re-signatured: {want[n]} -> {got[n]}"
                 for n in sorted(got.keys() & want.keys()) if got[n] != want[n]])
    if report:
        pytest.fail(f"boxlab's public surface differs from {SURFACE.name}:\n"
                    + "\n".join(report), pytrace=False)
