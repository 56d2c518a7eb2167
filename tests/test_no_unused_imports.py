"""Every name a `mice` module imports is used there or exported in `__all__`.

No linter runs on this tree, so an import left behind by a deleted caller
would otherwise stay. Names kept only for code outside the package are listed
in KEPT, each with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mice").glob("*.py"))

KEPT = {
    # bench/session.py and the tests import the checkpoint functions and
    # constants from mice.trainer, which re-exports them from mice.checkpoint.
    ("trainer.py", "CHECKPOINT_MAGIC"),
    ("trainer.py", "CHECKPOINT_VERSION"),
    ("trainer.py", "load_checkpoint"),
    ("trainer.py", "save_checkpoint"),
    # bench/tracer.py wraps model.logsumexp_rows by name.
    ("model.py", "logsumexp_rows"),
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level or local import binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used and (path.name, name) not in KEPT
    }
    assert not unused, f"{path.name} imports unused names (name: line) {unused}"


def test_kept_names_are_imported_and_unused():
    """Each KEPT entry still names an import its module does not use itself."""
    by_name = {path.name: path for path in SOURCES}
    for module, name in sorted(KEPT):
        tree = ast.parse(by_name[module].read_text(encoding="utf-8"))
        assert name in imported_names(tree), f"{module} no longer imports {name}"
        assert name not in used_names(tree), f"{module} uses {name}; drop it from KEPT"
