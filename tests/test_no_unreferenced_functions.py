"""Every function, class and method a `mice` module defines has a caller.

A definition counts as used when its name is referenced in `src/mice` or in
`bench/` outside the definition itself, or when its module lists it in
`__all__`. A reference is a name, an attribute, an imported name, or a string
constant (`bench/tracer.py` wraps functions and methods by their names as
strings). Tests do not count: code that only a test calls has no caller left.
Dunder methods are called by Python itself and are exempt. Definitions kept
without a caller are listed in KEPT, each with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mice").glob("*.py"))
REFERRERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

KEPT = {
    # The c07b acceptance test runs classical EM on the exact ELBO through it; it
    # is the library form of that claim, not a helper of the training loop.
    ("trainer.py", "classical_em_run"),
}


def definitions(tree: ast.Module):
    """(name, node) of each module-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def references(tree: ast.Module):
    """(name, line) of each name, attribute, imported name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


TREES = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in REFERRERS}
REFERENCES = {path: list(references(tree)) for path, tree in TREES.items()}


def is_referenced(path: Path, name: str, node: ast.AST) -> bool:
    """Whether `name` is referenced anywhere but inside `node`, its definition in `path`."""
    for other, refs in REFERENCES.items():
        for ref, line in refs:
            if ref == name and not (other == path and node.lineno <= line <= node.end_lineno):
                return True
    return False


def unreferenced(path: Path) -> list[str]:
    tree = TREES[path]
    public = exported(tree)
    return [
        name
        for name, node in definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in public
        and not is_referenced(path, name, node)
    ]


def test_sources_found():
    assert SOURCES and len(REFERRERS) > len(SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path):
    names = [name for name in unreferenced(path) if (path.name, name) not in KEPT]
    assert not names, f"{path.name} defines names nothing in src/mice or bench/ uses: {names}"


def test_kept_names_are_defined_and_unreferenced():
    """Each KEPT entry still names a definition that nothing references."""
    by_name = {path.name: path for path in SOURCES}
    for module, name in sorted(KEPT):
        path = by_name[module]
        assert name in dict(definitions(TREES[path])), f"{module} no longer defines {name}"
        assert name in unreferenced(path), f"{module}.{name} has a caller; drop it from KEPT"
