"""Source hygiene of the package, read from its syntax trees alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "udbound"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import, in order; ``from __future__`` binds nothing."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
    return out


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _used(tree: ast.Module) -> set[str]:
    """Every name read in the module, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = _used(tree) | set(_exported(tree))
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_package_exports_exactly_what_it_imports():
    tree = _tree(PACKAGE / "__init__.py")
    imported = [name for name, _ in _imports(tree)]
    exported = _exported(tree)
    assert len(set(imported)) == len(imported), "a name is imported twice"
    assert len(set(exported)) == len(exported), "a name is listed twice in __all__"
    imported_only, exported_only = sorted(set(imported) - set(exported)), sorted(set(exported) - set(imported))
    assert not imported_only and not exported_only, f"imported only: {imported_only}; in __all__ only: {exported_only}"


_RANDOM = ("random", "numpy.random", "np.random")


def _random_sources(tree: ast.Module) -> list[str]:
    """Every import of ``random`` or ``numpy.random``, and every read of ``np.random``/``numpy.random``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        hits = [name for name in names if any(name == r or name.startswith(r + ".") for r in _RANDOM)]
        found += [f"{name} (line {node.lineno})" for name in hits]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_draws_random_numbers(path):
    """Byte-identical reports rely on the package drawing no random numbers."""
    found = _random_sources(_tree(path))
    assert not found, f"{path.name} reaches for random numbers: {', '.join(found)}"
