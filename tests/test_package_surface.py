"""The package's surface: what ``src/repro`` imports, and who imports it.

Both checks read the source with :mod:`ast`, so imports inside functions
count as much as module-level ones.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Third-party packages the package may import: ``pyproject.toml``'s
#: dependencies.  CI installs nothing else for tier-1.
DEPENDENCIES = {"numpy"}

#: Modules that nothing imports by design: the console script's module.
ENTRY_POINTS = {"repro.experiments.cli"}


def _modules() -> dict[str, Path]:
    """Dotted module name -> source file, for every module of the package."""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str, path: Path) -> set[str]:
    """Absolute names of every module *name* imports, each with its
    parent packages (importing ``a.b.c`` imports ``a`` and ``a.b``)."""
    is_package = path.name == "__init__.py"
    package = name if is_package else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                target = ".".join(base)
            else:
                target = node.module
            found.add(target)
            # ``from pkg import mod`` imports the submodule ``pkg.mod``.
            found.update(f"{target}.{alias.name}" for alias in node.names)
    closed = set()
    for target in found:
        parts = target.split(".")
        closed.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return closed


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | DEPENDENCIES | {"repro",
                                                           "__future__"}
    foreign = {
        f"{name}: {target}"
        for name, path in _modules().items()
        for target in _imports(name, path)
        if "." not in target and target not in allowed
    }
    assert not foreign, (
        "modules import packages outside the standard library and "
        f"pyproject.toml's dependencies: {sorted(foreign)}")


def test_every_module_has_an_importer():
    modules = _modules()
    imported = set()
    for name, path in modules.items():
        imported |= _imports(name, path) - {name}
    orphans = set(modules) - imported - ENTRY_POINTS - {"repro"}
    assert not orphans, (
        f"no module of the package imports {sorted(orphans)}; delete "
        "them or give them a caller")
