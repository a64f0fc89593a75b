"""Every module of ``src/relkit`` uses each name it imports.

The modules are parsed with ``ast``, not imported: an import is used when
its bound name appears as a name anywhere in the module, annotations
included. ``__init__.py`` is left out, since it imports names to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relkit"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never uses, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import math\nfrom .values import number, integer\n\nx = math.pi + number(1)\n"
    assert _unused_imports(source) == ["integer (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
