"""Every module of ``src/relkit`` uses each name it imports, and the
package and the test oracles keep apart.

The modules are parsed with ``ast``, not imported: an import is used when
its bound name appears as a name anywhere in the module, annotations
included. ``__init__.py`` is left out, since it imports names to export them.
The test-only tools stay out of the package, and ``tests/oracles.py`` takes
no relkit code that the deletions on the roadmap remove, so that no oracle
goes with them. The package's own names, which it imports on first use,
resolve to what their modules define. Every single-underscore name that a
module or one of its classes defines is used somewhere in the package, so
that a helper left behind by a deletion is found.
"""

import ast
import importlib
from pathlib import Path

import pytest

import relkit

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relkit"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ORACLES = Path(__file__).resolve().parent / "oracles.py"
TEST_TOOLS = {"scipy", "mpmath", "hypothesis"}
# the adaptive quadrature and its split points (ROADMAP item 2) and the six
# public procedure functions (item 9)
DELETED_LATER = {
    "quadrature",
    "QuadratureResult",
    "concentration_splits",
    "nhst_point_null",
    "tost_equivalence",
    "rope_decision",
    "interval_bayes_factor",
    "bayes_two_action_decision",
    "expected_loss_decision",
}
# the benchmark's reference builder, whose private relkit imports cannot
# leave src before a benchmark change (item 20)
MAKE_REFERENCE = PACKAGE.parent.parent / "perfbench" / "make_reference.py"


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


def _imports(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(module, name) of each ``from module import name``, and (module,
    None) of each ``import module``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.module or "", alias.name) for alias in node.names)
    return found


def test_the_package_imports_no_test_tool():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tools = {module for module, _ in _imports(tree) if module.split(".")[0] in TEST_TOOLS}
        assert not tools, (path.name, tools)


def _private(imports) -> set[tuple[str, str]]:
    return {(module, name) for module, name in imports if name and name.startswith("_")}


def _oracle_leaks(source: str, allowed: set) -> list[str]:
    """What an oracle module takes from relkit that it must not: a name the
    roadmap deletes, a private name not in ``allowed``, a whole relkit
    module, whose private names it could reach, or any private attribute."""
    tree = ast.parse(source)
    leaks = []
    for module, name in _imports(tree):
        if module.split(".")[0] != "relkit":
            continue
        if name is None or name in DELETED_LATER:
            leaks.append(f"{module}.{name}" if name else module)
        elif name.startswith("_") and (module, name) not in allowed:
            leaks.append(f"{module}.{name}")
    leaks += [
        f".{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]
    return leaks


def test_the_leak_check_finds_each_kind_of_leak():
    source = (
        "import relkit.simulate as sim\n"
        "from relkit.inference import quadrature, posterior_update, _region_prob\n"
        "from relkit.simulate import _bind_sweep\n"
        "x = posterior_update._cache\n"
    )
    assert _oracle_leaks(source, {("relkit.simulate", "_bind_sweep")}) == [
        "relkit.simulate",
        "relkit.inference.quadrature",
        "relkit.inference._region_prob",
        "._cache",
    ]


def test_the_oracles_take_no_code_the_roadmap_deletes():
    """The oracles share a private relkit name only with the benchmark's
    reference builder, which keeps it in src; once the builder drops it, the
    oracles must hold their own copy."""
    allowed = _private(_imports(ast.parse(MAKE_REFERENCE.read_text(encoding="utf-8"))))
    assert _oracle_leaks(ORACLES.read_text(encoding="utf-8"), allowed) == []


def test_each_public_name_resolves_to_what_its_module_defines():
    names = [name for name in relkit.__all__ if name != "__version__"]
    bound = {}
    exec("from relkit import *", bound)
    for name in names:
        obj = getattr(relkit, name)
        module = importlib.import_module(f"relkit.{relkit._MODULE_OF[name]}")
        assert obj is getattr(module, name) and obj.__module__ == module.__name__, name
        assert bound[name] is obj, name
    assert bound["__version__"] == relkit.__version__
    assert set(relkit.__all__) <= set(dir(relkit))


def test_an_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        relkit.no_such_name


# the benchmark's reference builder imports it until ROADMAP step 1a, part
# one, gives perfbench/ its own copy
UNUSED_PRIVATE_ALLOWED = {"simulate._compile_procedure"}


def _private_definitions(body: list[ast.stmt]) -> set[str]:
    """The single-underscore names a module binds at its top level, and
    those its classes bind in their bodies, such as private methods."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names |= _private_definitions(node.body)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _uses(tree: ast.Module) -> set[str]:
    """The names a module reads, the attributes it reaches and the names it
    imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _leftover_names(sources: dict[str, str]) -> list[str]:
    """module.name of each private name of ``_private_definitions`` that no
    module, its own included, uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(_uses, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree.body) - used
    )


def test_the_leftover_check_finds_an_unused_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SPARE = 4\n\ndef f():\n    return _LIMIT\n",
        "b": (
            "from .a import f\n\nclass _Row:\n    def _native(self):\n        pass\n\n"
            "    def _tails(self):\n        pass\n\n_row = _Row()\nprint(_row._tails())\n"
        ),
    }
    assert _leftover_names(sources) == ["a._SPARE", "b._native"]


def test_every_private_name_is_used_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert set(_leftover_names(sources)) <= UNUSED_PRIVATE_ALLOWED
