"""The relkit names that the benchmark in ``perfbench/`` uses still exist.

``perfbench/make_reference.py`` imports relkit directly, and
``perfbench/tracing.py`` wraps relkit's functions by their module paths. A
rename in ``src`` would break the benchmark silently, so these tests read
both files (without importing or changing them) and resolve every name.
"""

import ast
import importlib
import inspect
import pickle
from pathlib import Path

import pytest

import relkit.inference as inference
import relkit.simulate as simulate
from relkit.inference import FAMILIES, BinomialDraw, NormalDraw

from conftest import shipped_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _constant(name: str, assigned: str):
    """The literal value assigned to ``assigned`` at the top of a file."""
    for node in _tree(name).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == assigned for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{assigned} not found in perfbench/{name}")


def _traced_function(path: str):
    """The function that tracing.py wraps for "layer.name": a public function
    defined in relkit.<layer> itself, since only those are wrapped."""
    layer, name = path.split(".", 1)
    module = importlib.import_module(f"relkit.{layer}")
    obj = getattr(module, name, None)
    assert inspect.isfunction(obj), f"relkit.{path} is not a function"
    assert obj.__module__ == module.__name__, f"relkit.{path} is defined elsewhere"
    assert not name.startswith("_")
    return obj


def _relkit_imports(name: str) -> list[tuple[str, str | None]]:
    """(module, name) of each ``from relkit... import name`` in a file, and
    (module, None) of each ``import relkit...``."""
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relkit":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((a.name, None) for a in node.names if a.name.split(".")[0] == "relkit")
    return found


@pytest.mark.parametrize("name", ["make_reference.py", "tracing.py"])
def test_every_imported_relkit_name_resolves(name):
    for module_name, attr in _relkit_imports(name):
        module = importlib.import_module(module_name)
        if attr is not None and not hasattr(module, attr):
            importlib.import_module(f"{module_name}.{attr}")  # a submodule
    if name == "make_reference.py":
        assert ("relkit.simulate", "_compile_procedure") in _relkit_imports(name)


def test_traced_layers_and_verdict_calls_resolve():
    for layer in _constant("tracing.py", "LAYERS"):
        importlib.import_module(f"relkit.{layer}")
    verdict_calls = _constant("tracing.py", "VERDICT_CALLS")
    assert set(verdict_calls.values()) == set(simulate.PROCEDURES)
    for path in verdict_calls:
        _traced_function(path)


def test_posterior_methods_resolve():
    for method, path in _constant("tracing.py", "POSTERIOR_METHODS").items():
        layer, name = path.split(".", 1)
        assert layer == "inference" and name == method
        assert inspect.isfunction(getattr(inference.PosteriorModel, method))


def test_bind_steps_call_the_update_through_the_module_global(monkeypatch):
    """The tracer times a verdict as the posterior update plus the verdict
    call, and finds the update by patching ``simulate.posterior_update``;
    so each posterior procedure must look the update up there when it
    runs, not hold a reference bound earlier."""
    update = _traced_function("inference.posterior_update")
    assert simulate.posterior_update is update
    scenario = shipped_scenario("coin_scenario")
    calls = []

    def counting(model, space):
        calls.append(model)
        return update(model, space)

    for name in ("rope", "hypothesis_ratio", "expected_loss"):
        run = simulate._compile_procedure(scenario, simulate.ProcedureSpec(name, {}))
        monkeypatch.setattr(simulate, "posterior_update", counting)
        assert isinstance(run(BinomialDraw(n=20, k=14)), str)
        monkeypatch.setattr(simulate, "posterior_update", update)
        assert len(calls) == 1, name
        calls.clear()


def test_compiled_procedures_take_the_draws():
    """make_reference.py runs ``_compile_procedure(scenario, proc)(draw)``
    on draws it builds itself."""
    for name, draw in (
        ("coin_scenario", BinomialDraw(n=100, k=63)),
        ("aspirin_scenario", NormalDraw(n=22000, ybar=0.0077, sigma=0.2)),
    ):
        scenario = shipped_scenario(name)
        for proc in scenario.procedures:
            assert isinstance(simulate._compile_procedure(scenario, proc)(draw), str)
    assert simulate.BinomialDraw is BinomialDraw and simulate.NormalDraw is NormalDraw


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_rows_hold_module_level_functions(family):
    """Row entries are module-level functions, so that a row, and a
    posterior that keeps its row, pickles."""
    row = FAMILIES[family]
    for field, value in row._asdict().items():
        if inspect.isfunction(value):
            assert value.__qualname__ == value.__name__, (field, value.__qualname__)
            assert getattr(inference, value.__name__) is value
    assert pickle.loads(pickle.dumps(row)) == row
