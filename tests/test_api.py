"""Public and pinned names resolve against the current source.

Each kiloland module's `__all__` names only what the module defines, every
function the benchmark's tracer wraps (`benchmarks/tracing.py`: `TRACED`
and `WORKER_ENTRY`) exists where the tracer looks for it, and every
`m.<name>` the benchmark scripts use, for a module `m` bound by
`from kiloland import m`, resolves. The benchmark tests are outside this
suite, so without this a rename would break the benchmark run unseen.
"""

import ast
import dataclasses
import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import kiloland

MODULES = sorted(f"kiloland.{m.name}" for m in pkgutil.iter_modules(kiloland.__path__))
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
# runpy compiles the file without importing it as a module or caching bytecode.
TRACING = runpy.run_path(str(BENCHMARKS / "tracing.py"))
PINNED = [(module, attr) for module, attr, *_ in TRACING["TRACED"]] + [TRACING["WORKER_ENTRY"]]


def _benchmark_uses() -> list:
    """Every (module, name) that a benchmark script reads as `m.<name>`,
    where `m` is bound by `from kiloland import m`."""
    uses = set()
    for path in BENCHMARKS.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "kiloland"
            for alias in node.names
        }
        uses.update(
            (bound[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound
        )
    return sorted(uses)


USED = _benchmark_uses()


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name, attr", PINNED, ids=[f"{m}:{a}" for m, a in PINNED])
def test_traced_names_resolve(module_name, attr):
    """The tracer replaces `owner.__dict__[name]`, so the function must be
    defined on the owner itself, not inherited."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner).get(name)
    assert callable(raw) or isinstance(raw, classmethod)


def test_simulation_writes_through_the_traced_rearrange_write():
    """The tracer rebinds a module-level function in every kiloland module
    that holds it, so the run's writes reach `decomp.rearrange_write` only
    through simulation's own binding of it."""
    from kiloland import decomp, simulation

    assert simulation.rearrange_write is decomp.rearrange_write


@pytest.mark.parametrize("module_name, attr", USED, ids=[f"{m}.{a}" for m, a in USED])
def test_benchmark_names_resolve(module_name, attr):
    assert hasattr(importlib.import_module(f"kiloland.{module_name}"), attr)


def test_case_parameters_are_a_dataclass():
    """`benchmarks/checks.py` (`reference_run`) reads a case's `params`
    through `dataclasses.asdict`."""
    from kiloland.simulation import CaseConfig

    assert dataclasses.asdict(CaseConfig().params)
