"""Public and pinned names resolve against the current source.

Each kiloland module's `__all__` names only what the module defines, and
every function the benchmark's tracer wraps (`benchmarks/tracing.py`:
`TRACED` and `WORKER_ENTRY`) exists where the tracer looks for it. The
benchmark tests are outside this suite, so without this a rename would
break the traced benchmark run unseen.
"""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import kiloland

MODULES = sorted(f"kiloland.{m.name}" for m in pkgutil.iter_modules(kiloland.__path__))
# runpy compiles the file without importing it as a module or caching bytecode.
TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"))
PINNED = [(module, attr) for module, attr, *_ in TRACING["TRACED"]] + [TRACING["WORKER_ENTRY"]]


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
