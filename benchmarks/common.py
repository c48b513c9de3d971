"""Paths shared by the benchmark's modules, and the import of the checkout's
own kiloland sources."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RECORD_DIR = ROOT / ".benchmarks" / "kiloland"


class MissingSources(RuntimeError):
    """The checkout holds no kiloland sources to benchmark."""


def use_checkout_kiloland():
    """Import kiloland from `<checkout>/src`, never from anywhere else."""
    init = SRC / "kiloland" / "__init__.py"
    if not init.is_file():
        raise MissingSources(f"no kiloland sources at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    kiloland = importlib.import_module("kiloland")
    if Path(kiloland.__file__).resolve() != init.resolve():
        raise MissingSources(f"kiloland was imported from {kiloland.__file__}, not {init}")
    return kiloland

