"""The benchmark under `perfbench/` imports names from the package. A
refactor that drops or renames one of them fails here, not only when the
benchmark runs."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "workloads", "checks", "spans", "record"):
        monkeypatch.delitem(sys.modules, name, raising=False)
        importlib.import_module(name)
