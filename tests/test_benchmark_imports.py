"""The benchmark under `perfbench/` imports names from the package. A
refactor that drops or renames one of them fails here, not only when the
benchmark runs. The test session also runs OpenBLAS on one thread, as the
benchmark does, and every Hypothesis property under one reproducible
profile."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "workloads", "checks", "spans", "record"):
        monkeypatch.delitem(sys.modules, name, raising=False)
        importlib.import_module(name)


def test_blas_pinned_to_one_thread(monkeypatch):
    # `conftest.py` pins OpenBLAS before numpy loads; the loaded library
    # reports the thread count it started with.
    import numpy  # noqa: F401  (loads OpenBLAS if it is not loaded yet)

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "run", raising=False)
    threads = importlib.import_module("run").blas_threads()
    if threads is None:
        pytest.skip("numpy did not load OpenBLAS")
    assert threads == 1


def test_hypothesis_profile_reproducible():
    # `conftest.py` loads a profile that tries the same examples on every
    # run and keeps no example database.
    from hypothesis import settings

    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.deadline is None
