"""Test-session set-up, run before any test module imports numpy.

OpenBLAS is pinned to one thread, as `perfbench/run.py` pins it: the
thread count changes the last bits of trained weights, so with one thread
the models the tests train are the same bits on every machine, and the
small matrix products of training gain no wall time from more threads.

Every Hypothesis property runs under one profile: derandomized, so each
run tries the same examples, with no example database, so no run reads or
writes a local `.hypothesis/` store, and with no deadline. Each test keeps
its own `max_examples`.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("cardlab", derandomize=True, database=None, deadline=None)
settings.load_profile("cardlab")
