"""Test-session set-up, run before any test module imports numpy.

OpenBLAS is pinned to one thread, as `perfbench/run.py` pins it: the
thread count changes the last bits of trained weights, so with one thread
the models the tests train are the same bits on every machine, and the
small matrix products of training gain no wall time from more threads.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
