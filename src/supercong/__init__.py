"""Exact-arithmetic verification of truncated hypergeometric supercongruences."""

import os

# numpy is called on integers only (convolve, where, frombuffer, an int64 dot) and
# none of that uses BLAS, so OpenBLAS need not start its thread pool when numpy
# loads: the pool costs import time, and its threads spin on the CPU right after.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
