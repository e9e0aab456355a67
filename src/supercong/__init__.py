"""Exact-arithmetic verification of truncated hypergeometric supercongruences."""

import os

# numpy is called on integers only (convolve, where, frombuffer, an int64 dot) and
# none of that uses BLAS, so OpenBLAS need not start its thread pool when numpy
# loads: the pool costs import time, and its threads spin on the CPU right after.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    TooLarge,
    pochhammer,
    pochhammer_pair,
    reduce_mod,
    vp,
)
from .eta import TABLE_MAX_BOUND, a_p, f_coefficients
from .hypergeom import (
    IdentityOutcome,
    PoleParameter,
    SeriesFamily,
    SeriesSpec,
    ZeroDenominatorPochhammer,
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    half_harmonic2,
    half_harmonic2_spec,
    kilbourn_lhs,
    kilbourn_spec,
    pfq_pair,
    pfq_residues,
    pfq_truncated,
    thm1_rhs,
    thm1_spec,
    vanhamme_lhs,
    vanhamme_spec,
    whipple_c1_check,
)
from .padic_gamma import gamma_p
from .variety import brute_force_N, count_N
from .verifier import (
    CheckId,
    CheckOutcome,
    ConfigError,
    Report,
    TOOL_VERSION as __version__,
    emit_report,
    parse_report,
    primes_between,
    run_suite,
)
