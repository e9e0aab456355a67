"""Exact-arithmetic verification of truncated hypergeometric supercongruences."""

from .exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    Rational,
    ResidueInt,
    congruent,
    half_harmonic2,
    pochhammer,
    reduce_mod,
    vp,
)
from .eta import DEFAULT_LIMIT, IntSeries, OutOfRange, a_p, eta_factor_series, f_coefficients
from .hypergeom import (
    FloatOutcome,
    IdentityOutcome,
    PoleParameter,
    SeriesSpec,
    ZeroDenominatorPochhammer,
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    kilbourn_lhs,
    pfq_truncated,
    pfq_truncated_reference,
    ramanujan_float_check,
    thm1_rhs,
    vanhamme_lhs,
    whipple_c1_check,
)
from .padic_gamma import gamma_p, gamma_p_int, sp
from .variety import (
    TooLarge,
    brute_force_N,
    check_trace_relation,
    count_N,
    fiber_counts,
    legendre,
)
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
