"""Exact-arithmetic verification of truncated hypergeometric supercongruences."""

from .exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    Rational,
    ResidueInt,
    TooLarge,
    congruent,
    half_harmonic2,
    pochhammer,
    pochhammer_mod,
    reduce_mod,
    vp,
)
from .eta import DEFAULT_LIMIT, TABLE_MAX_BOUND, OutOfRange, a_p, f_coefficients
from .hypergeom import (
    FloatOutcome,
    GuardExceeded,
    IdentityOutcome,
    PoleParameter,
    SeriesSpec,
    ZeroDenominatorPochhammer,
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    kilbourn_lhs,
    kilbourn_spec,
    pfq_residue,
    pfq_truncated,
    pfq_truncated_reference,
    ramanujan_float_check,
    thm1_rhs,
    thm1_spec,
    vanhamme_lhs,
    vanhamme_spec,
    whipple_c1_check,
)
from .padic_gamma import gamma_p, gamma_p_int, sp
from .variety import (
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
