"""Command-line front end: prime sweeps, eta coefficients, point counts, Gamma_p, identities.

Exit codes: 0 all requested checks passed (or informational command), 1 at
least one check failed (a check that raised counts as failed), 2 usage or
configuration error.
"""

from __future__ import annotations

from .eta import f_coefficients
from .exact import NegativeValuation, fraction_str
from .hypergeom import (
    SeriesSpec,
    ZeroDenominatorPochhammer,
    bailey_b1_check,
    c3_check,
    pfq_truncated,
    whipple_c1_check,
)
from .padic_gamma import gamma_p
from .variety import BRUTE_FORCE_MAX, brute_force_N, count_N
from .verifier import DEFAULT_CHECKS, CheckId, ConfigError, emit_report, run_suite

# the standard modules after the package's: the process peaks lower
import argparse
import gc
import json
# argparse's gettext imports locale on first use; import it here, with the rest of set-up
import locale  # noqa: F401
import os
import re
import sys
from fractions import Fraction


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part.strip()]


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each value such as -1/3, which argparse takes for an option as it is neither
    an int nor a decimal, joined to the option before it: --z -1/3 as --z=-1/3."""
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and re.match(r"-[\d.]", token):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def _check_set(text: str) -> set[CheckId]:
    out = set()
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            out.add(CheckId(name))
        except ValueError:
            valid = ",".join(c.value for c in CheckId)
            raise argparse.ArgumentTypeError(f"unknown check {name!r}; valid: {valid}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Exact verification of truncated hypergeometric supercongruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="sweep congruence checks over a prime range")
    verify.add_argument("--checks", type=_check_set, default=DEFAULT_CHECKS)
    verify.add_argument("--pmin", type=int, default=3)
    verify.add_argument("--pmax", type=int, default=100)
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    verify.add_argument("--no-timing", action="store_true",
                        help="omit elapsed_ms for byte-reproducible output")

    eta = sub.add_parser("eta", help="emit n, a(n) pairs of the eta-product expansion")
    eta.add_argument("--limit", type=int, required=True)
    eta.add_argument("--out", choices=("csv", "json"), default="csv", dest="fmt")

    count = sub.add_parser("count", help="point count N(p) of the threefold over F_p")
    count.add_argument("--p", type=int, required=True)
    count.add_argument("--brute", action="store_true", help="also run the brute-force oracle")

    gammap = sub.add_parser("gammap", help="Gamma_p(x) mod p^k")
    gammap.add_argument("--p", type=int, required=True)
    gammap.add_argument("--k", type=int, required=True)
    gammap.add_argument("--x", type=_fraction, required=True)

    identity = sub.add_parser("identity", help="check one hypergeometric identity instance")
    identity.add_argument("--which", choices=("b1", "c1", "c3"), required=True)
    identity.add_argument("--p", type=int)
    identity.add_argument("--n", type=int)
    identity.add_argument("--y", type=_fraction)

    hyper = sub.add_parser("hyper", help="exact truncated pFq over Q")
    hyper.add_argument("--top", type=_fraction_list, required=True)
    hyper.add_argument("--bottom", type=_fraction_list, required=True)
    hyper.add_argument("--z", type=_fraction, required=True)
    hyper.add_argument("--terms", type=int, required=True)

    return parser


def _cmd_verify(args) -> int:
    out = None
    if args.out:
        # opened before the sweep, so a path that cannot be written is a usage error up
        # front; in append mode an existing file keeps its bytes until the report is written
        created = not os.path.lexists(args.out)
        try:
            out = open(args.out, "ab")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc.strerror}") from None
    try:
        report = run_suite(args.pmin, args.pmax, args.checks, workers=args.workers)
        data = emit_report(report, fmt=args.format, include_timing=not args.no_timing)
    except BaseException:
        if out is not None:
            out.close()
            if created:
                os.remove(args.out)
        raise
    if out is None:
        sys.stdout.write(data.decode())
    else:
        with out:
            if out.seekable():  # a pipe or a terminal has nothing to truncate
                out.truncate(0)
            out.write(data)
    return 0 if report.summary["fail"] == 0 else 1


def _cmd_eta(args) -> int:
    coeffs = f_coefficients(args.limit)
    if args.fmt == "json":
        pairs = [[n, coeffs[n]] for n in range(1, args.limit + 1)]
        sys.stdout.write(json.dumps({"limit": args.limit, "a": pairs}) + "\n")
    else:
        sys.stdout.write("n,a_n\n")
        for n in range(1, args.limit + 1):
            sys.stdout.write(f"{n},{coeffs[n]}\n")
    return 0


def _cmd_count(args) -> int:
    if args.brute and args.p > BRUTE_FORCE_MAX:  # a usage error, before anything is printed
        raise ConfigError(f"--brute is capped at p <= {BRUTE_FORCE_MAX}, got {args.p}")
    n = count_N(args.p)
    sys.stdout.write(f"N({args.p}) = {n}\n")
    if args.brute:
        b = brute_force_N(args.p)
        sys.stdout.write(f"brute force: {b}\n")
        return 0 if b == n else 1
    return 0


def _cmd_gammap(args) -> int:
    try:
        value = gamma_p(args.x, args.p, args.k)
    except NegativeValuation:
        raise ConfigError(f"--x {args.x} is not {args.p}-integral") from None
    sys.stdout.write(f"Gamma_{args.p}({args.x}) = {value}\n")
    return 0


def _cmd_identity(args) -> int:
    if args.which == "c1":
        if args.n is None or args.y is None:
            raise ConfigError("identity c1 needs --n and --y")
        outcome = whipple_c1_check(args.n, args.y)
    else:
        if args.p is None:
            raise ConfigError(f"identity {args.which} needs --p")
        outcome = bailey_b1_check(args.p) if args.which == "b1" else c3_check(args.p)
    sys.stdout.write(f"lhs   = {fraction_str(outcome.lhs)}\n")
    sys.stdout.write(f"rhs   = {fraction_str(outcome.rhs)}\n")
    sys.stdout.write(f"equal = {outcome.equal}\n")
    return 0 if outcome.equal else 1


def _cmd_hyper(args) -> int:
    spec = SeriesSpec(tuple(args.top), tuple(args.bottom), args.z, args.terms)
    try:
        value = pfq_truncated(spec)
    except ZeroDenominatorPochhammer as exc:
        raise ConfigError(str(exc)) from None
    sys.stdout.write(f"{fraction_str(value)}\n")
    return 0


def main(argv=None) -> int:
    # set-up's objects live to the end: frozen, no collection rescans them
    # and a forked worker does not copy their headers
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    handlers = {
        "verify": _cmd_verify,
        "eta": _cmd_eta,
        "count": _cmd_count,
        "gammap": _cmd_gammap,
        "identity": _cmd_identity,
        "hyper": _cmd_hyper,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
