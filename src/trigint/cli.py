"""Command-line front end.

Subcommands:

* ``eval``       exact/latex/float/json value of a complete integral
* ``halfline``   closed form and value of a half-line integral
* ``table``      regenerate classical integral-table entries over a range
* ``identities`` run the exact identity checkers
* ``verify``     exact-vs-oracle verification sweeps

Exit status: 0 on success / all checks passing, 1 when a verification
reported failures, 2 on usage errors.  Output is deterministic: identical
argument vectors produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp

from . import closedform, halfline, recurrence
from .quadrature import OscillatorySpec, integrate_finite, integrate_halfline_osc
from .report import VerificationReport

_GR_ENTRIES = (
    "3.621.3",
    "3.621.4",
    "3.761.11",
    "3.821.3",
    "3.822.1",
    "3.822.2",
    "3.821.14",
    "3.764.1",
    "3.764.2",
)


def _default_digits() -> int:
    raw = os.environ.get("TRIG_ENGINE_DIGITS", "20")
    try:
        digits = int(raw)
    except ValueError as exc:
        raise SystemExit(f"TRIG_ENGINE_DIGITS must be an integer, got {raw!r}") from exc
    return max(digits, 10)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from exc
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError("range upper end below lower end")
    return lo_i, hi_i


def _nstr(value, digits: int) -> str:
    return mp.nstr(value, digits, strip_zeros=False)


@contextmanager
def _int_str_unlimited():
    """Lift CPython's int-to-str digit limit: exact coefficients can exceed it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

def _moment_integrand(family: str, n: int, p: int):
    import numpy as np

    trig = np.cos if family == "cos" else np.sin
    return lambda x: x**p * trig(x) ** n


def verify_sweep(
    family: str,
    max_n: int = 8,
    max_p: int = 8,
    tol: float = 1e-10,
    b_values: tuple[float, ...] = (0.0, 0.5),
) -> VerificationReport:
    """Grid verification of exact values against independent routes.

    family='complete': branch expansions vs the recurrence evaluator
    (exact), then both trig families against adaptive quadrature.
    family='halfline': closed forms against the oscillatory oracle on an
    (n, p, b) grid.  family='examples': the cross-checks tying the
    log-weighted, double-integral, multidimensional and Fresnel values
    together.  Case order is deterministic.
    """
    report = VerificationReport()
    if family == "complete":
        for n in range(max_n + 1):
            for p in range(max_p + 1):
                exact = recurrence.cos_moment(n, p)
                if n % 2 == 0:
                    branch = closedform.even_branch(n // 2, p)
                else:
                    branch = closedform.odd_branch((n - 1) // 2, p)
                report.add_exact(
                    f"branch-vs-recurrence c({n},{p})",
                    branch.assembled == exact,
                    exact=str(exact),
                )
        oracle_tol = max(tol / 10, 1e-13)
        for fam, moment in (("cos", recurrence.cos_moment), ("sin", recurrence.sin_moment)):
            for n in range(max_n + 1):
                for p in range(max_p + 1):
                    exact_val = float(moment(n, p).evaluate(30))
                    oracle = integrate_finite(
                        _moment_integrand(fam, n, p), 0.0, math.pi / 2, oracle_tol
                    )
                    report.add(
                        f"quadrature {fam}({n},{p})",
                        exact=str(moment(n, p)),
                        numeric=exact_val,
                        oracle=oracle.value,
                        abs_err=abs(exact_val - oracle.value),
                        tol=tol,
                    )
        return report

    if family == "halfline":
        for kind in ("cos", "sin"):
            for n in range(min(max_n, 3) + 1):
                for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    for b in b_values:
                        _, value = halfline.halfline_power(kind, n, p, b, 30)
                        oracle = integrate_halfline_osc(
                            OscillatorySpec(kind=kind, n=n, exponent=float(p), shift=b, tolerance=tol)
                        )
                        report.add(
                            f"halfline {kind} n={n} p={p} b={b:g}",
                            numeric=float(value),
                            oracle=oracle.value,
                            abs_err=abs(float(value) - oracle.value),
                            tol=tol,
                        )
        return report

    if family == "examples":
        digits = 40
        with mp.workdps(digits):
            xi = mp.euler + 2 * mp.log(2)
            md2 = halfline.multidim_log(2, digits).value
            report.add(
                "multidim n=2 vs (gamma+2log2) pi^2/16",
                numeric=float(md2),
                oracle=float(xi * mp.pi**2 / 16),
                abs_err=abs(float(md2 - xi * mp.pi**2 / 16)),
                tol=1e-12,
            )
            md1 = halfline.multidim_log(1, digits).value
            lw0 = halfline.log_weighted(0, digits)
            report.add(
                "multidim n=1 vs log-weighted n=0",
                numeric=float(md1),
                oracle=float(lw0),
                abs_err=abs(float(md1 - lw0)),
                tol=1e-12,
            )
            dl = halfline.double_log(Fraction(1, 2), Fraction(1, 2), 0, log_kernel=True, digits=digits)
            report.add(
                "double-log special vs 16 * multidim n=2",
                numeric=float(dl),
                oracle=float(16 * md2),
                abs_err=abs(float(dl - 16 * md2)),
                tol=1e-12,
            )
        osc = integrate_halfline_osc(
            OscillatorySpec(kind="cos", n=0, exponent=0.5, tolerance=1e-7, log_weight=True)
        )
        # log-weight oracle integrates t^{-1/2} log t cos t; the x^2 change of
        # variables relates it to the log_weighted closed form by a factor 4.
        report.add(
            "log-weighted n=0 vs oscillatory oracle",
            numeric=float(lw0),
            oracle=osc.value / 4.0,
            abs_err=abs(float(lw0) - osc.value / 4.0),
            tol=1e-5,
        )
        import numpy as np

        fres = halfline.fresnel_c(1, 30)
        head = integrate_finite(lambda u: 2.0 * np.cos(u * u), 0.0, math.sqrt(math.pi / 2), 1e-12)
        target = float(mp.sqrt(2 * mp.pi) * fres)
        report.add(
            "sqrt(2 pi) FresnelC(1) vs singular-endpoint quadrature",
            numeric=target,
            oracle=head.value,
            abs_err=abs(target - head.value),
            tol=1e-9,
        )
        for kind in ("cos", "sin"):
            for n in range(3):
                for p in (2, 3):
                    lhs = float(halfline.power_arg(kind, n, p, 30))
                    _, rhs = halfline.halfline_power(kind, n, Fraction(p - 1, p), 0.0, 30)
                    report.add(
                        f"power-arg substitution {kind} n={n} p={p}",
                        numeric=lhs,
                        oracle=float(rhs) / p,
                        abs_err=abs(lhs - float(rhs) / p),
                        tol=1e-12,
                    )
        return report

    raise ValueError(f"unknown sweep family {family!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    fam = {"c": "cos", "cos": "cos", "s": "sin", "sin": "sin"}[args.family]
    moment = recurrence.cos_moment if fam == "cos" else recurrence.sin_moment
    poly = moment(args.n, args.p)
    value = poly.evaluate(max(args.digits, 30))

    verified = None
    if args.verify:
        oracle = integrate_finite(
            _moment_integrand(fam, args.n, args.p), 0.0, math.pi / 2, max(args.tol / 10, 1e-13)
        )
        verified = bool(oracle.converged and abs(float(value) - oracle.value) <= args.tol)

    with _int_str_unlimited():
        if args.format == "exact":
            print(str(poly))
        elif args.format == "latex":
            print(poly.latex())
        elif args.format == "float":
            print(_nstr(value, args.digits))
        else:
            payload = {
                "integral": f"{fam[0]}({args.n},{args.p})",
                "params": {"family": fam, "n": args.n, "p": args.p},
                "exact": poly.to_dict(),
                "float": _nstr(value, args.digits),
                "verified": verified,
            }
            print(json.dumps(payload, sort_keys=True))
    if args.verify and args.format in ("exact", "latex", "float"):
        print(f"verified: {verified}")
    return 0 if verified in (None, True) else 1


def _cmd_halfline(args) -> int:
    cfs, value = halfline.halfline_power(args.kind, args.n, args.p, args.b, max(args.digits, 30))
    verified = None
    if args.verify:
        oracle = integrate_halfline_osc(
            OscillatorySpec(kind=args.kind, n=args.n, exponent=float(args.p), shift=args.b, tolerance=args.tol)
        )
        verified = bool(oracle.converged and abs(float(value) - oracle.value) <= args.tol)

    if args.format == "exact":
        print(cfs.text())
    elif args.format == "latex":
        print(cfs.text())  # phases carry floats; one textual form serves both
    elif args.format == "float":
        print(_nstr(value, args.digits))
    else:
        payload = {
            "integral": f"halfline-{args.kind}(n={args.n})",
            "params": {"kind": args.kind, "n": args.n, "p": str(args.p), "b": args.b},
            "exact": cfs.to_dict(),
            "float": _nstr(value, args.digits),
            "verified": verified,
        }
        print(json.dumps(payload, sort_keys=True))
    if args.verify and args.format in ("exact", "latex", "float"):
        print(f"verified: {verified}")
    return 0 if verified in (None, True) else 1


def _table_rows(entry: str, lo: int, hi: int, digits: int) -> list[dict]:
    rows = []
    for idx in range(lo, hi + 1):
        if entry == "3.621.3":
            poly = recurrence.cos_moment(2 * idx, 0)
            rows.append({"entry": entry, "param": f"n={idx}", "exact": str(poly),
                         "value": _nstr(poly.evaluate(30), digits)})
        elif entry == "3.621.4":
            poly = recurrence.cos_moment(2 * idx + 1, 0)
            rows.append({"entry": entry, "param": f"n={idx}", "exact": str(poly),
                         "value": _nstr(poly.evaluate(30), digits)})
        elif entry == "3.761.11":
            poly = recurrence.cos_moment(1, idx)
            rows.append({"entry": entry, "param": f"p={idx}", "exact": str(poly),
                         "value": _nstr(poly.evaluate(30), digits)})
        elif entry == "3.821.3":
            poly = recurrence.cos_moment(idx, 1)
            rows.append({"entry": entry, "param": f"n={idx}", "exact": str(poly),
                         "value": _nstr(poly.evaluate(30), digits)})
        elif entry == "3.822.1":
            value, cfs = halfline.gr_822_1(idx, max(digits, 30))
            rows.append({"entry": entry, "param": f"n={idx}", "exact": cfs.text(),
                         "value": _nstr(value, digits)})
        elif entry in ("3.822.2", "3.821.14"):
            kind = "cos" if entry == "3.822.2" else "sin"
            cfs, value = halfline.halfline_power(kind, idx, Fraction(1, 2), 0.0, max(digits, 30))
            rows.append({"entry": entry, "param": f"n={idx}", "exact": cfs.text(),
                         "value": _nstr(value, digits)})
        else:  # 3.764.1 / 3.764.2
            kind = "cos" if entry == "3.764.1" else "sin"
            if idx < 1:
                continue
            value = halfline.linear_phase(kind, float(idx), 0.0, Fraction(1, 2), max(digits, 30))
            rows.append({"entry": entry, "param": f"a={idx}", "exact": f"{kind}, b=0, p=1/2",
                         "value": _nstr(value, digits)})
    return rows


def _cmd_table(args) -> int:
    lo, hi = args.range
    with _int_str_unlimited():
        rows = _table_rows(args.gr, lo, hi, args.digits)
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        print("| entry | param | exact | value |")
        print("| --- | --- | --- | --- |")
        for r in rows:
            print(f"| {r['entry']} | {r['param']} | {r['exact']} | {r['value']} |")
    return 0


def _cmd_identities(args) -> int:
    report = VerificationReport()
    if args.check in ("wallis", "all"):
        report.extend(recurrence.check_wallis_identities(args.max_n, expansion_max=30))
    if args.check in ("halfline", "all"):
        report.extend(halfline.check_coefficient_identity(args.max_n))
    if args.check in ("star", "all"):
        report.extend(closedform.constant_term_routes(min(args.max_n, 8), 7))
    for line in report.lines(failures_only=not args.verbose):
        print(line)
    return 0 if report.all_passed else 1


def _cmd_verify(args) -> int:
    tol = args.tol
    if tol is None:
        tol = 1e-10 if args.family == "complete" else 1e-6
    report = verify_sweep(args.family, max_n=args.max_n, max_p=args.max_p, tol=tol)
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        for line in report.lines(failures_only=not args.verbose):
            print(line)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigint",
        description="Exact, cross-verified trigonometric integral engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    digits_default = _default_digits()

    p_eval = sub.add_parser("eval", help="evaluate a complete integral over [0, pi/2]")
    p_eval.add_argument("--family", choices=("c", "s", "cos", "sin"), required=True)
    p_eval.add_argument("--n", type=_nonneg, required=True)
    p_eval.add_argument("--p", type=_nonneg, required=True)
    p_eval.add_argument("--format", choices=("exact", "latex", "float", "json"), default="exact")
    p_eval.add_argument("--digits", type=int, default=digits_default)
    p_eval.add_argument("--verify", action="store_true", help="compare against quadrature")
    p_eval.add_argument("--tol", type=float, default=1e-10)
    p_eval.set_defaults(func=_cmd_eval)

    p_half = sub.add_parser("halfline", help="evaluate a half-line integral")
    p_half.add_argument("--kind", choices=("cos", "sin"), required=True)
    p_half.add_argument("--n", type=_nonneg, required=True)
    p_half.add_argument("--p", type=_fraction, required=True, help="exact rational in (0,1), e.g. 1/2")
    p_half.add_argument("--b", type=_finite, default=0.0)
    p_half.add_argument("--format", choices=("exact", "latex", "float", "json"), default="float")
    p_half.add_argument("--digits", type=int, default=digits_default)
    p_half.add_argument("--verify", action="store_true", help="compare against the oscillatory oracle")
    p_half.add_argument("--tol", type=float, default=1e-6)
    p_half.set_defaults(func=_cmd_halfline)

    p_table = sub.add_parser("table", help="regenerate classical table entries")
    p_table.add_argument("--gr", choices=_GR_ENTRIES, required=True)
    p_table.add_argument("--range", type=_range, default=(0, 5))
    p_table.add_argument("--format", choices=("md", "json"), default="md")
    p_table.add_argument("--digits", type=int, default=digits_default)
    p_table.set_defaults(func=_cmd_table)

    p_ident = sub.add_parser("identities", help="run the exact identity checkers")
    p_ident.add_argument("--check", choices=("wallis", "halfline", "star", "all"), default="all")
    p_ident.add_argument("--max-n", type=_nonneg, default=50)
    p_ident.add_argument("--verbose", action="store_true", help="print passing cases too")
    p_ident.set_defaults(func=_cmd_identities)

    p_verify = sub.add_parser("verify", help="exact-vs-oracle verification sweeps")
    p_verify.add_argument("--family", choices=("complete", "halfline", "examples"), required=True)
    p_verify.add_argument("--max-n", type=_nonneg, default=8)
    p_verify.add_argument("--max-p", type=_nonneg, default=8)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="per-family default: 1e-10 complete, 1e-6 otherwise")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a refused input: one line, usage-error status
        print(f"trigint {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
