"""Command-line surface.  Every computation is reachable with flags only.

Every verb but selftest writes one output form through _emit, which builds
only that form: md (the default) or json; csv for every verb but bound and
hpn; and for bw, --emit-latex, which excludes --format.  casimir, decompose
and table1 write their CSV from their JSON rows.

Exit codes: 0 success, 1 a `sweep` found a mismatch (a grid case with no
certificate is one, its LP bound printed as none), 2 parameter/validation
error, 3 internal inconsistency (an InconsistencyError: an LP went unbounded
or an identity system contradicted itself, or `hpn` found no certificate
where the first eigenvalue gives a bound, which signals a generator bug
rather than bad user input), 4 `bound` returned a NoCertificate: no
nonnegative rewriting of the operator exists over the identity span, a
legitimate result, reported with `bound: null` and the reason.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
from fractions import Fraction

from .bounds import bound_for, closed_form_bound, harmonic_classification, twistor_kernel_analysis
from .casimir import (
    DEFAULT_Q_CAP,
    casimir_report,
    decompose_bundle,
    lambda_ab_bundle,
    table1_row,
)
from .identities import (
    OPERATOR_NAMES,
    InconsistencyError,
    identities_to_csv,
    identities_to_json_dict,
    identity_to_latex,
    Rule,
    apply_rule,
    printed_identities,
    printed_identity,
    theorem_family,
)
from .rationals import csv_table, format_rational
from .selfcheck import run_suites, sweep_case, sweep_cases
from .simplex import LPInfeasibleError, LPUnboundedError
from .weights import BundleLabel, _parse_int, parse_weight

# every operator by its own name, and four short aliases
OPERATOR_ALIASES = {
    **{name: name for name in OPERATOR_NAMES},
    "hodge": "hodge_laplacian",
    "connection": "connection_laplacian",
    "dirac": "dirac_squared",
    "r1": "R1_endomorphism",
}


def _int_arg(text: str) -> int:
    """argparse type of every integer flag: ASCII digits, an optional leading "-"."""
    try:
        return _parse_int(text, "integer", signed=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_range(text: str, flag: str):
    """A sweep range "lo..hi" or a single value; both ends as strict as _int_arg."""
    lo, dots, hi = text.partition("..")
    lo = _parse_int(lo, flag, signed=True)
    return list(range(lo, _parse_int(hi, flag, signed=True) + 1)) if dots else [lo]


def _rho_from_args(args):
    if args.rho is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("--rho conflicts with --a/--b; give one or the other")
        return parse_weight(args.rho, args.n)
    if args.a is None:
        raise ValueError("provide --rho, or --a/--b for a (2_b,1_(a-b)) weight")
    return lambda_ab_bundle(0, args.a, 0 if args.b is None else args.b, args.n).rho


def _emit(fmt, to_json, to_md, to_csv=None, to_latex=None) -> None:
    """Write the one form that fmt names (None is md), built by its zero-argument callable."""
    forms = {"json": lambda: json.dumps(to_json(), indent=2) + "\n", "csv": to_csv, "latex": to_latex}
    build = forms.get(fmt, lambda: to_md() + "\n")
    if build is None:
        raise ValueError(f"{fmt} output is not available for this command")
    sys.stdout.write(build())


def cmd_casimir(args) -> int:
    report = casimir_report(_rho_from_args(args), args.q_max)
    _emit(args.format, report.to_json_dict, report.to_markdown, report.to_csv)
    return 0


def cmd_decompose(args) -> int:
    rho = _rho_from_args(args)
    # without --k, k = 0: only the N = +1 targets are valid, so they count the dominant nu
    table = decompose_bundle(BundleLabel(args.k or 0, rho))
    if args.k is not None:
        _emit(args.format, table.to_json_dict, table.to_markdown, table.to_csv)
        return 0
    rows = [
        {"nu": nu, "weight": str(shifted), "dominant": d > 0,
         "reldim": format_rational(Fraction(d, table.dim))}
        for nu, shifted, _, d in table.rows
    ]

    def to_md():
        lines = [f"V_({rho}) (x) E, n={rho.n}: {table.summand_count} dominant summands", ""]
        lines += ["| nu | weight | dominant | reldim |", "|----|--------|----------|--------|"]
        for nu, weight, dominant, rd in map(dict.values, rows):
            lines.append(f"| {nu:+d} | ({weight}) | {'yes' if dominant else 'no'} | {rd} |")
        return "\n".join(lines)

    obj = {"n": rho.n, "rho": str(rho), "summand_count": table.summand_count, "candidates": rows}
    _emit(args.format, lambda: obj, to_md, lambda: csv_table(rows))
    return 0


def cmd_table1(args) -> int:
    a, b, n = args.a, args.b, args.n
    rows = [(nu, *table1_row(a, b, n, nu)) for nu in (1, b + 1, a + 1, -b, -a)]
    json_rows = [{"nu": nu, "w": format_rational(w), "reldim": format_rational(rd)} for nu, w, rd in rows]

    def to_md():
        lines = [f"Summands of V_(2_{b},1_{a - b}) (x) E at n={n}", ""]
        lines += ["| shift | w | relative dimension |", "|-------|---|--------------------|"]
        lines += [f"| rho{'-' if nu < 0 else '+'}mu_{abs(nu)} | {w} | {rd} |" for nu, w, rd in rows]
        return "\n".join(lines)

    _emit(args.format, lambda: {"n": n, "a": a, "b": b, "rows": json_rows}, to_md, lambda: csv_table(json_rows))
    return 0


def cmd_bw(args) -> int:
    bundle = BundleLabel(args.k, _rho_from_args(args))
    if args.raw:
        identities = theorem_family(bundle)
        if args.hpn:
            identities = [apply_rule(ident, Rule.HPN) for ident in identities]
    else:
        identities = printed_identities(bundle, args.hpn)
    # an empty family still names its bundle and targets: the base row's
    named = identities or [printed_identity(bundle, "sum")]

    def to_json():
        obj = identities_to_json_dict(named)
        return obj if identities else {**obj, "identities": []}

    def to_csv():
        text = identities_to_csv(named)
        return text if identities else text.partition("\n")[0] + "\n"

    def to_md():
        lines = [f"Identities on {bundle}", ""]
        for ident in identities:
            tag = "pure-kappa" if ident.is_pure_kappa else "carries curvature"
            lines += [f"[{ident.provenance}] ({tag})", "  " + identity_to_latex(ident)]
        return "\n".join(lines)

    _emit(
        args.format, to_json, to_md, to_csv,
        lambda: "".join(identity_to_latex(ident) + "\n" for ident in identities),
    )
    return 0


def cmd_bound(args) -> int:
    rho = _rho_from_args(args)
    bundle = BundleLabel(args.k, rho)
    operator = OPERATOR_ALIASES[args.operator]
    result = bound_for(operator, bundle, args.kappa_sign, hpn=args.hpn)
    shape = rho.lambda_ab_shape()
    certified = result.bound is not None
    if certified and operator == "hodge_laplacian" and shape is not None and not args.hpn:
        a, b = shape
        if 0 <= args.k <= 2 * bundle.n - a - b:
            closed = closed_form_bound(args.k, a, b, bundle.n, args.kappa_sign)
            if closed == result.bound:
                result = result.replace(matched_closed_form="laplace-bound-table")
    _emit(args.format, result.to_json_dict, result.to_markdown)
    return 0 if certified else 4


def cmd_vanish(args) -> int:
    analysis = twistor_kernel_analysis(args.k, args.n)
    _emit(args.format, analysis.to_json_dict, analysis.to_markdown, analysis.to_csv)
    return 0


def cmd_harmonic(args) -> int:
    signs = ["+", "-"] if args.kappa_sign == "both" else [args.kappa_sign]
    classes = {sign: harmonic_classification(args.n, sign) for sign in signs}

    def to_md():
        lines = [f"Bundles with zero Laplace bound at n={args.n}"]
        for sign, triples in classes.items():
            lines.append(f"kappa {sign}: " + ", ".join(f"(k={k},a={a},b={b})" for k, a, b in triples))
        return "\n".join(lines)

    _emit(
        args.format,
        lambda: {"n": args.n, "classification": {s: list(map(list, t)) for s, t in classes.items()}},
        to_md,
        lambda: "kappa_sign,k,a,b\n"
        + "".join(f"{s},{k},{a},{b}\n" for s, triples in classes.items() for k, a, b in triples),
    )
    return 0


def cmd_hpn(args) -> int:
    n, k, a, b = args.n, args.k, args.a, args.b
    _, bound, expected = sweep_case((n, k, a, b, "+", True))
    if bound is None:  # lambda_1 / (2n) is a bound, so the LP must certify one
        raise InconsistencyError(
            "no certificate over the hpn identity span, where lambda_1 / (2n) is a bound"
        )
    lam1, lp = expected * 2 * n, bound * 2 * n
    _emit(
        args.format,
        lambda: {"n": n, "k": k, "a": a, "b": b, "first_eigenvalue": format_rational(lam1),
                 "lp_bound_at_kappa_2n": format_rational(lp), "sharp": lp == lam1},
        lambda: f"First eigenvalue on the projective model (kappa=2n): {lam1}\n"
        f"LP bound evaluated at kappa=2n: {lp}\nsharp: {lp == lam1}",
    )
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = min(args.jobs, os.cpu_count() or 1)
    if args.hpn and args.kappa_sign == "-":
        raise ValueError("--hpn compares with HP^n, where kappa > 0; drop --kappa-sign -")
    signs = "+" if args.hpn else "+-" if args.kappa_sign == "both" else args.kappa_sign
    ns = _parse_range(args.n, "--n")
    filters = {
        flag: set(_parse_range(text, f"--{flag}"))
        for flag, text in (("a", args.a), ("b", args.b), ("k", args.k))
        if text
    }
    cases = sweep_cases(ns, signs, args.hpn, **filters)
    if not cases:
        raise ValueError("the sweep selects no cases; check --n, --k, --a and --b")
    try:
        ledger = open(args.csv, "a", encoding="ascii") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        raise ValueError(f"cannot open the --csv ledger: {exc}") from None
    with ledger:
        if jobs > 1:
            # the cases run in (n, a, b, k, sign) order, so contiguous chunks keep
            # the cases of one rho, and both signs of one bundle, together: the
            # summand table, the operator row and the identity set are each built
            # in one worker, or in two when a chunk boundary splits their cases
            chunksize = max(1, len(cases) // (4 * jobs))
            # the attribute loads the pool module, which the other verbs never need
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(sweep_case, cases, chunksize=chunksize))
        else:
            results = [sweep_case(c) for c in cases]
        header = "n,k,a,b,kappa_sign,lp_bound,expected,match\n"

        def body():
            return "".join(
                f"{n},{k},{a},{b},{sign},{'none' if lp is None else format_rational(lp)},"
                f"{format_rational(expected)},"
                f"{int(lp == expected)}\n"
                for (n, k, a, b, sign, _), lp, expected in results
            )

        if args.csv:
            # the header goes only into a new or empty ledger
            ledger.write(body() if ledger.tell() else header + body())
    mismatches = [(case[:5], lp) for case, lp, expected in results if lp != expected]

    def to_md():
        label = "first-eigenvalue comparison" if args.hpn else "closed-form comparison"
        lines = [f"sweep ({label}): {len(results)} cases, {len(mismatches)} mismatches"]
        lines += [
            f"  mismatch at n={n} k={k} a={a} b={b} sign {s}" + (": lp bound none" if lp is None else "")
            for (n, k, a, b, s), lp in mismatches
        ]
        return "\n".join(lines)

    _emit(
        args.format,
        lambda: {"cases": len(results), "mismatches": [list(case) for case, _ in mismatches]},
        to_md,
        lambda: header + body(),
    )
    return 1 if mismatches else 0


def cmd_selftest(args) -> int:
    results = run_suites(quick=args.quick)
    failed = False
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"[{status}] {res.name}: {res.cases} cases, {len(res.failures)} failures")
        for f in res.failures[:10]:
            print(f"    {f}")
        if not res.ok:
            failed = True
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkbw",
        description=(
            "Exact conformal-weight, Casimir, and eigenvalue-bound computations "
            "on irreducible Sp(1)Sp(n) bundles"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        # bw's --emit-latex sets format too.  None (md) as the default, since the group
        # check lets through a value that is the default object, as an interned "md" is
        group = p.add_mutually_exclusive_group()
        group.add_argument("--format", choices=("json", "md", "csv"), default=None)
        return group

    def add_common(p, rho=True, k=False):
        p.add_argument("--n", type=_int_arg, required=True, help="Sp(n) rank, n >= 2")
        if rho:
            p.add_argument("--rho", type=str, default=None, help="weight: '2,1,0' or '2^b 1^(a-b) @ n'")
            p.add_argument("--a", type=_int_arg, default=None)
            p.add_argument("--b", type=_int_arg, default=None)
        if k:
            p.add_argument("--k", type=_int_arg, required=True, help="Sp(1) weight, k >= 0")
        return add_format(p)

    p = sub.add_parser("casimir", help="Casimir eigenvalues c_q, c_hat_q on V_rho")
    add_common(p)
    p.add_argument("--q-max", type=_int_arg, default=4, help=f"highest q (cap {DEFAULT_Q_CAP})")
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("decompose", help="summands of V_rho (x) E, or of a full bundle with --k")
    add_common(p)
    p.add_argument("--k", type=_int_arg, default=None, help="Sp(1) weight; omit for the nu-level table")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("table1", help="five-row (w, reldim) table on (2_b,1_(a-b)), 0<b<a<n")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--b", type=_int_arg, required=True)
    add_format(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bw", help="identity set over the gradient basis of a bundle")
    add_common(p, k=True).add_argument(
        "--emit-latex", dest="format", action="store_const", const="latex",
        help="one LaTeX identity per line, instead of --format",
    )
    p.add_argument("--raw", action="store_true", help="emit the theorem families instead of the printed forms")
    p.add_argument("--hpn", action="store_true", help="drop all curvature contractions (projective-space mode)")
    p.set_defaults(func=cmd_bw)

    p = sub.add_parser("bound", help="optimal LP bound certificate for an operator")
    add_common(p, k=True)
    p.add_argument("--operator", choices=sorted(OPERATOR_ALIASES), default="hodge")
    p.add_argument("--kappa-sign", choices=("+", "-"), required=True)
    p.add_argument("--hpn", action="store_true", help="no quartic curvature: HP^n (kappa>0), its dual (kappa<0)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("vanish", help="twistor kernel system on S^(k+1)(H) (x) E")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True, help="twistor parameter, k >= 0")
    add_format(p)
    p.set_defaults(func=cmd_vanish)

    p = sub.add_parser("harmonic", help="bundles whose Laplace bound is exactly zero")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--kappa-sign", choices=("+", "-", "both"), default="both")
    add_format(p)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("hpn", help="compare LP bound with the projective-space first eigenvalue")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--b", type=_int_arg, required=True)
    add_format(p)
    p.set_defaults(func=cmd_hpn)

    p = sub.add_parser("sweep", help="grid comparison of LP bounds against closed forms")
    p.add_argument("--n", type=str, required=True, help="range like 2..4 or a single value")
    p.add_argument("--k", type=str, default=None)
    p.add_argument("--a", type=str, default=None)
    p.add_argument("--b", type=str, default=None)
    p.add_argument("--kappa-sign", choices=("+", "-", "both"), default="both")
    p.add_argument("--hpn", action="store_true", help="compare with the HP^n first eigenvalue (k>=2, kappa>0)")
    p.add_argument("--csv", type=str, default=None, help="append results to this CSV ledger")
    p.add_argument("--jobs", type=_int_arg, default=1, help="worker processes, at most the CPU count")
    add_format(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the exact invariant corpus")
    p.add_argument("--quick", action="store_true", help="restrict the corpus to n <= 3")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, LPUnboundedError, LPInfeasibleError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
