"""Command-line surface.  Every computation is reachable with flags only.

Exit codes: 0 success, 1 a `sweep` found a mismatch, 2 parameter/validation
error, 3 internal inconsistency (an InconsistencyError: an LP went unbounded
or an identity system contradicted itself, which signals a generator bug
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
from .rationals import format_rational
from .selfcheck import run_suites, sweep_case, sweep_cases
from .simplex import LPInfeasibleError, LPUnboundedError
from .weights import BundleLabel, _parse_int, parse_weight

OPERATOR_ALIASES = {
    "hodge": "hodge_laplacian",
    "hodge_laplacian": "hodge_laplacian",
    "connection": "connection_laplacian",
    "connection_laplacian": "connection_laplacian",
    "dirac": "dirac_squared",
    "dirac_squared": "dirac_squared",
    "r1": "R1_endomorphism",
    "R1_endomorphism": "R1_endomorphism",
}


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


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


def _emit(args, json_obj, markdown, csv_text=None):
    fmt = args.format
    if fmt == "json":
        sys.stdout.write(canonical_json(json_obj))
    elif fmt == "csv":
        if csv_text is None:
            raise ValueError("csv output is not available for this command")
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(markdown + "\n")


def cmd_casimir(args) -> int:
    rho = _rho_from_args(args)
    report = casimir_report(rho, args.q_max)
    csv_text = "q,c,c_hat\n" + "".join(
        f"{q},{format_rational(c)},{format_rational(ch)}\n" for q, c, ch in report.values
    )
    _emit(args, report.to_json_dict(), report.to_markdown(), csv_text)
    return 0


def cmd_decompose(args) -> int:
    rho = _rho_from_args(args)
    if args.k is None:
        # at k = 0 only the N = +1 targets are valid, so they count the dominant nu
        table = decompose_bundle(BundleLabel(0, rho))
        rows = [
            (nu, shifted, d > 0, format_rational(Fraction(d, table.dim)))
            for nu, shifted, _, d in table.rows
        ]
        obj = {
            "n": rho.n,
            "rho": str(rho),
            "summand_count": table.summand_count,
            "candidates": [
                {"nu": nu, "weight": str(weight), "dominant": dominant, "reldim": rd}
                for nu, weight, dominant, rd in rows
            ],
        }
        lines = [
            f"V_({rho}) (x) E, n={rho.n}: {table.summand_count} dominant summands",
            "",
            "| nu | weight | dominant | reldim |",
            "|----|--------|----------|--------|",
        ]
        lines += [
            f"| {nu:+d} | ({weight}) | {'yes' if dominant else 'no'} | {rd} |"
            for nu, weight, dominant, rd in rows
        ]
        csv_text = "nu,weight,dominant,reldim\n" + "".join(
            f'{nu},"{weight}",{int(dominant)},{rd}\n' for nu, weight, dominant, rd in rows
        )
        _emit(args, obj, "\n".join(lines), csv_text)
        return 0
    bundle = BundleLabel(args.k, rho)
    table = decompose_bundle(bundle)
    csv_text = "N,nu,k,rho,valid,w,w_hat,W,reldim\n" + "".join(
        f'{t.N},{t.nu},{t.target_k},"{t.target_rho}",{int(t.valid)},'
        f"{format_rational(t.w)},{format_rational(t.w_hat)},"
        f"{format_rational(t.W)},{format_rational(t.reldim)}\n"
        for t in table.targets
    )
    _emit(args, table.to_json_dict(), table.to_markdown(), csv_text)
    return 0


def cmd_table1(args) -> int:
    a, b, n = args.a, args.b, args.n
    rows = []
    for nu in (1, b + 1, a + 1, -b, -a):
        w, rd = table1_row(a, b, n, nu)
        rows.append((nu, w, rd))
    obj = {
        "n": n,
        "a": a,
        "b": b,
        "rows": [
            {"nu": nu, "w": format_rational(w), "reldim": format_rational(rd)}
            for nu, w, rd in rows
        ],
    }
    lines = [
        f"Summands of V_(2_{b},1_{a - b}) (x) E at n={n}",
        "",
        "| shift | w | relative dimension |",
        "|-------|---|--------------------|",
    ]
    for nu, w, rd in rows:
        shift = f"rho+mu_{nu}" if nu > 0 else f"rho-mu_{-nu}"
        lines.append(f"| {shift} | {w} | {rd} |")
    csv_lines = ["nu,w,reldim"] + [
        f"{nu},{format_rational(w)},{format_rational(rd)}" for nu, w, rd in rows
    ]
    _emit(args, obj, "\n".join(lines), "\n".join(csv_lines) + "\n")
    return 0


def cmd_bw(args) -> int:
    rho = _rho_from_args(args)
    bundle = BundleLabel(args.k, rho)
    if args.raw:
        identities = theorem_family(bundle)
        if args.hpn:
            identities = [apply_rule(ident, Rule.HPN) for ident in identities]
    else:
        identities = printed_identities(bundle, args.hpn)
    obj, csv_text = identities_to_json_dict(identities), identities_to_csv(identities)
    if not identities:
        # an empty theorem family still names its bundle and targets: the base row's
        base = [printed_identity(bundle, "sum")]
        obj = {**identities_to_json_dict(base), "identities": []}
        csv_text = identities_to_csv(base).partition("\n")[0] + "\n"
    lines = [f"Identities on {bundle}", ""]
    for ident in identities:
        tag = "pure-kappa" if ident.is_pure_kappa else "carries curvature"
        lines.append(f"[{ident.provenance}] ({tag})")
        lines.append("  " + identity_to_latex(ident))
    if args.emit_latex:
        for ident in identities:
            print(identity_to_latex(ident))
        return 0
    _emit(args, obj, "\n".join(lines), csv_text)
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
    _emit(args, result.to_json_dict(), result.to_markdown())
    return 0 if certified else 4


def cmd_vanish(args) -> int:
    analysis = twistor_kernel_analysis(args.k, args.n)
    csv_text = "target,ratio\n" + "".join(
        f"{N:+d};{nu:+d},{format_rational(v)}\n" for (N, nu), v in analysis.solved_ratios
    )
    _emit(args, analysis.to_json_dict(), analysis.to_markdown(), csv_text)
    return 0


def cmd_harmonic(args) -> int:
    signs = ["+", "-"] if args.kappa_sign == "both" else [args.kappa_sign]
    obj = {"n": args.n, "classification": {}}
    lines = [f"Bundles with zero Laplace bound at n={args.n}"]
    csv_lines = ["kappa_sign,k,a,b"]
    for sign in signs:
        triples = harmonic_classification(args.n, sign)
        obj["classification"][sign] = [list(t) for t in triples]
        lines.append(f"kappa {sign}: " + ", ".join(f"(k={k},a={a},b={b})" for k, a, b in triples))
        csv_lines += [f"{sign},{k},{a},{b}" for k, a, b in triples]
    _emit(args, obj, "\n".join(lines), "\n".join(csv_lines) + "\n")
    return 0


def cmd_hpn(args) -> int:
    _, bound, expected = sweep_case((args.n, args.k, args.a, args.b, "+", True))
    lam1, bound_value = expected * 2 * args.n, bound * 2 * args.n
    obj = {
        "n": args.n,
        "k": args.k,
        "a": args.a,
        "b": args.b,
        "first_eigenvalue": format_rational(lam1),
        "lp_bound_at_kappa_2n": format_rational(bound_value),
        "sharp": bound_value == lam1,
    }
    md = (
        f"First eigenvalue on the projective model (kappa=2n): {lam1}\n"
        f"LP bound evaluated at kappa=2n: {bound_value}\n"
        f"sharp: {bound_value == lam1}"
    )
    _emit(args, obj, md)
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
            # the attribute loads the pool module, which the other verbs never need
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(sweep_case, cases))
        else:
            results = [sweep_case(c) for c in cases]

        header = "n,k,a,b,kappa_sign,lp_bound,expected,match"
        rows = []
        mismatches = []
        for (n, k, a, b, sign, _), lp, expected in results:
            match = lp == expected
            rows.append(
                f"{n},{k},{a},{b},{sign},"
                f"{format_rational(lp)},{format_rational(expected)},{int(match)}"
            )
            if not match:
                mismatches.append((n, k, a, b, sign))
        body = "".join(row + "\n" for row in rows)
        csv_text = header + "\n" + body
        if args.csv:
            # the header goes only into a new or empty ledger
            ledger.write(body if ledger.tell() else csv_text)
    if args.format == "csv":
        sys.stdout.write(csv_text)
    elif args.format == "json":
        sys.stdout.write(
            canonical_json(
                {
                    "cases": len(results),
                    "mismatches": [list(m) for m in mismatches],
                }
            )
        )
    else:
        label = "first-eigenvalue comparison" if args.hpn else "closed-form comparison"
        print(f"sweep ({label}): {len(results)} cases, {len(mismatches)} mismatches")
        for m in mismatches:
            print(f"  mismatch at n={m[0]} k={m[1]} a={m[2]} b={m[3]} sign {m[4]}")
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

    def add_common(p, rho=True, k=False):
        p.add_argument("--n", type=_int_arg, required=True, help="Sp(n) rank, n >= 2")
        if rho:
            p.add_argument("--rho", type=str, default=None, help="weight: '2,1,0' or '2^b 1^(a-b) @ n'")
            p.add_argument("--a", type=_int_arg, default=None)
            p.add_argument("--b", type=_int_arg, default=None)
        if k:
            p.add_argument("--k", type=_int_arg, required=True, help="Sp(1) weight, k >= 0")
        p.add_argument("--format", choices=("json", "md", "csv"), default="md")

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
    p.add_argument("--format", choices=("json", "md", "csv"), default="md")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bw", help="identity set over the gradient basis of a bundle")
    add_common(p, k=True)
    p.add_argument("--raw", action="store_true", help="emit the theorem families instead of the printed forms")
    p.add_argument("--hpn", action="store_true", help="drop all curvature contractions (projective-space mode)")
    p.add_argument("--emit-latex", action="store_true")
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
    p.add_argument("--format", choices=("json", "md", "csv"), default="md")
    p.set_defaults(func=cmd_vanish)

    p = sub.add_parser("harmonic", help="bundles whose Laplace bound is exactly zero")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--kappa-sign", choices=("+", "-", "both"), default="both")
    p.add_argument("--format", choices=("json", "md", "csv"), default="md")
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("hpn", help="compare LP bound with the projective-space first eigenvalue")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--b", type=_int_arg, required=True)
    p.add_argument("--format", choices=("json", "md", "csv"), default="md")
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
    p.add_argument("--format", choices=("json", "md", "csv"), default="md")
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
