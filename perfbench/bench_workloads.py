"""The four workloads: how each builds its cases from a seed, runs one case,
and checks the result.

A workload is a ``Workload`` with four parts:

* ``build(seed)`` returns the pass, an ordered list of ``Case`` objects.  The
  same seed always gives the same pass.  Building it is part of set-up.
* ``run(case, traced)`` does the work of one case and returns the raw result.
  This is the only part that is timed; it calls qkbw and nothing else.
* ``check(case, raw)`` runs after the pass, outside every timed span.  It
  returns a ``Checked`` record: whether the case passed, its outcome line
  (the case's exact result, hashed into the run digest) and the largest bit
  length seen in a returned certificate.
* ``speed``, the ``SpeedReference`` timed between cases to scale case times.

qkbw is reached only through its public names, looked up on the ``qkbw``
package at call time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import qkbw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LP_GENERAL_EXPECTED = HERE / "lp_general_expected.json"

NO_CERTIFICATE = "no-certificate"
CERTIFIED = "certified"

_RATIONAL = re.compile(r"-?\d+/\d+\Z")


@dataclass(frozen=True)
class Case:
    ident: str  # stable text name of the case, used in outcome lines
    args: tuple  # workload-specific inputs, built during set-up
    expected: object = None  # workload-specific expected value, if any


@dataclass(frozen=True)
class Checked:
    ok: bool
    outcome: str
    cert_bits: int = 0
    problem: str = ""


@dataclass(frozen=True)
class SpeedReference:
    """A fixed piece of work timed next to every case, to track the machine's speed.

    On a shared machine the speed of a core can change by half for seconds
    at a time.  Each case time is scaled by nominal_ms / (time of this
    reference next to the case), which gives the time the case would take
    at the speed where the reference takes nominal_ms.
    """

    name: str
    measure: object  # () -> ms
    nominal_ms: float


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object
    check: object
    speed: SpeedReference


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def nus(n: int):
    """The 2n shift indices 1..n, -1..-n in the package's canonical order."""
    return list(range(1, n + 1)) + [-i for i in range(1, n + 1)]


def dominant_weights(n: int, total_max: int):
    """Every dominant Sp(n) weight (non-increasing, nonnegative) with entry sum <= total_max."""
    out = []

    def extend(prefix, cap, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(min(cap, remaining), -1, -1):
            extend(prefix + [v], v, remaining - v)

    extend([], total_max, total_max)
    return out


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def _bits(values) -> int:
    bits = 0
    for v in values:
        f = Fraction(v)
        bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
    return bits


# ---------------------------------------------------------------- speed references


def child_env(src: Path):
    """Environment for every qkbw child process: this checkout's source, no Weyl file cache."""
    env = dict(os.environ)
    env.pop("QKBW_CACHE_DIR", None)
    env["PYTHONPATH"] = str(src)
    return env


CHILD_ENV = child_env(SRC)


def _fraction_loop_ms():
    """Time of a harmonic sum of 119 Fractions: exact big-integer arithmetic like qkbw's."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return (time.perf_counter() - start) * 1000


def _interpreter_start_ms():
    """Wall time of a bare `python -c pass` child, started like the qkbw children."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=CHILD_ENV, check=True)
    return (time.perf_counter() - start) * 1000


# Nominal times are those of an unloaded core of the machine the baseline was
# made on (Intel Xeon, 2 vCPUs, Python 3.11.7), so scaled times read as
# milliseconds there.
IN_PROCESS_SPEED = SpeedReference("fraction-loop", _fraction_loop_ms, 0.27)
PROCESS_SPEED = SpeedReference("interpreter-start", _interpreter_start_ms, 48.0)


# ---------------------------------------------------------------- certificates


def _identity_ids(identities):
    """Certificate names of the identities: provenance, then tag#1, tag#2 on repeats."""
    seen = {}
    ids = []
    for ident in identities:
        count = seen.get(ident.provenance, 0)
        seen[ident.provenance] = count + 1
        ids.append(ident.provenance if count == 0 else f"{ident.provenance}#{count}")
    return ids


def recheck_certificate(operator_name, bundle, bound, multipliers, residuals):
    """Re-derive a certificate's claims with the benchmark's own arithmetic.

    multipliers maps identity name -> value, residuals maps (N, nu) -> value.
    Returns "" when every residual is nonnegative, the operator's coefficients
    equal residual plus the multiplier combination of identity coefficients
    at every target, and the bound equals the combination's kappa side.
    Otherwise returns the first problem found.
    """
    values = [bound, *multipliers.values(), *residuals.values()]
    if not all(_is_exact(v) for v in values):
        return "certificate holds a value that is not an exact rational"
    operator = qkbw.operator_coeffs(operator_name, bundle)
    identities = qkbw.pure_kappa_identities(bundle)
    by_id = dict(zip(_identity_ids(identities), identities))
    unknown = set(multipliers) - set(by_id)
    if unknown:
        return f"multipliers name unknown identities {sorted(unknown)}"
    op_keys = [key for key, _ in operator.coeffs]
    if set(residuals) - set(op_keys):
        return "residuals name targets the operator does not have"
    for key, value in residuals.items():
        if value < 0:
            return f"negative residual at {key}"
    maps = {i: by_id[i].coeff_map() for i in multipliers}
    for key, op_coeff in operator.coeffs:
        combined = residuals.get(key, Fraction(0)) + sum(
            lam * maps[i].get(key, Fraction(0)) for i, lam in multipliers.items()
        )
        if combined != op_coeff:
            return f"reconstruction fails at target {key}"
    kappa_side = operator.constant_kappa + sum(
        lam * by_id[i].kappa_coeff for i, lam in multipliers.items()
    )
    if kappa_side != bound:
        return "bound differs from the multiplier combination"
    return ""


def classify_lp(raw):
    """(class, certificate or None, problem) of a bound call's raw result."""
    if isinstance(raw, qkbw.InconsistencyError) and isinstance(
        raw.__cause__, qkbw.LPInfeasibleError
    ):
        return NO_CERTIFICATE, None, ""
    if isinstance(raw, BaseException):
        return "error", None, f"{type(raw).__name__}: {raw}"
    if getattr(raw, "bound", None) is None:
        return NO_CERTIFICATE, None, ""
    return CERTIFIED, raw, ""


def _check_lp(case, raw, expected_class, expected_bound):
    operator_name, bundle, sign = case.args
    cls, cert, problem = classify_lp(raw)
    if problem:
        return Checked(False, f"{case.ident}\terror", problem=problem)
    if cls == NO_CERTIFICATE:
        outcome = f"{case.ident}\t{NO_CERTIFICATE}"
        if expected_class != NO_CERTIFICATE:
            return Checked(False, outcome, problem=f"expected {expected_class}, got no certificate")
        return Checked(True, outcome)
    outcome = f"{case.ident}\t{CERTIFIED} {qkbw.format_rational(cert.bound)}"
    if expected_class != CERTIFIED:
        return Checked(False, outcome, problem=f"expected {expected_class}, got a certificate")
    if cert.bound != expected_bound:
        return Checked(False, outcome, problem=f"bound {cert.bound} != expected {expected_bound}")
    multipliers = dict(cert.multipliers)
    residuals = dict(cert.residuals)
    problem = recheck_certificate(operator_name, bundle, cert.bound, multipliers, residuals)
    bits = _bits([cert.bound, *multipliers.values(), *residuals.values()])
    return Checked(not problem, outcome, bits, problem)


# ---------------------------------------------------------------- lp-grid


def grid_cases():
    """The `qkbw sweep --n 2..5 --kappa-sign both` grid: 518 Hodge cases."""
    cases = []
    for n in range(2, 6):
        for a in range(n + 1):
            for b in range(a + 1):
                for k in range(2 * n - a - b + 1):
                    for sign in "+-":
                        cases.append(
                            Case(
                                f"n={n} k={k} a={a} b={b} {sign}",
                                ("hodge_laplacian", qkbw.lambda_ab_bundle(k, a, b, n), sign),
                                qkbw.closed_form_bound(k, a, b, n, sign),
                            )
                        )
    return cases


def build_lp_grid(seed):
    cases = grid_cases()
    _rng("lp-grid", seed).shuffle(cases)
    return cases


def run_bound(case, traced=False):
    operator_name, bundle, sign = case.args
    return qkbw.bound_for(operator_name, bundle, sign)


def check_lp_grid(case, raw):
    return _check_lp(case, raw, CERTIFIED, case.expected)


# ---------------------------------------------------------------- lp-general

LP_GENERAL_OPERATORS = ("hodge_laplacian", "connection_laplacian")


def load_lp_general_pool():
    """The stored bundles with the outcome every case had when the pool was made."""
    with open(LP_GENERAL_EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["bundles"]


def build_lp_general(seed):
    """Every case of the stored pool (140 bundles, 560 cases) twice, in seed order.

    Half the cases end fast with no certificate and half certify more slowly,
    so the median falls between the two groups; 1120 samples a pass keep it
    steady from run to run.
    """
    cases = []
    for entry in load_lp_general_pool():
        rho = qkbw.SpnWeight(tuple(entry["rho"]))
        bundle = qkbw.BundleLabel(entry["k"], rho)
        for operator_name in LP_GENERAL_OPERATORS:
            for sign in "+-":
                exp = entry["expected"][f"{operator_name} {sign}"]
                bound = None if exp["bound"] is None else qkbw.parse_rational(exp["bound"])
                cases.append(
                    Case(
                        f"{operator_name} k={entry['k']} rho={rho} {sign}",
                        (operator_name, bundle, sign),
                        (exp["outcome"], bound),
                    )
                )
    cases *= 2
    _rng("lp-general", seed).shuffle(cases)
    return cases


def check_lp_general(case, raw):
    return _check_lp(case, raw, *case.expected)


# ---------------------------------------------------------------- algebra

ALGEBRA_RANKS = range(2, 8)
ALGEBRA_KS = range(1, 5)
ALGEBRA_TOTAL_MAX = 6


def build_algebra(seed):
    """Every bundle of the space (155 weights, 4 values of k: 620 cases), in seed order."""
    cases = []
    for n in ALGEBRA_RANKS:
        for entries in dominant_weights(n, ALGEBRA_TOTAL_MAX):
            rho = qkbw.SpnWeight(entries)
            for k in ALGEBRA_KS:
                cases.append(Case(f"k={k} rho={rho}", (qkbw.BundleLabel(k, rho), nus(n))))
    _rng("algebra", seed).shuffle(cases)
    return cases


def run_algebra(case, traced=False):
    bundle, shifts = case.args
    rho, n, k = bundle.rho, bundle.n, bundle.k
    weyl = [qkbw.relative_dimension_weyl(rho, nu) for nu in shifts]
    product = [qkbw.relative_dimension_product(rho, nu) for nu in shifts]
    recursion = qkbw.verify_recursion(rho, q_max=6)
    report = qkbw.casimir_report(rho, q_max=min(2 * n, 12))
    family = qkbw.theorem_family(bundle)
    rank = qkbw.independence_rank(family)
    twistor = qkbw.twistor_kernel_analysis(k, n)
    return weyl, product, recursion, report, family, rank, twistor


def _algebra_problem(bundle, weyl, product, recursion, report, family, rank, twistor, N):
    n = bundle.n
    if not all(_is_exact(v) for v in weyl + product):
        return "relative dimension is not an exact rational"
    if weyl != product:
        return "product-formula relative dimensions differ from the Weyl oracle"
    if sum(weyl) != 2 * n:
        return f"relative dimensions sum to {sum(weyl)}, not 2n = {2 * n}"
    if recursion:
        return f"verify_recursion failures {recursion}"
    q_max = min(2 * n, 12)
    if [q for q, _, _ in report.values] != list(range(q_max + 1)):
        return "casimir_report does not list q = 0..q_max"
    c = [v for _, v, _ in report.values]
    c_hat = [v for _, _, v in report.values]
    if not all(_is_exact(v) for v in c + c_hat):
        return "Casimir eigenvalue is not an exact rational"
    if c[0] != 2 * n:
        return "c_0 differs from 2n"
    shift = -(n + Fraction(1, 2))
    for q in range(q_max + 1):
        if c_hat[q] != sum(comb(q, p) * shift ** (q - p) * c[p] for p in range(q + 1)):
            return f"c_hat_{q} is not the binomial translate of c"
    if len(family) != N // 2 or rank != N // 2:
        return f"theorem family has {len(family)} rows of rank {rank}, want floor(N/2) = {N // 2}"
    data = twistor.to_json_dict()
    if not data["determined"]:
        return "twistor kernel system is undetermined"
    if any(data["verdicts"][s]["verdict"] != "vanishes" for s in "+-"):
        return "twistor kernel system does not vanish for both signs"
    return ""


def check_algebra(case, raw):
    if isinstance(raw, BaseException):
        return Checked(False, f"{case.ident}\terror", problem=f"{type(raw).__name__}: {raw}")
    bundle, _ = case.args
    weyl, product, recursion, report, family, rank, twistor = raw
    N = qkbw.decompose_bundle(bundle).summand_count
    problem = _algebra_problem(bundle, *raw, N)
    if problem:
        return Checked(False, f"{case.ident}\tfailed", problem=problem)
    fmt = qkbw.format_rational
    data = twistor.to_json_dict()
    outcome = (
        f"{case.ident}\tN={N} rank={rank}"
        f" reldim={','.join(fmt(v) for v in weyl)}"
        f" c={','.join(fmt(v) for _, v, _ in report.values)}"
        f" twistor={data['nabla_ratio']}"
    )
    return Checked(True, outcome)


# ---------------------------------------------------------------- cli-cold

CLI_CASES = 144  # 36 per rank n = 2..5 (all 36 of n = 2); p90 has 14 cases beyond it


def cli_bound_argv(case):
    _, bundle, sign = case.args
    return [
        "-m", "qkbw.cli", "bound",
        "--n", str(bundle.n), "--k", str(bundle.k), "--rho", str(bundle.rho),
        "--kappa-sign", sign, "--format", "json",
    ]


def cli_probe_case():
    """The fixed `qkbw bound` case the traced runs use to time the CLI layer."""
    return Case(
        "cli probe",
        ("hodge_laplacian", qkbw.lambda_ab_bundle(2, 2, 1, 3), "+"),
        qkbw.closed_form_bound(2, 2, 1, 3, "+"),
    )


def build_cli_cold(seed):
    """CLI_CASES lp-grid cases, the same number for each rank n, in seed order."""
    rng = _rng("cli-cold", seed)
    by_rank = {}
    for case in grid_cases():
        by_rank.setdefault(case.args[1].n, []).append(case)
    cases = []
    for n in sorted(by_rank):
        cases += rng.sample(by_rank[n], CLI_CASES // len(by_rank))
    rng.shuffle(cases)
    return cases


def run_cli(case, traced=False):
    """One fresh `python -m qkbw.cli bound` process; traced runs add -X importtime."""
    argv = [sys.executable, *(["-X", "importtime"] if traced else []), *cli_bound_argv(case)]
    return subprocess.run(
        argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=120
    )


def check_cli_output(case, returncode, stdout):
    """Check one `qkbw bound --format json` output against the closed form."""
    _, bundle, sign = case.args
    if returncode != 0:
        return Checked(False, f"{case.ident}\texit {returncode}", problem=f"exit code {returncode}")
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return Checked(False, f"{case.ident}\tbad-json", problem="stdout is not JSON")
    texts = [data.get("bound"), *data.get("multipliers", {}).values(), *data.get("residuals", {}).values()]
    if not all(isinstance(t, str) and _RATIONAL.match(t) for t in texts):
        return Checked(False, f"{case.ident}\tinexact", problem="a printed value is not an exact p/q")
    bound = Fraction(data["bound"])
    outcome = f"{case.ident}\t{CERTIFIED} {data['bound']}"
    if (data.get("n"), data.get("k"), data.get("rho")) != (bundle.n, bundle.k, str(bundle.rho)):
        return Checked(False, outcome, problem="printed bundle differs from the requested one")
    if bound != case.expected:
        return Checked(False, outcome, problem=f"bound {bound} != closed form {case.expected}")
    multipliers = {i: Fraction(v) for i, v in data["multipliers"].items()}
    residuals = {
        tuple(int(x) for x in key.split(",")): Fraction(v)
        for key, v in data["residuals"].items()
    }
    problem = recheck_certificate("hodge_laplacian", bundle, bound, multipliers, residuals)
    bits = _bits([bound, *multipliers.values(), *residuals.values()])
    return Checked(not problem, outcome, bits, problem)


def check_cli_cold(case, raw):
    if isinstance(raw, BaseException):
        return Checked(False, f"{case.ident}\terror", problem=f"{type(raw).__name__}: {raw}")
    return check_cli_output(case, raw.returncode, raw.stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp-grid", build_lp_grid, run_bound, check_lp_grid, IN_PROCESS_SPEED),
        Workload("lp-general", build_lp_general, run_bound, check_lp_general, IN_PROCESS_SPEED),
        Workload("algebra", build_algebra, run_algebra, check_algebra, IN_PROCESS_SPEED),
        Workload("cli-cold", build_cli_cold, run_cli, check_cli_cold, PROCESS_SPEED),
    )
}
