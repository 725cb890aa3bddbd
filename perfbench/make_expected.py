"""Write perfbench/lp_general_expected.json: the lp-general bundle pool and
the outcome of each of its cases.

    python3 perfbench/make_expected.py

The pool holds, for every rank n = 2..8 and k = 0..4, four dominant weights
with entry sum <= 8 and first entry >= 3 (never a (2_b, 1_(a-b)) shape),
drawn with a fixed seed.  Each bundle runs four cases: Hodge and connection
Laplacian, both curvature signs.  A case's outcome is "certified" with its
bound, or "no-certificate" when no nonnegative rewriting exists.  The file
is made once and committed; a run compares against it, so rerun this only
when the pool itself is meant to change.
"""

from __future__ import annotations

import json
import random
import sys

from run import HERE, prepare_source

POOL_PER_CELL = 4
TOTAL_MAX = 8


def main():
    prepare_source()
    import qkbw
    from bench_workloads import (
        CERTIFIED,
        LP_GENERAL_EXPECTED,
        LP_GENERAL_OPERATORS,
        NO_CERTIFICATE,
        Case,
        classify_lp,
        dominant_weights,
        recheck_certificate,
        run_bound,
    )

    rng = random.Random("lp-general-pool")
    bundles = []
    for n in range(2, 9):
        weights = [w for w in dominant_weights(n, TOTAL_MAX) if w[0] >= 3]
        for k in range(5):
            for entries in sorted(rng.sample(weights, POOL_PER_CELL), reverse=True):
                bundle = qkbw.BundleLabel(k, qkbw.SpnWeight(entries))
                expected = {}
                for operator_name in LP_GENERAL_OPERATORS:
                    for sign in "+-":
                        case = Case("pool", (operator_name, bundle, sign))
                        try:
                            raw = run_bound(case)
                        except Exception as exc:
                            raw = exc
                        cls, cert, problem = classify_lp(raw)
                        if problem:
                            sys.exit(f"error: {bundle} {operator_name} {sign}: {problem}")
                        bound = None
                        if cls == CERTIFIED:
                            problem = recheck_certificate(
                                operator_name, bundle, cert.bound,
                                dict(cert.multipliers), dict(cert.residuals),
                            )
                            if problem:
                                sys.exit(f"error: {bundle} {operator_name} {sign}: {problem}")
                            bound = qkbw.format_rational(cert.bound)
                        else:
                            assert cls == NO_CERTIFICATE
                        expected[f"{operator_name} {sign}"] = {"outcome": cls, "bound": bound}
                bundles.append({"n": n, "k": k, "rho": list(entries), "expected": expected})
    about = f"lp-general pool; outcomes made with qkbw {qkbw.__version__} by perfbench/make_expected.py"
    with open(LP_GENERAL_EXPECTED, "w", encoding="utf-8") as fh:
        fh.write('{"about": ' + json.dumps(about) + ',\n "bundles": [\n  ')
        fh.write(",\n  ".join(json.dumps(entry) for entry in bundles))
        fh.write("\n]}\n")
    counts = {}
    for entry in bundles:
        for key, exp in entry["expected"].items():
            tag = (key.split()[0], exp["outcome"])
            counts[tag] = counts.get(tag, 0) + 1
    print(f"wrote {LP_GENERAL_EXPECTED.relative_to(HERE.parent)}: {len(bundles)} bundles")
    for (operator_name, outcome), count in sorted(counts.items()):
        print(f"  {operator_name:<22} {outcome:<15} {count}")


if __name__ == "__main__":
    main()
