"""Run every workload over several seeds and print (optionally save) the result.

    python3 perfbench/baseline.py                      # seeds 1..10, all workloads
    python3 perfbench/baseline.py --seeds 1-5 --workloads lp-grid,cli-cold
    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is `perfbench/run.py` in its own process, one at a time, with the
run length from BENCHMARK.json.  For every end-to-end metric the table shows
the median over the seeds and the spread: the distance between the first and
third quartile as a share of the median (statistics.quantiles, n=4), next to
the metric's bound.  One traced run per workload (the first seed) gives the
per-layer numbers, which are printed for the layers that carry the time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(argv[1:])}\n{proc.stderr[-2000:]}")
    digest = next(line.split()[1] for line in lines if line.startswith("  digest "))
    return {**json.loads(lines[-1]), "digest": digest}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range like 1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path, default=None, help="write all runs and summaries here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    all_ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **result})
            all_ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "unit": m["unit"],
                             "spread": spread(values) if len(values) >= 2 else None,
                             "bound": m["bound"]}
        entry = {"runs": runs, "summary": summary}
        if not args.no_trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            all_ok &= traced["correct"]
            entry["traced"] = {"seed": seeds[0], **traced}
        report["workloads"][workload] = entry

    print()
    print(f"{'workload':<11} {'metric':<13} {'median':>11} {'unit':<5} {'spread':>7} {'bound':>6}")
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            sp = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            flag = "" if s["spread"] is None or s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:<11} {name:<13} {s['median']:>11.5g} {s['unit']:<5} {sp:>7} {s['bound']:>6}{flag}")
        failed = sum(r["failed"] for r in entry["runs"])
        attempted = sum(r["attempted"] for r in entry["runs"])
        print(f"{workload:<11} {'failed_ratio':<13} {failed / attempted:>11.5g} {'':<5} "
              f"({failed} of {attempted} cases)")
        digests = {r["digest"] for r in entry["runs"]}
        print(f"{workload:<11} {len(digests)} distinct outcome digest(s) over {len(entry['runs'])} seeds")
        if "traced" in entry:
            layer = entry["traced"]["metrics"]
            top = sorted((v["value"], k) for k, v in layer.items()
                         if k.endswith("self_ms") and not k.startswith("cli.import."))[-4:]
            print(f"{workload:<11} traced: correct={entry['traced']['correct']} "
                  f"overhead={layer['trace.overhead_ratio']['value']:.3f} top self ms: "
                  + ", ".join(f"{k}={v:.0f}" for v, k in reversed(top)))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
