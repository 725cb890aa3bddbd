"""Alternating parent/change pairs of perfbench/run.py, summarised as one BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../qkbw-parent --change . \\
        --workload lp-grid:10 --workload algebra --seed 5 --pairs 5 \\
        --label summand_table --claim "cases_per_s rises" \\
        --parent-commit e76b550 --traced

Each side runs the recorded command, perfbench/run.py with --seconds 8 and
--trace 0, in a fresh process from its own checkout.  Pair i runs the parent
first when i is even and the change first when i is odd.  --workload may be
given more than once; the workloads run one after another, and each gets its
own section under "workloads".  A workload written NAME:PAIRS runs PAIRS
pairs; one written NAME alone runs --pairs pairs.  With --traced, three
--trace 1 runs per side follow the pairs of each workload, in the same
alternating order, as one traced run per side can move a layer's self_ms by
10-20% from noise alone.  Every entry under "runs" and "traced" is the last
line of run.py's standard output, parsed and otherwise unmodified.

A section's "summary" block gives, for each end-to-end metric of
BENCHMARK.json, the median and the quartiles of each side
(statistics.quantiles with n=4, the default exclusive method), rounded to four
decimals, and the number of pairs in which the change was better.  With
--traced, its "traced_summary" block gives, for each per-layer metric of
BENCHMARK.json that every traced run reports, the median and the min-max of
each side, rounded alike.  The file
goes to the current directory, or to --out.  A run that reports "correct"
false or failed cases stops the script with an error, and no file is written.
(Files written before --workload could repeat hold one workload's command,
summary and runs at the top level.)  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
SECONDS = 8
TRACED_RUNS = 3


def run_command(workload, seed, trace):
    return [
        "python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]


def run_side(checkout, command):
    """The parsed last line of one run.py process started in checkout.

    run.py exits 0 even when cases fail, so a line with "correct" false or
    "failed" above 0 raises RuntimeError, before any file is written."""
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"wrong run in {checkout}: {' '.join(command)}: {json.dumps(result)}")
    return result


def workload_pairs(spec, default):
    """(name, pairs) of a --workload NAME:PAIRS, or (name, default) of a NAME
    alone.  ValueError unless the pairs are an integer of at least 2, the
    fewest that give quartiles."""
    name, colon, count = spec.partition(":")
    pairs = (int(count) if count.isdigit() else None) if colon else default
    if not name or pairs is None or pairs < 2:
        raise ValueError(f"--workload {spec!r}: give a name and at least 2 pairs, NAME:PAIRS or --pairs")
    return name, pairs


def pair_order(pair):
    """The sides of one pair in the order they run: the parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def collect(pairs, run):
    """run(side) for each side of each pair, in pair_order, as run entries."""
    runs = []
    for pair in range(pairs):
        order = pair_order(pair)
        for side in order:
            runs.append({"pair": pair, "side": side, "first": order[0], "result": run(side)})
    return runs


def _stats(values):
    quartiles = statistics.quantiles(values, n=4)
    return round(statistics.median(values), 4), [round(quartiles[0], 4), round(quartiles[2], 4)]


def summarise(runs, end_to_end):
    """Per metric of end_to_end (BENCHMARK.json's list): medians, quartiles and
    the number of pairs in which the change was better."""
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        by_pair = {}
        for entry in runs:
            value = entry["result"]["metrics"][name]["value"]
            by_pair.setdefault(entry["pair"], {})[entry["side"]] = value
        parent = [sides["parent"] for sides in by_pair.values()]
        change = [sides["change"] for sides in by_pair.values()]
        lower = metric["better"] == "lower"
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        parent_median, parent_quartiles = _stats(parent)
        change_median, change_quartiles = _stats(change)
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": parent_median,
            "parent_quartiles": parent_quartiles,
            "change_median": change_median,
            "change_quartiles": change_quartiles,
            "change_better_pairs": better,
            "pairs": len(by_pair),
        }
    return summary


def traced_summary(traced, per_layer):
    """Per metric of per_layer (BENCHMARK.json's list) that every traced run
    reports: the median and the [min, max] of each side."""
    summary = {}
    for metric in per_layer:
        name = metric["name"]
        if not all(name in entry["result"]["metrics"] for entry in traced):
            continue
        row = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            values = [e["result"]["metrics"][name]["value"] for e in traced if e["side"] == side]
            row[f"{side}_median"] = round(statistics.median(values), 4)
            row[f"{side}_range"] = [round(min(values), 4), round(max(values), 4)]
        row["runs"] = len(traced) // len(SIDES)
        summary[name] = row
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument(
        "--workload", required=True, action="append",
        help="NAME or NAME:PAIRS; repeat for more workloads",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, help="pairs of each workload given without :PAIRS")
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--machine", default=f"{platform.system()}, Python {platform.python_version()}")
    parser.add_argument("--traced", action="store_true", help=f"add {TRACED_RUNS} --trace 1 runs per side")
    parser.add_argument("--out", help="output file (default BENCH_<label>.json)")
    args = parser.parse_args(argv)
    try:
        workloads = [workload_pairs(spec, args.pairs) for spec in args.workload]
    except ValueError as exc:
        parser.error(str(exc))
    checkouts = {"parent": args.parent, "change": args.change}
    spec = json.loads(SPEC.read_text())
    end_to_end = spec["end_to_end"]

    def run(side, command):
        result = run_side(checkouts[side], command)
        print(f"{side}: {json.dumps(result)}", file=sys.stderr)
        return result

    record = {
        "label": args.label,
        "claim": args.claim,
        "parent_commit": args.parent_commit,
        "method": (
            "each side runs from its own checkout; pairs alternate which side runs first"
            " (even pairs parent first), and traced runs alternate alike; every entry under runs"
            " and traced is the unmodified last line of perfbench/run.py"
        ),
        "machine": args.machine,
        "workloads": {},
    }
    for workload, pairs in workloads:
        command = run_command(workload, args.seed, 0)
        traced_command = run_command(workload, args.seed, 1)
        runs = collect(pairs, lambda side: run(side, command))
        section = {"command": " ".join(command)}
        if args.traced:
            section["traced_command"] = " ".join(traced_command)
        section["summary"] = summarise(runs, end_to_end)
        section["runs"] = runs
        if args.traced:
            traced = collect(TRACED_RUNS, lambda side: run(side, traced_command))
            section["traced_summary"] = traced_summary(traced, spec["per_layer"])
            section["traced"] = traced
        record["workloads"][workload] = section
    out = Path(args.out or f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, section in record["workloads"].items():
        for name, s in section["summary"].items():
            print(
                f"{workload:<10} {name:<12} parent {s['parent_median']} {s['parent_quartiles']}"
                f"  change {s['change_median']} {s['change_quartiles']}"
                f"  better in {s['change_better_pairs']}/{s['pairs']} pairs"
            )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
