"""Parent against change in alternating fresh processes: perfbench pairs, first passes or CLI processes.

    python3 scripts/ab.py pairs --parent ../qkbw-parent --change . \\
        --workload lp-grid:10 --workload algebra --seed 5 --rounds 5 \\
        --label summand_table --claim "cases_per_s rises" \\
        --parent-commit e76b550 --traced
    python3 scripts/ab.py passes --parent ../qkbw-parent --change . \\
        --workload lp-general --workload lp-grid --seed 21 --rounds 20
    python3 scripts/ab.py process --parent ../qkbw-parent --change . \\
        --rounds 10 --out PROCESS_label.json

Each mode runs its sections one after another: the perfbench workloads given
by --workload (a workload written NAME:PAIRS runs PAIRS pairs, one written
NAME alone --rounds pairs), or the three qkbw commands of COMMANDS.  In each
pair both sides run the section's command once, each in a fresh process
started in its own checkout, the parent first in even pairs and the change
first in odd ones.

pairs    perfbench/run.py with --seconds 8 and --trace 0.  Each result is the
         last line of run.py's standard output, parsed and otherwise
         unmodified.  With --traced, three --trace 1 runs per side follow the
         pairs of each workload, in the same order, as one traced run per
         side can move a layer's self_ms by 10-20% from noise alone.
passes   perfbench replays its cases pass after pass in one process, so from
         the second pass on every process memo hits; a user's command runs
         its work once.  The child CHILD imports qkbw from its checkout's src/
         and the workload from perfbench/bench_workloads.py, writing no
         bytecode there, builds the seed's cases and runs them twice, timing
         each pass and checking its results after it, as perfbench/run.py
         does.  A gc.callbacks hook counts the generation-2 (full)
         collections inside each timed pass and their ms, so a first-pass
         difference that one moved collection makes shows apart from one the
         code makes.  After the pairs, one traced process per side runs the
         same passes with qkbw.simplex._pivot wrapped in a counter: a count
         of work that does not move with the host's load.  The timed
         processes are never wrapped.
process  `python -m qkbw.cli ...` with PYTHONPATH=src, timed from start to
         exit, since a user's command starts the interpreter, imports and
         fills every memo each time.  The result is that wall time and the
         sha256 of the process's standard output.  Compiling src/qkbw is a
         large share of a cold process, so the script also says whether each
         checkout held compiled qkbw modules after the runs.

A child that exits nonzero stops the script with an error that names its
checkout, its command, its exit code and the tail of its standard error.  So
does a child that reports "correct" false or failed cases, and a section
whose children give a second outcome digest (passes: the sha256 of the
sorted outcome lines, as perfbench/run.py hashes them; process: the stdout
digest).  No file is written then.

Each section's "summary" gives, for each metric (pairs: the end-to-end
metrics of BENCHMARK.json), the median and the quartiles of each side
(statistics.quantiles with n=4, the default exclusive method), rounded to
four decimals, and the number of pairs in which the change was better.  Its
"traced_summary" gives, for each traced metric (pairs: the per-layer metrics
of BENCHMARK.json) that every traced run reports, the median and the min-max
of each side, rounded alike.  The record holds the label, claim and parent
commit where the mode takes them, the method, the machine, and one section
per workload or command under "workloads".  pairs writes it to
BENCH_<label>.json, or to --out; process writes it to --out when given.
(Files written before --workload could repeat hold one workload's command,
summary and runs at the top level.)  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
SECONDS = 8
TRACED_RUNS = {"pairs": 3, "passes": 1}


def lower_is_better(unit, *names):
    return [{"name": name, "unit": unit, "better": "lower"} for name in names]


# The metrics and traced metrics of the passes and process modes; pairs reads
# BENCHMARK.json's.
METRICS = {
    "passes": (
        lower_is_better("ms", "first_ms", "second_ms", "first_gc2_ms", "second_gc2_ms")
        + lower_is_better("count", "first_gc2", "second_gc2"),
        lower_is_better("count", "first_pivots", "second_pivots"),
    ),
    "process": (lower_is_better("ms", "ms"), None),
}

# The process numbers of the north star: the sweep, the quick self-test and
# one bound.
COMMANDS = {
    "sweep": ("sweep", "--n", "2..5", "--kappa-sign", "both"),
    "selftest-quick": ("selftest", "--quick"),
    "bound": ("bound", "--n", "3", "--k", "2", "--a", "2", "--b", "1", "--kappa-sign", "+", "--format", "json"),
}

METHOD = (
    "each side runs from its own checkout; pairs alternate which side runs first"
    " (even pairs parent first), and traced runs alternate alike; every entry under runs"
    " and traced is "
)
RESULTS = {
    "pairs": "the unmodified last line of perfbench/run.py",
    "passes": "the last line of one fresh first-and-second-pass process (scripts/ab.py CHILD)",
    "process": "the wall time and stdout digest of one fresh python -m qkbw.cli process",
}

# Run with the checkout as working directory: python -c CHILD WORKLOAD SEED,
# with a third argument "pivots" to count the _pivot calls of each pass.
CHILD = r"""
import gc, hashlib, json, sys, time
sys.dont_write_bytecode = True
sys.path[:0] = ["src", "perfbench"]
from bench_workloads import WORKLOADS

pivots = None
if sys.argv[3:] == ["pivots"]:
    import qkbw.simplex

    pivot, pivots = qkbw.simplex._pivot, [0]

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    qkbw.simplex._pivot = counted
workload = WORKLOADS[sys.argv[1]]
cases = workload.build(int(sys.argv[2]))
full = []  # ms of each generation-2 collection while a pass runs
started = None


def on_gc(phase, info):
    global started
    if info["generation"] == 2 and full is not None:
        if phase == "start":
            started = time.perf_counter()
        elif started is not None:
            full.append((time.perf_counter() - started) * 1000)
            started = None


def run(case):
    try:
        return workload.run(case)
    except Exception as exc:  # counted as a failed case by the check
        return exc


gc.callbacks.append(on_gc)
result, outcomes, failed = {}, set(), 0
for name in ("first", "second"):
    full, started = [], None
    if pivots:
        pivots[0] = 0
    start = time.perf_counter()
    raws = [run(case) for case in cases]
    result[name + "_ms"] = (time.perf_counter() - start) * 1000
    if pivots:
        result[name + "_pivots"] = pivots[0]
    result[name + "_gc2"], result[name + "_gc2_ms"], full = len(full), sum(full), None
    for case, raw in zip(cases, raws):  # checked outside the timed pass, and not kept past it
        checked = workload.check(case, raw)
        outcomes.add(checked.outcome)
        failed += not checked.ok
    del raws
text = "\n".join(sorted(outcomes)) + "\n"
metrics = {name: {"value": value} for name, value in result.items()}
print(json.dumps({"metrics": metrics, "failed": failed, "digest": hashlib.sha256(text.encode()).hexdigest()}))
"""


def run_command(workload, seed, trace):
    return [
        "python", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]


def run_child(checkout, command, digests, cli=False):
    """One fresh child of command in checkout: the parsed last line of its
    standard output, or with cli, {"metrics": {"ms": its wall time}, "digest":
    the sha256 of its standard output}, run with PYTHONPATH=src.

    RuntimeError when the child exits nonzero, reports "correct" false or
    failed cases, or adds a second digest to the set digests, which holds
    those of the section's children so far.  The words python and CHILD in
    command stand for this interpreter and the CHILD source."""
    shown = " ".join(command)
    env = dict(os.environ, PYTHONPATH="src") if cli else None
    start = time.perf_counter()
    argv = [{"python": sys.executable, "CHILD": CHILD}.get(part, part) for part in command]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True)
    ms = (time.perf_counter() - start) * 1000
    if done.returncode:
        tail = "\n".join(done.stderr.decode(errors="replace").strip().splitlines()[-10:])
        raise RuntimeError(f"{shown} in {checkout} exited {done.returncode}:\n{tail}")
    if cli:
        result = {"metrics": {"ms": {"value": ms}}, "digest": hashlib.sha256(done.stdout).hexdigest()}
    else:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    if result.get("correct") is False or result.get("failed"):
        raise RuntimeError(f"wrong run in {checkout}: {shown}: {json.dumps(result)}")
    digests.add(result.get("digest"))
    if len(digests) > 1:
        raise RuntimeError(f"the outcome digests of {shown} differ: {sorted(digests)}")
    return result


def workload_pairs(spec, default):
    """(name, pairs) of a --workload NAME:PAIRS, or (name, default) of a NAME
    alone.  ValueError unless the pairs are an integer of at least 2, the
    fewest that give quartiles."""
    name, colon, count = spec.partition(":")
    pairs = (int(count) if count.isdigit() else None) if colon else default
    if not name or pairs is None or pairs < 2:
        raise ValueError(f"--workload {spec!r}: give a name and at least 2 pairs, NAME:PAIRS or --rounds")
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


def summarise(runs, metrics):
    """Per metric of metrics (a list of BENCHMARK.json's shape): medians,
    quartiles and the number of pairs in which the change was better."""
    summary = {}
    for metric in metrics:
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


def traced_summary(traced, metrics):
    """Per metric of metrics that every traced run reports: the median and
    the [min, max] of each side."""
    summary = {}
    for metric in metrics:
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


def mode_metrics(mode):
    """The metrics and traced metrics of mode."""
    if mode == "pairs":
        spec = json.loads(SPEC.read_text())
        return spec["end_to_end"], spec["per_layer"]
    return METRICS[mode]


def sections(args):
    """(name, pairs, command, traced command or None) of each section of args'
    mode; ValueError when a section would run fewer than 2 pairs."""
    if args.mode == "process":
        if args.rounds < 2:
            raise ValueError("--rounds must be at least 2, the fewest that give quartiles")
        return [(name, args.rounds, ["python", "-m", "qkbw.cli", *argv], None) for name, argv in COMMANDS.items()]
    plan = []
    for name, pairs in (workload_pairs(spec, args.rounds) for spec in args.workload):
        if args.mode == "pairs":
            plan.append((name, pairs, run_command(name, args.seed, 0),
                         run_command(name, args.seed, 1) if args.traced else None))
        else:
            command = ["python", "-c", "CHILD", name, str(args.seed)]
            plan.append((name, pairs, command, [*command, "pivots"]))
    return plan


def measure(args):
    """The record of args' mode: every section's runs, traced runs and summaries."""
    checkouts = {"parent": args.parent, "change": args.change}
    metrics, traced_metrics = mode_metrics(args.mode)
    bytecode = "PYTHONDONTWRITEBYTECODE set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "bytecode written"
    record = {key: value for key, value in vars(args).items() if key in ("label", "claim", "parent_commit")}
    record["method"] = METHOD + RESULTS[args.mode]
    record["machine"] = (
        f"{platform.system()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, {bytecode}"
    )
    record["workloads"] = {}
    for name, pairs, command, traced_command in sections(args):
        digests = set()

        def run(side, command):
            result = run_child(checkouts[side], command, digests, args.mode == "process")
            print(f"{side}: {json.dumps(result)}", file=sys.stderr)
            return result

        runs = collect(pairs, lambda side: run(side, command))
        section = {"command": " ".join(command)}
        if traced_command:
            section["traced_command"] = " ".join(traced_command)
        section["summary"] = summarise(runs, metrics)
        section["runs"] = runs
        if traced_command:
            traced = collect(TRACED_RUNS[args.mode], lambda side: run(side, traced_command))
            section["traced_summary"] = traced_summary(traced, traced_metrics)
            section["traced"] = traced
        record["workloads"][name] = section
    return record


def report(record):
    """One line per metric and section, then the section's digest if its runs have one."""
    for name, section in record["workloads"].items():
        for metric, s in section["summary"].items():
            print(
                f"{name:<14} {metric:<13} parent {s['parent_median']} {s['parent_quartiles']}"
                f"  change {s['change_median']} {s['change_quartiles']}"
                f"  better in {s['change_better_pairs']}/{s['pairs']} pairs"
            )
        for metric, s in section.get("traced_summary", {}).items():
            print(
                f"{name:<14} {metric:<13} traced: parent {s['parent_median']} {s['parent_range']}"
                f"  change {s['change_median']} {s['change_range']}  ({s['runs']} per side)"
            )
        digest = section["runs"][0]["result"].get("digest")
        if digest:
            print(f"{name:<14} digest {digest}")


def parser():
    top = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = top.add_subparsers(dest="mode", required=True)
    for mode, rounds in (("pairs", None), ("passes", 20), ("process", 10)):
        sub = modes.add_parser(mode, help=f"see the {mode} paragraph of the module docstring")
        sub.add_argument("--parent", required=True, help="checkout of the parent commit")
        sub.add_argument("--change", required=True, help="checkout of the change")
        sub.add_argument("--rounds", type=int, default=rounds,
                         help="pairs of each section (of each --workload given without :PAIRS)")
        if mode != "process":
            sub.add_argument("--workload", required=True, action="append",
                             help="NAME or NAME:PAIRS; repeat for more workloads")
            sub.add_argument("--seed", type=int, required=True)
    pairs = modes.choices["pairs"]
    pairs.add_argument("--label", required=True)
    pairs.add_argument("--claim", required=True)
    pairs.add_argument("--parent-commit", required=True)
    pairs.add_argument("--traced", action="store_true", help=f"add {TRACED_RUNS['pairs']} --trace 1 runs per side")
    pairs.add_argument("--out", help="output file (default BENCH_<label>.json)")
    modes.choices["process"].add_argument("--out", help="write the record to this JSON file")
    return top


def main(argv=None):
    top = parser()
    args = top.parse_args(argv)
    try:
        sections(args)
    except ValueError as exc:
        top.error(str(exc))
    record = measure(args)
    report(record)
    if args.mode == "process":
        compiled = {
            side: any((Path(path) / "src" / "qkbw" / "__pycache__").glob("*.pyc"))
            for side, path in (("parent", args.parent), ("change", args.change))
        }
        print(f"{record['machine']}; compiled qkbw modules after the runs: {compiled}")
    out = getattr(args, "out", None) or (args.mode == "pairs" and f"BENCH_{args.label}.json")
    if out:
        Path(out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
