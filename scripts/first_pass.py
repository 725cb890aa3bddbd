"""Fresh-process first and second passes of one perfbench workload, parent against change.

    python3 scripts/first_pass.py --parent ../qkbw-parent --change . \\
        --workload algebra --seed 5 --rounds 20

perfbench replays its cases pass after pass in one process, so from the
second pass on every process memo hits; a user's command runs its work once.
This script times that first pass.  Each round starts one fresh process per
side, in bench_pairs.py's order (the parent first in even rounds).  The
process imports qkbw from its checkout's src/ and the workload from its
perfbench/bench_workloads.py, writing no bytecode there, builds the seed's
cases and runs them twice in the order built, timing each pass and checking
its results after it, as perfbench/run.py does.  A gc.callbacks hook counts
the generation-2 (full) collections that start and end inside each timed
pass, and the ms they take.  It prints one JSON line: the two pass times in
ms, each pass's full collections and their ms, the number of failed cases
and the outcome digest (sha256 of the sorted outcome lines, as
perfbench/run.py hashes them).

After the rounds, one more fresh process per side runs the same two passes
with qkbw.simplex._pivot wrapped in a counter, and reports the pivots each
pass makes: a count of work that does not move with the host's load, so a
change of a few percent that the wall times cannot resolve still shows.
The timed processes are never wrapped.

The summary gives, per side and pass, the median and quartiles in ms
(bench_pairs.py's statistics) and the medians of the full collections and
their ms, so a first-pass difference that one moved collection makes shows
apart from one the code makes; the pivots of each pass; then the number of
rounds in which the change's first pass was faster, and the digest, which
must be one and the same on both sides and in every process, counted or
not.  A round with failed cases, or a second digest, stops the script with
an error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, _stats, collect  # noqa: E402

PASSES = ("first_ms", "second_ms")
# Per pass, the generation-2 collections inside it and their total ms.
COLLECTIONS = ("first_gc2", "first_gc2_ms", "second_gc2", "second_gc2_ms")

# The pivots of each pass, from the process that counts them.
PIVOTS = ("first_pivots", "second_pivots")

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
print(json.dumps({**result, "failed": failed, "digest": hashlib.sha256(text.encode()).hexdigest()}))
"""


def run_side(checkout, workload, seed, count_pivots=False):
    """The JSON line of one fresh CHILD process in checkout, which counts the
    pivots of each pass when count_pivots is set; RuntimeError when a case
    failed."""
    command = [sys.executable, "-c", CHILD, workload, str(seed), *["pivots"] * count_pivots]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"wrong run in {checkout}: {workload} seed {seed}: {json.dumps(result)}")
    return result


def summarise(runs, counts):
    """Per side and pass, the median and quartiles over the rounds; the pivots
    of each pass in counts, one counting run per side; the rounds in which
    the change's first pass was faster; and the one outcome digest.
    RuntimeError when the runs and the counting runs give more than one
    digest."""
    digests = {entry["result"]["digest"] for entry in runs} | {c["digest"] for c in counts.values()}
    if len(digests) != 1:
        raise RuntimeError(f"the outcome digests differ: {sorted(digests)}")
    by_round = {}
    for entry in runs:
        by_round.setdefault(entry["pair"], {})[entry["side"]] = entry["result"]
    rounds = list(by_round.values())
    summary = {
        side: {p: dict(zip(("median", "quartiles"), _stats([r[side][p] for r in rounds]))) for p in PASSES}
        for side in SIDES
    }
    for side in SIDES:
        summary[side]["gc2_medians"] = {
            c: round(statistics.median(r[side][c] for r in rounds), 4) for c in COLLECTIONS
        }
        summary[side]["pivots"] = {p: counts[side][p] for p in PIVOTS}
    summary["change_faster_first"] = sum(r["change"]["first_ms"] < r["parent"]["first_ms"] for r in rounds)
    summary["rounds"] = len(rounds)
    summary["digest"] = digests.pop()
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, the fewest that give quartiles")
    checkouts = {"parent": args.parent, "change": args.change}

    def run(side):
        result = run_side(checkouts[side], args.workload, args.seed)
        print(f"{side}: {json.dumps(result)}", file=sys.stderr)
        return result

    runs = collect(args.rounds, run)
    counts = {side: run_side(checkouts[side], args.workload, args.seed, count_pivots=True) for side in SIDES}
    summary = summarise(runs, counts)
    for side in SIDES:
        for p in PASSES:
            s = summary[side][p]
            print(f"{args.workload} {side:<6} {p:<9} median {s['median']} quartiles {s['quartiles']}")
        c = summary[side]["gc2_medians"]
        print(
            f"{args.workload} {side:<6} full collections (medians): first pass {c['first_gc2']}"
            f" ({c['first_gc2_ms']} ms), second pass {c['second_gc2']} ({c['second_gc2_ms']} ms)"
        )
        p = summary[side]["pivots"]
        print(
            f"{args.workload} {side:<6} pivots (counted run): first pass {p['first_pivots']},"
            f" second pass {p['second_pivots']}"
        )
        print(f"{args.workload} {side:<6} digest {summary['digest']}")
    print(f"change first pass faster in {summary['change_faster_first']}/{summary['rounds']} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
