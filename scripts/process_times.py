"""Fresh-process wall times of three qkbw commands, parent against change.

    python3 scripts/process_times.py --parent ../qkbw-parent --change . \\
        --rounds 10 --out PROCESS_label.json

A user runs a command in a process of its own, so every memo starts empty
and the interpreter starts and imports each time.  This script times that.
Each round runs, on each side in bench_pairs.py's order (the parent first in
even rounds), each command of COMMANDS once, as `python -m qkbw.cli ...` in a
fresh process started in the checkout with PYTHONPATH=src.  The time is the
wall time of the whole process, start to exit.  Every run must exit 0, and
each command must print one and the same stdout (compared by sha256) on both
sides in every round.  A run that exits otherwise, or a second digest,
stops the script with an error, and no file is written.

The summary gives, per command and side, the median and quartiles in ms
(bench_pairs.py's statistics), the number of rounds in which the change was
faster, and the command's digest.  It also says whether the processes could
write bytecode (PYTHONDONTWRITEBYTECODE unset) and whether each checkout held
compiled modules of qkbw after the runs, since compiling src/qkbw is a large
share of a cold process.  It prints one line per command and side, and with
--out writes the summary and every run as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, _stats, collect  # noqa: E402

# The process numbers of the north star: the sweep, the quick self-test and
# one bound.
COMMANDS = {
    "sweep": ("sweep", "--n", "2..5", "--kappa-sign", "both"),
    "selftest-quick": ("selftest", "--quick"),
    "bound": ("bound", "--n", "3", "--k", "2", "--a", "2", "--b", "1", "--kappa-sign", "+", "--format", "json"),
}


def run_command(checkout, argv):
    """{"ms", "digest"} of one fresh `python -m qkbw.cli argv` process in
    checkout; RuntimeError unless it exits 0."""
    env = dict(os.environ, PYTHONPATH="src")
    command = [sys.executable, "-m", "qkbw.cli", *argv]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True)
    ms = (time.perf_counter() - start) * 1000
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode} in {checkout}: {' '.join(argv)}: {done.stderr.decode()}")
    return {"ms": ms, "digest": hashlib.sha256(done.stdout).hexdigest()}


def run_side(checkout, commands):
    """One fresh process per command, in order: {name: run_command's result}."""
    return {name: run_command(checkout, argv) for name, argv in commands.items()}


def summarise(runs, names):
    """Per command of names: per side the median and quartiles in ms, the
    rounds in which the change was faster, and the one stdout digest.
    RuntimeError when a command printed more than one stdout."""
    by_round = {}
    for entry in runs:
        by_round.setdefault(entry["pair"], {})[entry["side"]] = entry["result"]
    rounds = list(by_round.values())
    summary = {}
    for name in names:
        digests = {r[side][name]["digest"] for r in rounds for side in SIDES}
        if len(digests) != 1:
            raise RuntimeError(f"the stdout digests of {name} differ: {sorted(digests)}")
        summary[name] = {
            side: dict(zip(("median", "quartiles"), _stats([r[side][name]["ms"] for r in rounds])))
            for side in SIDES
        }
        summary[name]["change_faster"] = sum(r["change"][name]["ms"] < r["parent"][name]["ms"] for r in rounds)
        summary[name]["rounds"] = len(rounds)
        summary[name]["digest"] = digests.pop()
    return summary


def bytecode(checkouts):
    """Whether the processes could write bytecode, and whether each checkout
    holds compiled qkbw modules."""
    return {
        "written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "compiled_modules": {
            side: any((Path(path) / "src" / "qkbw" / "__pycache__").glob("*.pyc"))
            for side, path in checkouts.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", help="write the summary and the runs to this JSON file")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, the fewest that give quartiles")
    checkouts = {"parent": args.parent, "change": args.change}

    def run(side):
        result = run_side(checkouts[side], COMMANDS)
        print(f"{side}: {json.dumps(result)}", file=sys.stderr)
        return result

    runs = collect(args.rounds, run)
    summary = summarise(runs, COMMANDS)
    compiled = bytecode(checkouts)
    for name, s in summary.items():
        for side in SIDES:
            print(f"{name:<14} {side:<6} median {s[side]['median']} ms quartiles {s[side]['quartiles']}")
        print(f"{name:<14} change faster in {s['change_faster']}/{s['rounds']} rounds, stdout {s['digest']}")
    print(
        f"bytecode {'written' if compiled['written'] else 'not written'};"
        f" compiled qkbw modules after the runs: {compiled['compiled_modules']}"
    )
    if args.out:
        record = {
            "commands": {name: "python -m qkbw.cli " + " ".join(argv) for name, argv in COMMANDS.items()},
            "machine": f"{platform.system()}, Python {platform.python_version()}",
            "bytecode": compiled,
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
