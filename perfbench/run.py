"""Benchmark runner for qkbw: one workload, one seed, one run.

    python3 perfbench/run.py --workload lp-grid --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout; it imports qkbw from ``src/`` there and
refuses to run without it.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  times whole passes over the seed's cases until --seconds of pass
           wall time have passed and at least 100 cases ran, checks every
           result, and reports the end-to-end metrics of BENCHMARK.json.
           Case times are scaled by the workload's speed reference, timed
           between cases (see bench_workloads.SpeedReference).
--trace 1  runs one untraced pass in a fresh child process, then the same
           pass here with every layer wrapped in spans, plus the CLI probes,
           and reports the per-layer metrics of BENCHMARK.json.  The two
           passes must produce the same outcome digest.

Workloads, metrics and the layer table are described in perfbench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

MIN_CASES = 100  # so that at least ten cases lie beyond the 90th percentile
SETUP_ROUNDS = 11  # fresh set-up processes per run; setup_s is their median
CLI_ROUNDS = 5  # rounds of CLI-layer probes per traced run


def prepare_source():
    """Import qkbw from this checkout's src/, never from elsewhere, with no Weyl file cache."""
    if not (SRC / "qkbw" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qkbw'} not found; run from the root of a qkbw checkout")
    os.environ.pop("QKBW_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def pass_order(cases, workload_name, seed, index):
    """Pass 0 is the cases as built; later passes reshuffle them with the seed."""
    if index == 0:
        return cases
    order = list(cases)
    random.Random(f"{workload_name}:{seed}:pass:{index}").shuffle(order)
    return order


def run_pass(workload, cases, tracer=None):
    """Run every case once, timing the workload's speed reference between cases.

    Returns (pass wall s, per-case ms, per-case scale, raw results); scaled
    times are case ms times scale.
    """
    clock = time.perf_counter
    speed = workload.speed
    case_ms, refs, raws = [], [], []
    start = clock()
    refs.append(speed.measure())
    for i, case in enumerate(cases):
        t0 = clock()
        try:
            if tracer is not None:
                raw = tracer.run_case(i, workload.run, case, True)
            else:
                raw = workload.run(case)
        except Exception as exc:  # counted as a failed case by the check
            raw = exc
        case_ms.append((clock() - t0) * 1000)
        raws.append(raw)
        refs.append(speed.measure())
    return clock() - start, case_ms, scale_factors(speed.nominal_ms, refs), raws


def scale_factors(nominal_ms, refs):
    """Scale of item i, timed between refs[i] and refs[i + 1]: nominal over the
    median of the four reference timings nearest to it."""
    return [nominal_ms / statistics.median(refs[max(0, i - 1):i + 3]) for i in range(len(refs) - 1)]


class Tally:
    """Case times and checked outcomes accumulated over the passes of a run."""

    def __init__(self):
        self.case_ms = []
        self.scaled_ms = []
        self.wall_s = 0.0
        self.passes = 0
        self.failed = 0
        self.outcomes = set()
        self.problems = []
        self.cert_bits = 0

    def add(self, workload, cases, wall_s, case_ms, scales, raws):
        self.wall_s += wall_s
        self.case_ms += case_ms
        self.scaled_ms += [ms * f for ms, f in zip(case_ms, scales)]
        self.passes += 1
        for case, raw in zip(cases, raws):
            checked = workload.check(case, raw)
            self.outcomes.add(checked.outcome)
            self.cert_bits = max(self.cert_bits, checked.cert_bits)
            if not checked.ok:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{case.ident}: {checked.problem}")

    @property
    def attempted(self):
        return len(self.case_ms)

    def digest(self):
        text = "\n".join(sorted(self.outcomes)) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()


def measure(workload, cases, seed, seconds):
    """Whole passes until `seconds` of pass wall time and MIN_CASES cases.

    Checks run between passes, outside the timed wall.
    """
    tally = Tally()
    while True:
        order = pass_order(cases, workload.name, seed, tally.passes)
        tally.add(workload, order, *run_pass(workload, order))  # keeps no raw result past its pass
        if tally.wall_s >= seconds and tally.attempted >= MIN_CASES:
            return tally


def setup_seconds(workload_name, seed, env, speed):
    """Median scaled time from starting a fresh run process to its first case being ready.

    Each set-up probe is scaled like a case, by the process speed reference
    timed around it.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times, refs = [], [speed.measure()]
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append((time.perf_counter() - start) * 1000)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        refs.append(speed.measure())
    scales = scale_factors(speed.nominal_ms, refs)
    return statistics.median(ms * f for ms, f in zip(times, scales)) / 1000


def timing_metrics(tally):
    """Case-time metrics over scaled times, the count beyond p90, and the unscaled figures."""
    scaled, raw = tally.scaled_ms, tally.case_ms
    p90 = statistics.quantiles(scaled, n=10)[8]
    values = {
        "cases_per_s": tally.attempted / (sum(scaled) / 1000),
        "case_ms_p50": statistics.median(scaled),
        "case_ms_p90": p90,
    }
    unscaled = {
        "cases_per_s": tally.attempted / (sum(raw) / 1000),
        "case_ms_p50": statistics.median(raw),
        "case_ms_p90": statistics.quantiles(raw, n=10)[8],
        "median_scale": statistics.median(s / r for s, r in zip(scaled, raw)),
    }
    return values, sum(1 for x in scaled if x > p90), unscaled


def peak_rss_mb(workload_name):
    """Peak RSS of the process that ran the cases; for cli-cold, the largest child so far."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def spec_metrics(kind, values):
    """The metrics BENCHMARK.json lists under `kind`, with units; and the names not measured."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)[kind]
    chosen = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in spec if m["name"] in values}
    missing = [m["name"] for m in spec if m["name"] not in values]
    return chosen, missing


def reference_pass(workload_name, seed, env):
    """One untraced pass of the same cases in a fresh process; returns its record."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload_name, "--seed", str(seed),
            "--seconds", "0", "--trace", "0", "--reference"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            return json.loads(line[len("record: "):])
    raise RuntimeError(f"reference pass failed (exit {proc.returncode}): {proc.stderr[-500:]}")


def untraced(args, workload, cases, env_before):
    from bench_workloads import CHILD_ENV, PROCESS_SPEED

    tally = measure(workload, cases, args.seed, args.seconds)
    record = {"digest": tally.digest(), "scaled_s": sum(tally.scaled_ms) / 1000,
              "attempted": tally.attempted, "failed": tally.failed, "passes": tally.passes}
    if args.reference:
        print("record: " + json.dumps(record))
        return tally, {}, record
    values, beyond, unscaled = timing_metrics(tally)
    values["peak_rss_mb"] = peak_rss_mb(workload.name)  # before the set-up probes add children
    values["setup_s"] = setup_seconds(workload.name, args.seed, CHILD_ENV, PROCESS_SPEED)
    values["failed_ratio"] = tally.failed / tally.attempted
    record.update(p90_samples=tally.attempted, p90_beyond=beyond, unscaled=unscaled,
                  speed_reference=workload.speed.name, env_before=env_before)
    return tally, values, record


def traced(args, workload, cases, env_before):
    from bench_trace import Tracer, cli_layer
    from bench_workloads import CHILD_ENV, check_cli_output, cli_bound_argv, cli_probe_case

    reference = reference_pass(workload.name, args.seed, CHILD_ENV)
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    wall_s, case_ms, scales, raws = run_pass(workload, cases, tracer)
    tally.add(workload, cases, wall_s, case_ms, scales, raws)
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.tsv.gz"
    tracer.write_spans(spans_path)

    probe = cli_probe_case()
    cli_values, cli_problems = cli_layer(
        CHILD_ENV, ROOT, cli_bound_argv(probe),
        lambda code, stdout: check_cli_output(probe, code, stdout).problem, CLI_ROUNDS)
    tally.problems += cli_problems
    values = tracer.metrics(scales)
    values.update(cli_values)
    values["bounds.cert_bits_max"] = tally.cert_bits
    scaled_s = sum(tally.scaled_ms) / 1000
    values["trace.overhead_ratio"] = scaled_s / reference["scaled_s"]
    record = {"digest": tally.digest(), "reference": reference, "scaled_s": scaled_s,
              "attempted": tally.attempted, "failed": tally.failed,
              "missing_wrap_targets": tracer.missing, "spans_file": str(spans_path.relative_to(ROOT)),
              "spans": len(tracer.spans), "layers": tracer.summary(), "env_before": env_before}
    if record["digest"] != reference["digest"]:
        tally.problems.append("traced and untraced passes gave different outcome digests")
    return tally, values, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prepare_source()
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cases = workload.build(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - STARTED
    env_before = environment()

    run = traced if args.trace else untraced
    tally, values, record = run(args, workload, cases, env_before)
    if args.reference:
        return 0
    record.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  own_setup_s=own_setup_s, env_after=environment(), problems=tally.problems)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics, missing = spec_metrics(kind, values)
    record.update(metrics=values, missing_metrics=missing)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print_summary(workload, args, tally, values, record, metrics, missing)
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def print_summary(workload, args, tally, values, record, metrics, missing):
    env_b, env_a = record["env_before"], record["env_after"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {tally.passes}  cases {tally.attempted}  failed {tally.failed}")
    print(f"python {env_b['python']}  nproc {env_b['nproc']}  "
          f"loadavg before {env_b['loadavg']}  after {env_a['loadavg']}")
    if args.trace == 0:
        print(f"  failed_ratio      {values['failed_ratio']} fraction ({tally.failed}/{tally.attempted})")
    for name, m in metrics.items():
        extra = ""
        if name == "case_ms_p90":
            extra = f"  ({record['p90_samples']} samples, {record['p90_beyond']} beyond)"
        if name == "setup_s":
            extra = f"  (median of {SETUP_ROUNDS} set-ups)"
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{extra}")
    for name in missing:
        print(f"  {name:<40} MISSING (not measured: renamed or removed?)")
    if args.trace:
        for name in record["missing_wrap_targets"]:
            print(f"  wrap target {name} MISSING")
        print(f"  reference digest {record['reference']['digest']}")
    print(f"  digest {record['digest']}")
    for problem in tally.problems:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
