"""scripts/ab.py: its summary of each committed BENCH file and of a record of
each mode, the pair order, the per-workload sections and pair counts, the
traced runs, its refusal of a crashed child, a wrong run and a second digest,
real passes children on a stand-in checkout, and one real process section of
`qkbw bound` with this checkout on both sides."""

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_script():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resummarises(script, section, mode):
    """Whether a section's summary, and its traced summary if it has one,
    are what ab.py's summaries of its runs give."""
    metrics, traced_metrics = script.mode_metrics(mode)
    return section["summary"] == script.summarise(section["runs"], metrics) and (
        "traced_summary" not in section
        or section["traced_summary"] == script.traced_summary(section["traced"], traced_metrics)
    )


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_summary_of_the_committed_runs_is_the_committed_summary(path):
    """Each workload section, or the top level of a one-workload file, and
    the traced summary of a file that has one."""
    bench = json.loads(path.read_text())
    sections = list(bench["workloads"].values()) if "workloads" in bench else [bench]
    assert sections
    script = load_script()
    for section in sections:
        assert resummarises(script, section, "pairs")


MODES = {
    "pairs": ["--workload", "lp-grid", "--workload", "algebra:3", "--seed", "1", "--rounds", "2",
              "--label", "x", "--claim", "none", "--parent-commit", "0", "--traced"],
    "passes": ["--workload", "lp-grid:3", "--workload", "lp-general", "--seed", "1", "--rounds", "2"],
    "process": ["--rounds", "3"],
}


@pytest.mark.parametrize("mode", MODES)
def test_a_record_of_each_mode_resummarises_to_its_own_summary(mode, monkeypatch):
    """With a stub child whose every metric moves from call to call, a record
    that has been through JSON has the shape of the committed BENCH files,
    and each section's summaries are those of its runs."""
    script = load_script()
    metrics, traced_metrics = script.mode_metrics(mode)
    names = [m["name"] for m in metrics + (traced_metrics or [])]
    calls = []

    def run_child(checkout, command, digests, cli=False):
        calls.append((checkout, command))
        values = {name: {"value": (len(calls) * 7 + i) % 11} for i, name in enumerate(names)}
        return {"correct": True, "failed": 0, "metrics": values}

    monkeypatch.setattr(script, "run_child", run_child)
    args = script.parser().parse_args([mode, "--parent", "p", "--change", "c", *MODES[mode]])
    record = json.loads(json.dumps(script.measure(args)))
    header = ["label", "claim", "parent_commit"] if mode == "pairs" else []
    assert list(record) == [*header, "method", "machine", "workloads"]
    assert list(record["workloads"]) == [name for name, *_ in script.sections(args)]
    for section in record["workloads"].values():
        assert set(section) <= {"command", "traced_command", "summary", "runs", "traced_summary", "traced"}
        assert ("traced" in section) == ("traced_summary" in section) == (traced_metrics is not None)
        assert resummarises(script, section, mode)
    assert len(calls) == sum(len(s["runs"]) + len(s.get("traced", [])) for s in record["workloads"].values())


def test_pairs_alternate_and_keep_each_result_as_returned():
    script = load_script()
    calls = []

    def run(side):
        calls.append(side)
        return {"side": side, "call": len(calls)}

    runs = script.collect(3, run)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs] == [
        (0, "parent", "parent"),
        (0, "change", "parent"),
        (1, "change", "change"),
        (1, "parent", "change"),
        (2, "parent", "parent"),
        (2, "change", "parent"),
    ]
    assert [r["result"] for r in runs] == [{"side": s, "call": i + 1} for i, s in enumerate(calls)]


def printing(line):
    """A command that prints one JSON line, as perfbench/run.py ends its output."""
    return [sys.executable, "-c", f"print('setup'); print({json.dumps(line)!r})"]


def pairs_argv(tmp_path, *argv):
    return ["pairs", "--parent", str(tmp_path), "--change", str(tmp_path), "--seed", "1", "--label", "x",
            "--claim", "none", "--parent-commit", "0", "--out", str(tmp_path / "BENCH_x.json"), *argv]


WRONG_RUNS = {
    "incorrect": {"correct": False, "attempted": 10, "failed": 0, "metrics": {}},
    "failed-cases": {"correct": True, "attempted": 10, "failed": 2, "metrics": {}},
}


@pytest.mark.parametrize("line", WRONG_RUNS.values(), ids=WRONG_RUNS)
def test_a_wrong_run_raises_and_writes_no_file(line, tmp_path, monkeypatch):
    script = load_script()
    good = {"correct": True, "attempted": 10, "failed": 0, "metrics": {}}
    assert script.run_child(tmp_path, printing(good), set()) == good
    with pytest.raises(RuntimeError, match="wrong run"):
        script.run_child(tmp_path, printing(line), set())
    monkeypatch.setattr(script, "run_command", lambda workload, seed, trace: printing(line))
    with pytest.raises(RuntimeError, match="wrong run"):
        script.main(pairs_argv(tmp_path, "--workload", "lp-grid", "--rounds", "2"))
    assert not (tmp_path / "BENCH_x.json").exists()


@pytest.mark.parametrize("cli", [False, True], ids=["last-line", "stdout"])
def test_digests_that_differ_raise(cli, tmp_path):
    """A digest in the last line (passes) or of the whole stdout (process):
    the first two children agree, the third adds a second digest."""
    script = load_script()
    digests = set()
    for _ in range(2):
        script.run_child(tmp_path, printing({"digest": "d"}), digests, cli)
    with pytest.raises(RuntimeError, match="digests of .* differ"):
        script.run_child(tmp_path, printing({"digest": "e"}), digests, cli)


CRASHES = {
    "pairs": (MODES["pairs"], "python perfbench/run.py --workload lp-grid", 2, "can't open file"),
    "passes": (MODES["passes"], "python -c CHILD lp-grid 1", 1, "No module named 'bench_workloads'"),
    "process": (MODES["process"], "python -m qkbw.cli sweep", 1, "No module named 'qkbw'"),
}


@pytest.mark.parametrize("mode", CRASHES)
def test_a_crashed_child_says_why(mode, tmp_path, monkeypatch):
    """An empty directory as the parent checkout: its first child exits
    nonzero, and the error names the checkout, the short command, the exit
    code and the child's own error, and no file is written."""
    argv, command, code, stderr = CRASHES[mode]
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(RuntimeError) as exc:
        load_script().main([mode, "--parent", str(empty), "--change", str(ROOT), *argv])
    message = str(exc.value)
    assert message.startswith(command) and f" in {empty} exited {code}:\n" in message
    assert stderr in message and "dont_write_bytecode" not in message
    assert list(tmp_path.iterdir()) == [empty]


def constant(value):
    """The result of a stub child that reports every end-to-end metric as value."""
    metrics = {m["name"]: {"value": value} for m in SPEC["end_to_end"]}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


def test_each_workload_gets_its_own_section(tmp_path, monkeypatch):
    script = load_script()
    value = {"lp-grid": 1.0, "algebra": 2.0}
    monkeypatch.setattr(script, "run_child", lambda checkout, command, *_: constant(value[command[3]]))
    script.main(pairs_argv(tmp_path, "--workload", "lp-grid", "--workload", "algebra", "--rounds", "2"))
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert list(bench["workloads"]) == ["lp-grid", "algebra"]
    for workload, section in bench["workloads"].items():
        assert [r["result"] for r in section["runs"]] == [constant(value[workload])] * 4
        assert resummarises(script, section, "pairs")
        assert section["summary"]["cases_per_s"]["parent_median"] == value[workload]


def test_a_workload_may_name_its_own_pair_count(tmp_path, monkeypatch):
    script = load_script()
    commands = []

    def run_child(checkout, command, *_):
        commands.append(command[3])
        return constant(1.0)

    monkeypatch.setattr(script, "run_child", run_child)
    script.main(pairs_argv(tmp_path, "--workload", "lp-grid:3", "--workload", "algebra", "--rounds", "2"))
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert commands == ["lp-grid"] * 6 + ["algebra"] * 4
    assert list(bench["workloads"]) == ["lp-grid", "algebra"]
    for workload, pairs in (("lp-grid", 3), ("algebra", 2)):
        section = bench["workloads"][workload]
        assert len(section["runs"]) == 2 * pairs
        assert {s["pairs"] for s in section["summary"].values()} == {pairs}


SPECS = [
    ("lp-grid:10", None, ("lp-grid", 10)),
    ("lp-grid:4", 2, ("lp-grid", 4)),
    ("algebra", 5, ("algebra", 5)),
]


@pytest.mark.parametrize("spec, default, want", SPECS, ids=[spec for spec, _, _ in SPECS])
def test_workload_pairs_reads_name_and_count(spec, default, want):
    assert load_script().workload_pairs(spec, default) == want


@pytest.mark.parametrize("workload", ["lp-grid", "lp-grid:1", "lp-grid:", "lp-grid:x", ":4", "lp-grid:-3"])
def test_a_workload_without_two_pairs_is_a_usage_error(workload, tmp_path, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "run_child", lambda *args: pytest.fail("no run may start"))
    with pytest.raises(SystemExit) as exc:
        script.main(pairs_argv(tmp_path, "--workload", workload))
    assert exc.value.code == 2
    assert not (tmp_path / "BENCH_x.json").exists()


def test_process_rounds_below_two_is_a_usage_error(monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "run_child", lambda *args: pytest.fail("no run may start"))
    with pytest.raises(SystemExit) as exc:
        script.main(["process", "--parent", ".", "--change", ".", "--rounds", "1"])
    assert exc.value.code == 2


def test_traced_runs_alternate_three_per_side_and_are_summarised(tmp_path, monkeypatch):
    """--traced adds three --trace 1 runs per side after the pairs, in pair
    order, and traced_summary gives each per-layer metric's median and
    min-max per side; a metric that a traced run lacks is left out."""
    script = load_script()
    layer = SPEC["per_layer"][0]["name"]
    calls = []

    def run_child(checkout, command, *_):
        trace = command[command.index("--trace") + 1]
        calls.append((checkout, trace))
        result = constant(1.0)
        if trace == "1":
            # parent runs read 10, 30, 20; change runs read 5, 6, 4
            value = {"parent": [10, 30, 20], "change": [5, 6, 4]}[checkout]
            result["metrics"][layer] = {"value": value[sum(c == (checkout, "1") for c in calls) - 1]}
            if len(calls) < 8:  # the first three traced runs alone report the last metric
                result["metrics"][SPEC["per_layer"][-1]["name"]] = {"value": 0}
        return result

    monkeypatch.setattr(script, "run_child", run_child)
    argv = pairs_argv(tmp_path, "--workload", "lp-grid", "--rounds", "2", "--traced")
    script.main([*argv, "--parent", "parent", "--change", "change"])
    sides = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(side, "0") for side in sides[:4]] + [(side, "1") for side in sides]
    section = json.loads((tmp_path / "BENCH_x.json").read_text())["workloads"]["lp-grid"]
    assert [(e["pair"], e["side"]) for e in section["traced"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change"),
    ]
    assert resummarises(script, section, "pairs")
    assert section["traced_summary"] == {layer: {
        "unit": SPEC["per_layer"][0]["unit"], "better": SPEC["per_layer"][0]["better"],
        "parent_median": 20, "parent_range": [10, 30],
        "change_median": 5, "change_range": [4, 6], "runs": 3,
    }}


# A stand-in qkbw.simplex: solve pivots n times on the first call with n.
STAND_IN_SIMPLEX = """
    SOLVED = set()

    def _pivot(rows, d, r, c):
        return d

    def solve(n):
        if n not in SOLVED:
            SOLVED.add(n)
            for _ in range(n):
                _pivot(None, 1, 0, 0)
"""

STAND_IN = """
    import gc
    from dataclasses import dataclass

    import qkbw.simplex

    COLLECTED = []

    @dataclass
    class Checked:
        ok: bool
        outcome: str

    @dataclass
    class Workload:
        build: object
        run: object
        check: object

    def run(case):
        if case == 3:
            raise ValueError("three")
        if case == 4 and not COLLECTED:
            COLLECTED.append(gc.collect())  # one full collection, in the first pass
        qkbw.simplex.solve(case)
        return case * case

    def check(case, raw):
        return Checked(isinstance(raw, int) or {ok}, f"{{case}}:{{raw}}")

    WORKLOADS = {{"squares": Workload(lambda seed: list(range(seed)), run, check)}}
"""


@pytest.mark.parametrize("ok", [True, False])
def test_a_child_runs_two_passes_of_the_checkout_and_writes_no_bytecode(tmp_path, ok):
    """A stand-in checkout whose workload raises on one case: the passes
    child counts that case as failed in both passes, unless its check
    forgives it."""
    (tmp_path / "src" / "qkbw").mkdir(parents=True)
    (tmp_path / "src" / "qkbw" / "__init__.py").write_text("")
    (tmp_path / "src" / "qkbw" / "simplex.py").write_text(textwrap.dedent(STAND_IN_SIMPLEX))
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "bench_workloads.py").write_text(textwrap.dedent(STAND_IN.format(ok=ok)))
    script = load_script()
    command = ["python", "-c", "CHILD", "squares", "5"]
    digests = set()
    if not ok:
        with pytest.raises(RuntimeError, match="wrong run"):
            script.run_child(tmp_path, command, digests)
    else:
        result = script.run_child(tmp_path, command, digests)
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert set(metrics) == {m["name"] for m in script.METRICS["passes"][0]}
        assert result["failed"] == 0 and metrics["first_ms"] >= 0 and metrics["second_ms"] >= 0
        assert (metrics["first_gc2"], metrics["second_gc2"], metrics["second_gc2_ms"]) == (1, 0, 0)
        assert 0 < metrics["first_gc2_ms"] <= metrics["first_ms"]
        again = script.run_child(tmp_path, command, digests)
        for name in ("first_gc2", "second_gc2", "second_gc2_ms"):
            assert again["metrics"][name] == result["metrics"][name]
        # the traced child: 1 + 2 + 4 pivots in the first pass (case 3
        # raises first), none in the second, and the same outcome digest
        counted = script.run_child(tmp_path, [*command, "pivots"], digests)
        assert (counted["metrics"]["first_pivots"]["value"], counted["metrics"]["second_pivots"]["value"]) == (7, 0)
        assert set(counted["metrics"]) == set(metrics) | {"first_pivots", "second_pivots"}
        assert counted["digest"] == again["digest"] == result["digest"]
    assert not (tmp_path / "perfbench" / "__pycache__").exists()
    assert not (tmp_path / "src" / "qkbw" / "__pycache__").exists()


def test_two_real_rounds_of_bound_on_this_checkout(tmp_path, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "COMMANDS", {"bound": script.COMMANDS["bound"]})
    out = tmp_path / "PROCESS_bound.json"
    script.main(["process", "--parent", str(ROOT), "--change", str(ROOT), "--rounds", "2", "--out", str(out)])
    section = json.loads(out.read_text())["workloads"]["bound"]
    assert section["command"] == "python -m qkbw.cli " + " ".join(script.COMMANDS["bound"])
    assert section["summary"]["ms"]["pairs"] == 2 and len(section["runs"]) == 4
    assert all(section["summary"]["ms"][f"{side}_median"] > 0 for side in script.SIDES)
    assert len({run["result"]["digest"] for run in section["runs"]}) == 1
    assert resummarises(script, section, "process")
