"""scripts/bench_pairs.py: its summary of each committed BENCH file, the pair
order, the traced runs and their summary, and its refusal of a run that
reports wrong results."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_summary_of_the_committed_runs_is_the_committed_summary(path):
    """Each workload section, or the top level of a one-workload file, and
    the traced summary of a file that has one."""
    bench = json.loads(path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sections = list(bench["workloads"].values()) if "workloads" in bench else [bench]
    assert sections
    for section in sections:
        assert load_script().summarise(section["runs"], spec["end_to_end"]) == section["summary"]
        if "traced_summary" in section:
            assert load_script().traced_summary(section["traced"], spec["per_layer"]) == section["traced_summary"]


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


WRONG_RUNS = {
    "incorrect": {"correct": False, "attempted": 10, "failed": 0, "metrics": {}},
    "failed-cases": {"correct": True, "attempted": 10, "failed": 2, "metrics": {}},
}


def printing(line):
    """A command that prints one JSON line, as perfbench/run.py ends its output."""
    return [sys.executable, "-c", f"print('setup'); print({json.dumps(line)!r})"]


@pytest.mark.parametrize("line", WRONG_RUNS.values(), ids=WRONG_RUNS)
def test_a_wrong_run_raises_and_writes_no_file(line, tmp_path, monkeypatch):
    script = load_script()
    good = {"correct": True, "attempted": 10, "failed": 0, "metrics": {}}
    assert script.run_side(tmp_path, printing(good)) == good
    with pytest.raises(RuntimeError, match="wrong run"):
        script.run_side(tmp_path, printing(line))
    monkeypatch.setattr(script, "run_command", lambda workload, seed, trace: printing(line))
    out = tmp_path / "BENCH_wrong.json"
    args = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "lp-grid",
            "--seed", "1", "--pairs", "2", "--label", "wrong", "--claim", "none",
            "--parent-commit", "0", "--out", str(out)]
    with pytest.raises(RuntimeError, match="wrong run"):
        script.main(args)
    assert not out.exists()


def test_each_workload_gets_its_own_section(tmp_path, monkeypatch):
    script = load_script()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def line(workload):
        value = {"lp-grid": 1.0, "algebra": 2.0}[workload]
        metrics = {m["name"]: {"value": value} for m in end_to_end}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(script, "run_command", lambda workload, seed, trace: printing(line(workload)))
    out = tmp_path / "BENCH_two.json"
    script.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "lp-grid",
                 "--workload", "algebra", "--seed", "1", "--pairs", "2", "--label", "two",
                 "--claim", "none", "--parent-commit", "0", "--out", str(out)])
    bench = json.loads(out.read_text())
    assert list(bench["workloads"]) == ["lp-grid", "algebra"]
    for workload, section in bench["workloads"].items():
        assert [r["result"] for r in section["runs"]] == [line(workload)] * 4
        assert section["summary"] == script.summarise(section["runs"], end_to_end)
        value = line(workload)["metrics"]["cases_per_s"]["value"]
        assert section["summary"]["cases_per_s"]["parent_median"] == value


def test_a_workload_may_name_its_own_pair_count(tmp_path, monkeypatch):
    script = load_script()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = {m["name"]: {"value": 1.0} for m in end_to_end}
    good = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    commands = []

    def run_command(workload, seed, trace):
        commands.append(workload)
        return printing(good)

    monkeypatch.setattr(script, "run_command", run_command)
    out = tmp_path / "BENCH_counts.json"
    script.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "lp-grid:3",
                 "--workload", "algebra", "--seed", "1", "--pairs", "2", "--label", "counts",
                 "--claim", "none", "--parent-commit", "0", "--out", str(out)])
    bench = json.loads(out.read_text())
    assert commands == ["lp-grid", "lp-grid", "algebra", "algebra"]
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
    monkeypatch.setattr(script, "run_command", lambda *args: pytest.fail("no run may start"))
    out = tmp_path / "BENCH_none.json"
    with pytest.raises(SystemExit) as exc:
        script.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", workload,
                     "--seed", "1", "--label", "none", "--claim", "none", "--parent-commit", "0",
                     "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_traced_runs_alternate_three_per_side_and_are_summarised(tmp_path, monkeypatch):
    """--traced adds three --trace 1 runs per side after the pairs, in pair
    order, and traced_summary gives each per-layer metric's median and
    min-max per side; a metric that a traced run lacks is left out."""
    script = load_script()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = spec["per_layer"][0]["name"]
    calls = []

    def run_side(checkout, command):
        trace = command[command.index("--trace") + 1]
        calls.append((checkout, trace))
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        if trace == "1":
            # parent runs read 10, 30, 20; change runs read 5, 6, 4
            value = {"parent": [10, 30, 20], "change": [5, 6, 4]}[checkout]
            metrics[layer] = {"value": value[sum(c == (checkout, "1") for c in calls) - 1]}
            if len(calls) < 8:  # the first three traced runs alone report the last metric
                metrics[spec["per_layer"][-1]["name"]] = {"value": 0}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(script, "run_side", run_side)
    out = tmp_path / "BENCH_traced.json"
    script.main(["--parent", "parent", "--change", "change", "--workload", "lp-grid", "--seed", "1",
                 "--pairs", "2", "--label", "traced", "--claim", "none", "--parent-commit", "0",
                 "--traced", "--out", str(out)])
    sides = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(side, "0") for side in sides[:4]] + [(side, "1") for side in sides]
    section = json.loads(out.read_text())["workloads"]["lp-grid"]
    assert [(e["pair"], e["side"]) for e in section["traced"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change"),
    ]
    summary = section["traced_summary"]
    assert summary == script.traced_summary(section["traced"], spec["per_layer"])
    assert list(summary) == [layer]
    assert summary[layer] == {
        "unit": spec["per_layer"][0]["unit"], "better": spec["per_layer"][0]["better"],
        "parent_median": 20, "parent_range": [10, 30],
        "change_median": 5, "change_range": [4, 6], "runs": 3,
    }
