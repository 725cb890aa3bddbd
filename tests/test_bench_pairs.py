"""scripts/bench_pairs.py: its summary of each committed BENCH file, the pair
order, and its refusal of a run that reports wrong results."""

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
    """Each workload section, or the top level of a one-workload file."""
    bench = json.loads(path.read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sections = list(bench["workloads"].values()) if "workloads" in bench else [bench]
    assert sections
    for section in sections:
        assert load_script().summarise(section["runs"], end_to_end) == section["summary"]


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
