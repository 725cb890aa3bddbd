"""scripts/bench_pairs.py: its summary of each committed BENCH file, and the pair order."""

import importlib.util
import json
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
    bench = json.loads(path.read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert load_script().summarise(bench["runs"], end_to_end) == bench["summary"]


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
