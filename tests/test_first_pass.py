"""scripts/first_pass.py: its summary, its refusal of failed cases and of
digests that differ, and one real child process on a stand-in checkout."""

import importlib.util
import statistics
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("first_pass", ROOT / "scripts" / "first_pass.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rounds(parent_first, change_first, digest="d"):
    """Run entries as collect makes them, second passes a tenth of the first."""
    runs = []
    for i, (p, c) in enumerate(zip(parent_first, change_first)):
        for side, ms in (("parent", p), ("change", c)):
            result = {"first_ms": ms, "second_ms": ms / 10, "failed": 0, "digest": digest}
            runs.append({"pair": i, "side": side, "first": "parent", "result": result})
    return runs


def test_summary_gives_each_side_and_pass_its_median_and_quartiles():
    parent, change = [170.0, 172.0, 168.0, 175.0, 171.0], [164.0, 166.0, 169.0, 163.0, 165.0]
    summary = load_script().summarise(rounds(parent, change))
    for side, values in (("parent", parent), ("change", change)):
        for name, scale in (("first_ms", 1), ("second_ms", 10)):
            xs = [v / scale for v in values]
            q = statistics.quantiles(xs, n=4)
            want = {"median": round(statistics.median(xs), 4), "quartiles": [round(q[0], 4), round(q[2], 4)]}
            assert summary[side][name] == want, (side, name)
    assert summary["change_faster_first"] == 4
    assert summary["rounds"] == 5
    assert summary["digest"] == "d"


def test_digests_that_differ_raise():
    runs = rounds([1.0, 2.0], [1.0, 2.0])
    runs[3]["result"] = dict(runs[3]["result"], digest="e")
    with pytest.raises(RuntimeError, match="digests differ"):
        load_script().summarise(runs)


STAND_IN = """
    from dataclasses import dataclass

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
        return case * case

    def check(case, raw):
        return Checked(isinstance(raw, int) or {ok}, f"{{case}}:{{raw}}")

    WORKLOADS = {{"squares": Workload(lambda seed: list(range(seed)), run, check)}}
"""


@pytest.mark.parametrize("ok", [True, False])
def test_a_child_runs_two_passes_of_the_checkout_and_writes_no_bytecode(tmp_path, ok):
    """A stand-in checkout whose workload raises on one case: the child counts
    that case as failed in both passes, unless its check forgives it."""
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "bench_workloads.py").write_text(textwrap.dedent(STAND_IN.format(ok=ok)))
    script = load_script()
    if not ok:
        with pytest.raises(RuntimeError, match="wrong run"):
            script.run_side(tmp_path, "squares", 5)
    else:
        result = script.run_side(tmp_path, "squares", 5)
        assert set(result) == {"first_ms", "second_ms", "failed", "digest"}
        assert result["failed"] == 0 and result["first_ms"] >= 0 and result["second_ms"] >= 0
        assert result == dict(script.run_side(tmp_path, "squares", 5), first_ms=result["first_ms"],
                              second_ms=result["second_ms"])
    assert not (tmp_path / "perfbench" / "__pycache__").exists()
