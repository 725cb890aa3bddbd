"""scripts/first_pass.py: its summary, its refusal of failed cases and of
digests that differ, and real child processes on a stand-in checkout, one of
whose passes makes a full garbage collection, and whose stand-in
qkbw.simplex._pivot the counting child counts."""

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
    """Run entries as collect makes them, second passes a tenth of the first;
    the parent's first pass makes one full collection of a tenth of its time
    in even rounds, and the change's second pass one of 1 ms in every round."""
    runs = []
    for i, (p, c) in enumerate(zip(parent_first, change_first)):
        for side, ms in (("parent", p), ("change", c)):
            result = {"first_ms": ms, "second_ms": ms / 10, "failed": 0, "digest": digest}
            first = side == "parent" and i % 2 == 0
            second = side == "change"
            result.update(first_gc2=int(first), first_gc2_ms=ms / 10 if first else 0,
                          second_gc2=int(second), second_gc2_ms=1.0 if second else 0)
            runs.append({"pair": i, "side": side, "first": "parent", "result": result})
    return runs


def counts(digest="d"):
    """One counting run per side: the parent pivots 400 and 300 times, the change 350 and 300."""
    return {
        "parent": {"first_pivots": 400, "second_pivots": 300, "digest": digest},
        "change": {"first_pivots": 350, "second_pivots": 300, "digest": "d"},
    }


def test_summary_gives_each_side_and_pass_its_median_and_quartiles():
    parent, change = [170.0, 172.0, 168.0, 175.0, 171.0], [164.0, 166.0, 169.0, 163.0, 165.0]
    summary = load_script().summarise(rounds(parent, change), counts())
    for side, values in (("parent", parent), ("change", change)):
        for name, scale in (("first_ms", 1), ("second_ms", 10)):
            xs = [v / scale for v in values]
            q = statistics.quantiles(xs, n=4)
            want = {"median": round(statistics.median(xs), 4), "quartiles": [round(q[0], 4), round(q[2], 4)]}
            assert summary[side][name] == want, (side, name)
    # the parent collects in rounds 0, 2 and 4: 17.0, 0, 16.8, 0 and 17.1 ms
    assert summary["parent"]["gc2_medians"] == {
        "first_gc2": 1, "first_gc2_ms": 16.8, "second_gc2": 0, "second_gc2_ms": 0
    }
    assert summary["change"]["gc2_medians"] == {
        "first_gc2": 0, "first_gc2_ms": 0, "second_gc2": 1, "second_gc2_ms": 1.0
    }
    assert summary["parent"]["pivots"] == {"first_pivots": 400, "second_pivots": 300}
    assert summary["change"]["pivots"] == {"first_pivots": 350, "second_pivots": 300}
    assert summary["change_faster_first"] == 4
    assert summary["rounds"] == 5
    assert summary["digest"] == "d"


def test_digests_that_differ_raise():
    runs = rounds([1.0, 2.0], [1.0, 2.0])
    runs[3]["result"] = dict(runs[3]["result"], digest="e")
    with pytest.raises(RuntimeError, match="digests differ"):
        load_script().summarise(runs, counts())
    # a counting run whose outcomes differ from the timed runs'
    with pytest.raises(RuntimeError, match="digests differ"):
        load_script().summarise(rounds([1.0, 2.0], [1.0, 2.0]), counts(digest="e"))


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
    """A stand-in checkout whose workload raises on one case: the child counts
    that case as failed in both passes, unless its check forgives it."""
    (tmp_path / "src" / "qkbw").mkdir(parents=True)
    (tmp_path / "src" / "qkbw" / "__init__.py").write_text("")
    (tmp_path / "src" / "qkbw" / "simplex.py").write_text(textwrap.dedent(STAND_IN_SIMPLEX))
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "bench_workloads.py").write_text(textwrap.dedent(STAND_IN.format(ok=ok)))
    script = load_script()
    if not ok:
        with pytest.raises(RuntimeError, match="wrong run"):
            script.run_side(tmp_path, "squares", 5)
    else:
        result = script.run_side(tmp_path, "squares", 5)
        assert set(result) == {"first_ms", "second_ms", "failed", "digest", *script.COLLECTIONS}
        assert result["failed"] == 0 and result["first_ms"] >= 0 and result["second_ms"] >= 0
        assert (result["first_gc2"], result["second_gc2"], result["second_gc2_ms"]) == (1, 0, 0)
        assert 0 < result["first_gc2_ms"] <= result["first_ms"]
        times = ("first_ms", "second_ms", "first_gc2_ms")
        again = script.run_side(tmp_path, "squares", 5)
        assert result == dict(again, **{t: result[t] for t in times})
        # the counting child: 1 + 2 + 4 pivots in the first pass (case 3
        # raises first), none in the second, and the same outcomes
        counted = script.run_side(tmp_path, "squares", 5, count_pivots=True)
        assert (counted["first_pivots"], counted["second_pivots"]) == (7, 0)
        assert set(counted) == set(result) | set(script.PIVOTS)
        assert counted["digest"] == result["digest"]
    assert not (tmp_path / "perfbench" / "__pycache__").exists()
    assert not (tmp_path / "src" / "qkbw" / "__pycache__").exists()
