"""scripts/process_times.py: its summary, its refusal of stdout digests that
differ and of a failing process, and one real run of `qkbw bound` with this
checkout on both sides."""

import importlib.util
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("process_times", ROOT / "scripts" / "process_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rounds(parent, change, digest="d"):
    """Run entries as collect makes them: a command "a" with the given ms, and
    a command "b" that takes twice as long."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, ms in (("parent", p), ("change", c)):
            result = {"a": {"ms": ms, "digest": digest}, "b": {"ms": 2 * ms, "digest": "b"}}
            runs.append({"pair": i, "side": side, "first": "parent", "result": result})
    return runs


def test_summary_gives_each_command_and_side_its_median_and_quartiles():
    parent, change = [215.0, 220.0, 212.0, 230.0, 218.0], [210.0, 221.0, 205.0, 209.0, 211.0]
    summary = load_script().summarise(rounds(parent, change), ["a", "b"])
    for name, scale in (("a", 1), ("b", 2)):
        for side, values in (("parent", parent), ("change", change)):
            xs = [v * scale for v in values]
            q = statistics.quantiles(xs, n=4)
            want = {"median": round(statistics.median(xs), 4), "quartiles": [round(q[0], 4), round(q[2], 4)]}
            assert summary[name][side] == want, (name, side)
        assert summary[name]["change_faster"] == 4
        assert summary[name]["rounds"] == 5
    assert (summary["a"]["digest"], summary["b"]["digest"]) == ("d", "b")


def test_digests_that_differ_raise():
    runs = rounds([1.0, 2.0], [1.0, 2.0])
    runs[2]["result"]["a"] = dict(runs[2]["result"]["a"], digest="e")
    with pytest.raises(RuntimeError, match="digests of a differ"):
        load_script().summarise(runs, ["a", "b"])


def test_a_failing_process_raises():
    with pytest.raises(RuntimeError, match="exit 2"):
        load_script().run_command(ROOT, ["bound", "--n", "1", "--k", "0", "--rho", "1", "--kappa-sign", "+"])


def test_two_real_rounds_of_bound_on_this_checkout():
    script = load_script()
    commands = {"bound": script.COMMANDS["bound"]}
    runs = script.collect(2, lambda side: script.run_side(ROOT, commands))
    summary = script.summarise(runs, commands)["bound"]
    assert summary["rounds"] == 2 and len(runs) == 4
    assert all(summary[side]["median"] > 0 for side in ("parent", "change"))
    assert len(summary["digest"]) == 64
