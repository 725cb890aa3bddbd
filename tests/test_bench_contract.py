"""The names the benchmark reads from the package, checked from BENCHMARK.json.

The traced run wraps ``qkbw.<module>.<attr>`` for every per-layer metric
``<module>.<attr>[.<attr>].<counter>`` and records a missing target instead
of failing, so a renamed function silently drops its metric.  The CLI probe
reads ``cli.import.<module>.self_ms`` off ``python -X importtime -c "import
qkbw.cli"``, so a module that is no longer imported drops its metric too.
The workloads' own checks read package names as well (``constant_kappa`` of
an operator, the ``verdicts`` of a kernel analysis), so a sample of each
workload's cases runs through its build, run and check here.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
LAYER = re.compile(r"(\w+)\.(\w+(?:\.\w+)?)\.(?:calls|self_ms|distinct|rows_max|cols_max)")
IMPORT = re.compile(r"cli\.import\.([\w.]+)\.self_ms")


def test_every_layer_metric_names_a_callable():
    targets = [LAYER.fullmatch(name) for name in PER_LAYER if not name.startswith("cli.")]
    targets = [m.groups() for m in targets if m]
    assert ("weights", "decompose_rho_tensor_E") in targets
    for module_name, attr in targets:
        value = importlib.import_module(f"qkbw.{module_name}")
        for part in attr.split("."):
            value = getattr(value, part, None)
        assert callable(value), f"qkbw.{module_name}.{attr}"


def run_importtime(*args):
    """The finished `python -X importtime <args>` process and the modules it imported."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


def test_cli_import_loads_every_timed_module():
    modules = [m.group(1) for m in map(IMPORT.fullmatch, PER_LAYER) if m]
    assert "qkbw.selfcheck" in modules and "concurrent.futures" in modules
    _, imported = run_importtime("-c", "import qkbw.cli")
    assert set(modules) <= imported, set(modules) - imported


def test_one_bound_process_loads_neither_dataclasses_nor_the_process_pool():
    """A cold `qkbw bound` imports only what a bound needs, plus the two eager
    imports whose `cli.import.*` metrics must not read 0."""
    argv = ["bound", "--n", "2", "--k", "2", "--a", "2", "--b", "0", "--kappa-sign", "+", "--format", "json"]
    proc, imported = run_importtime("-m", "qkbw.cli", *argv)
    assert json.loads(proc.stdout)["bound"] == "3/8"
    assert {"qkbw.selfcheck", "concurrent.futures"} <= imported
    unwanted = {"dataclasses", "inspect", "concurrent.futures.process", "multiprocessing"}
    assert not unwanted & imported, unwanted & imported


def load_workloads():
    """perfbench/bench_workloads.py as a module, read without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "bench_workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}), mock.patch.object(
        sys, "dont_write_bytecode", True
    ):
        spec.loader.exec_module(module)
    return module


# every step-th case of the seed-1 pass: about 60 in process, one cli-cold process
STEPS = {"lp-grid": 10, "lp-general": 10, "algebra": 10, "cli-cold": 144}


@pytest.mark.parametrize("name", STEPS)
def test_workload_cases_pass_their_own_check(name):
    workload = load_workloads().WORKLOADS[name]
    cases = workload.build(1)[:: STEPS[name]]
    outcomes = set()
    for case in cases:
        checked = workload.check(case, workload.run(case))
        assert checked.ok, (case.ident, checked.problem)
        outcomes.add(checked.outcome.split("\t")[1].split()[0])
    if name == "lp-general":
        assert outcomes == {"certified", "no-certificate"}
