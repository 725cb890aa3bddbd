"""Per-layer measurement from outside the program.

In-process layers: ``Tracer.install`` wraps the public functions of each qkbw
layer in every ``qkbw`` module namespace that bound them by name, so calls
made inside the package are seen as well as the benchmark's own.  While a
case runs, each call records a span (name, start, end, parent, case) in
memory; ``write_spans`` saves them when the run ends.  A layer's self time is
its span minus the time covered by its direct child spans.

The CLI layer is measured on fresh processes: a bare interpreter, an import
of ``qkbw.cli`` under ``-X importtime``, and one ``qkbw bound`` process.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import subprocess
import sys
import time
from functools import wraps

# Wrapped functions, as (module, attribute).  Each becomes a span named
# "<module>.<attribute>".  Those not named in BENCHMARK.json still matter:
# they keep their own time out of their parent's self time.
TARGETS = (
    ("weights", "weyl_dim"),
    ("weights", "decompose_rho_tensor_E"),
    ("casimir", "relative_dimension_weyl"),
    ("casimir", "relative_dimension_product"),
    ("casimir", "casimir_eigenvalue"),
    ("casimir", "casimir_hat"),
    ("casimir", "verify_recursion"),
    ("casimir", "casimir_report"),
    ("casimir", "decompose_bundle"),
    ("identities", "pure_kappa_identities"),
    ("identities", "operator_coeffs"),
    ("identities", "theorem_family"),
    ("identities", "independence_rank"),
    ("simplex", "simplex_maximize"),
    ("simplex", "exact_rank"),
    ("simplex", "solve_linear_system"),
    ("bounds", "bound_for"),
    ("bounds", "lp_max_bound"),
    ("bounds", "BoundCertificate.verify"),
    ("bounds", "kernel_analysis"),
    ("bounds", "twistor_kernel_analysis"),
)

CASE = "case"  # root span of one case; its self time is the benchmark's loop

# Modules whose import time is reported from `python -X importtime -c "import qkbw.cli"`.
IMPORT_MODULES = (
    "qkbw",
    "qkbw.rationals",
    "qkbw.weights",
    "qkbw.casimir",
    "qkbw.simplex",
    "qkbw.identities",
    "qkbw.bounds",
    "qkbw.selfcheck",
    "qkbw.cli",
    "concurrent.futures",
)


class Tracer:
    """Span recorder for the in-process layers of one traced pass."""

    def __init__(self):
        self.names = [CASE]
        self.spans = []  # [name index, start ns, end ns, parent index, case index]
        self.stack = [-1]
        self.active = False
        self.case_index = -1
        self.missing = []
        self.weyl_keys = set()
        self.lp_rows_max = 0
        self.lp_cols_max = 0

    def install(self):
        """Wrap every target; record the name of each target that no longer exists."""
        loaded = [m for name, m in list(sys.modules.items()) if name == "qkbw" or name.startswith("qkbw.")]
        for module_name, attr in TARGETS:
            span_name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"qkbw.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, method)
            except (ImportError, AttributeError):
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            if owner_name:
                setattr(owner, method, wrapper)
                continue
            for namespace in loaded:
                for bound_name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, bound_name, wrapper)

    def _wrap(self, span_name, fn):
        name_index = len(self.names)
        self.names.append(span_name)
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns
        note = {
            "weights.weyl_dim": self._note_weyl,
            "simplex.simplex_maximize": self._note_lp,
        }.get(span_name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if note is not None:
                note(args, kwargs)
            span = [name_index, 0, 0, stack[-1], self.case_index]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()

        return wrapper

    def _note_weyl(self, args, kwargs):
        rho = args[0] if args else kwargs["rho"]
        self.weyl_keys.add(rho.entries)

    def _note_lp(self, args, kwargs):
        objective = args[0] if args else kwargs["objective"]
        constraints = args[1] if len(args) > 1 else kwargs["constraints"]
        self.lp_rows_max = max(self.lp_rows_max, len(constraints))
        self.lp_cols_max = max(self.lp_cols_max, len(objective))

    def run_case(self, case_index, fn, *args):
        """Run fn(*args) as one case under a root span; exceptions propagate."""
        self.case_index = case_index
        span = [0, 0, 0, -1, case_index]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.active = True
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self.active = False
            self.stack.pop()

    def summary(self, scales=None):
        """Per span name: calls, total ms and self ms.

        With scales (one factor per case), each span's times are multiplied
        by its case's factor, as the run does with case times.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i, (name_index, start, end, _, case) in enumerate(self.spans):
            factor = scales[case] if scales is not None else 1.0
            row = out[self.names[name_index]]
            row["calls"] += 1
            row["total_ms"] += (end - start) * factor / 1e6
            row["self_ms"] += (end - start - child_ns[i]) * factor / 1e6
        return out

    def metrics(self, scales):
        """Flat per-layer measurements: <span>.calls and scaled <span>.self_ms, plus the argument counters."""
        flat = {}
        for name, row in self.summary(scales).items():
            flat[f"{name}.calls"] = row["calls"]
            flat[f"{name}.self_ms"] = row["self_ms"]
        flat["weights.weyl_dim.distinct"] = len(self.weyl_keys)
        flat["simplex.simplex_maximize.rows_max"] = self.lp_rows_max
        flat["simplex.simplex_maximize.cols_max"] = self.lp_cols_max
        return flat

    def write_spans(self, path):
        """Save the spans as gzipped tab-separated lines: name, start_ns, end_ns, parent, case."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcase\n")
            for name_index, start, end, parent, case in self.spans:
                fh.write(f"{self.names[name_index]}\t{start}\t{end}\t{parent}\t{case}\n")


def _wall_ms(argv, env, cwd):
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    wall = (time.perf_counter() - start) * 1000
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc


def parse_importtime(stderr):
    """{module: (self us, cumulative us)} from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        out[parts[2].strip()] = (int(parts[0]), int(parts[1]))
    return out


def cli_layer(env, cwd, bound_argv, check_bound, rounds):
    """Median interpreter start, qkbw.cli import, and run time of one `qkbw bound` process.

    Each round runs, one at a time: `python -c pass`, `python -X importtime -c
    "import qkbw.cli"` and the given bound process, whose exit code and
    output go to check_bound, which returns "" or a problem.  run_ms is the
    bound process wall minus interpreter and import.  Returns the metrics and
    the problems found.
    """
    py = sys.executable
    interpreter, imports, bound, problems = [], [], [], []
    module_self = {m: [] for m in IMPORT_MODULES}
    for _ in range(rounds):
        interpreter.append(_wall_ms([py, "-c", "pass"], env, cwd)[0])
        _, proc = _wall_ms([py, "-X", "importtime", "-c", "import qkbw.cli"], env, cwd)
        times = parse_importtime(proc.stderr)
        imports.append(times["qkbw.cli"][1] / 1000)
        for module in IMPORT_MODULES:
            if module in times:
                module_self[module].append(times[module][0] / 1000)
        start = time.perf_counter()
        proc = subprocess.run([py, *bound_argv], env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120)
        bound.append((time.perf_counter() - start) * 1000)
        problem = check_bound(proc.returncode, proc.stdout)
        if problem:
            problems.append(f"CLI probe: {problem}")
    med = statistics.median
    out = {
        "cli.interpreter_ms": med(interpreter),
        "cli.import_ms": med(imports),
        "cli.run_ms": med(bound) - med(interpreter) - med(imports),
        "cli.process_ms": med(bound),
    }
    for module, values in module_self.items():
        if values:
            out[f"cli.import.{module}.self_ms"] = med(values)
    return out, problems
