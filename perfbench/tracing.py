"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``dirichletops`` module that holds it, including names re-imported into
``bounds``, ``operator_matrix`` and ``cli`` (``_certified_zeta`` is ``zeta``),
and in the CLI's subcommand table.  A span is (name, start, end, parent span,
job id, values); ``values`` are per-call quantities read from the arguments or
the result, such as an iteration count.  Spans stay in memory until
``write``, which is called after the timed loop.  Self time is a span's duration minus the durations of its
children, which nest without overlap because the workload is one thread.
"""

from __future__ import annotations

import gzip
import importlib
import math
import statistics
import time
from array import array
from collections import defaultdict

_MODULES = ("dirichletops", "dirichletops.special_functions", "dirichletops.symbol",
            "dirichletops.bounds", "dirichletops.operator_matrix", "dirichletops.cli")


def _iterations(args, result):
    return (result.iterations,)


def _block_bytes(args, result):
    return (result.entries.nbytes,)


def _iterations_and_matvec_bytes(args, result):
    # one forward and one adjoint product per iteration, each reading the block
    return (result.iterations, 2 * result.iterations * args[0].entries.nbytes)


def _schur_entries(args, result):
    return ((args[2] + 1) * args[3],)


# (module, attribute, span name, per-call values)
TARGETS = (
    ("special_functions", "zeta", "special_functions.zeta", None),
    ("special_functions", "log_moment_sum", "special_functions.log_moment_sum", None),
    ("special_functions", "verification_suite", "special_functions.verification_suite", None),
    ("symbol", "fixed_point", "symbol.fixed_point", _iterations),
    ("bounds", "norm_bounds", "bounds.norm_bounds", None),
    ("bounds", "kernel_lower_bound", "bounds.kernel_lower_bound", None),
    ("operator_matrix", "build_matrix", "operator_matrix.build_matrix", _block_bytes),
    ("operator_matrix", "tail_bounds", "operator_matrix.tail_bounds", None),
    ("operator_matrix", "operator_norm_estimate", "operator_matrix.operator_norm_estimate",
     _iterations_and_matvec_bytes),
    ("operator_matrix", "singular_values", "operator_matrix.singular_values", None),
    ("operator_matrix", "schur_certificate", "operator_matrix.schur_certificate", _schur_entries),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Spans in column arrays: about 40 bytes each, a million per theory run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("q")
        self.values: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.job = -1

    def clear(self) -> None:
        for column in (self.name_ids, self.starts, self.ends, self.parents, self.jobs):
            del column[:]
        self.values.clear()

    def _wrap(self, func, name: str, measure):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, jobs = (self.name_ids, self.starts, self.ends,
                                                 self.parents, self.jobs)
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(math.nan)
            stack.append(span_id)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[span_id] = clock()
                stack.pop()
            if measure is not None:
                self.values[span_id] = measure(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in _MODULES]
        for module_name, attr, span_name, measure in TARGETS:
            original = getattr(importlib.import_module(f"dirichletops.{module_name}"), attr)
            wrapper = self._wrap(original, span_name, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        commands = importlib.import_module("dirichletops.cli")._COMMANDS
        for key, func in list(commands.items()):
            commands[key] = self._wrap(func, f"cli.{key}", None)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, summed values."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = defaultdict(float)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "values": [0.0, 0.0]} for name in self.names}
        for span_id, (name_id, duration) in enumerate(zip(self.name_ids, durations)):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[span_id]
            for k, value in enumerate(self.values.get(span_id, ())):
                entry["values"][k] += value
        return out

    def write(self, path) -> None:
        """Gzipped TSV, one span a line, times in seconds of perf_counter."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\tvalues\n")
            for span_id, row in enumerate(zip(self.name_ids, self.starts, self.ends, self.parents, self.jobs)):
                values = ",".join(map(str, self.values.get(span_id, ())))
                fh.write(f"{span_id}\t{self.names[row[0]]}\t{row[1]:.7f}\t{row[2]:.7f}"
                         f"\t{row[3]}\t{row[4]}\t{values}\n")


def layer_metrics(tracer: Tracer, jobs: int, job_seconds: list[float], import_s: list[float]) -> dict:
    """The per-layer metrics: times and counts per job unless noted."""
    t = tracer.totals()

    def per_job(name, field, k=0):
        total = t[name][field] if field != "values" else t[name]["values"][k]
        return total / jobs

    def per_call(name, k=0):
        return t[name]["values"][k] / t[name]["calls"] if t[name]["calls"] else 0.0

    mib = float(1 << 20)
    metrics = {
        "special_functions.zeta.calls": (per_job("special_functions.zeta", "calls"), "count"),
        "special_functions.zeta.self_s": (per_job("special_functions.zeta", "self_s"), "s"),
        "special_functions.verification_suite.s": (per_job("special_functions.verification_suite", "s"), "s"),
        "special_functions.log_moment_sum.self_s": (per_job("special_functions.log_moment_sum", "self_s"), "s"),
        "symbol.fixed_point.s": (per_job("symbol.fixed_point", "s"), "s"),
        "symbol.fixed_point.iterations": (per_call("symbol.fixed_point"), "count"),
        "bounds.norm_bounds.s": (per_job("bounds.norm_bounds", "s"), "s"),
        "bounds.kernel_lower_bound.s": (per_job("bounds.kernel_lower_bound", "s"), "s"),
        "operator_matrix.build_matrix.self_s": (per_job("operator_matrix.build_matrix", "self_s"), "s"),
        "operator_matrix.tail_bounds.s": (per_job("operator_matrix.tail_bounds", "s"), "s"),
        "operator_matrix.block_mb": (per_call("operator_matrix.build_matrix") / mib, "MiB"),
        "operator_matrix.operator_norm_estimate.s": (per_job("operator_matrix.operator_norm_estimate", "s"), "s"),
        "operator_matrix.operator_norm_estimate.iterations": (
            per_call("operator_matrix.operator_norm_estimate"), "count"),
        "operator_matrix.matvec_gb": (
            per_job("operator_matrix.operator_norm_estimate", "values", 1) / mib / 1024, "GiB"),
        "operator_matrix.singular_values.s": (per_job("operator_matrix.singular_values", "s"), "s"),
        "operator_matrix.schur_certificate.s": (per_job("operator_matrix.schur_certificate", "s"), "s"),
        "operator_matrix.schur_entries": (per_job("operator_matrix.schur_certificate", "values"), "count"),
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.bounds.s": (per_job("cli.bounds", "s"), "s"),
        "cli.matrix-norm.s": (per_job("cli.matrix-norm", "s"), "s"),
        "cli.approx-numbers.s": (per_job("cli.approx-numbers", "s"), "s"),
        "cli.verify-lemmas.s": (per_job("cli.verify-lemmas", "s"), "s"),
        "cli.figure.s": (per_job("cli.figure", "s"), "s"),
        "cli.main.self_s": (per_job("cli.main", "self_s"), "s"),
        "trace.job_s.p50": (statistics.median(job_seconds), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
