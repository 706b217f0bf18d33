"""One workload in one fresh process: set up, run the timed loop, check.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH and the BLAS
and OpenMP pools pinned to one thread.  Prints one JSON line.  With
``--setup-only`` it stops after the warm-up and reports only when that ended
(``time.monotonic`` is system-wide on Linux, so the parent can subtract its
spawn time).  An untraced run starts SETUP_PROBES such set-up-only processes
between jobs, evenly over the timed window, so the median set-up time samples
the same machine state as the jobs do.

The timed loop is closed, with one job in flight.  It runs whole rounds until
``--seconds`` have passed, at least MIN_JOBS jobs are done (so the tail
percentile always has ten jobs beyond it) and at least one period of the
workload's round design has run.  The bracket widths are taken from that
first period, so they do not depend on the run length.  Only the job call is timed;
summaries are taken between jobs and every check runs after the loop, after
the peak resident set has been read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (the benchmark's own module, beside this file)

MIN_JOBS = 40
IMPORT_SAMPLES = 5
SETUP_PROBES = 8


def _reference_loop_ms() -> float:
    """A fixed pure-Python loop; its drift across runs is machine drift."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(300000):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _load_library(src: Path):
    import dirichletops
    from dirichletops import bounds, cli, errors, operator_matrix, special_functions, symbol

    where = Path(dirichletops.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"dirichletops imported from {where}, not from {src}")
    return types.SimpleNamespace(bounds=bounds, cli=cli, errors=errors, operator_matrix=operator_matrix,
                                 special_functions=special_functions, symbol=symbol)


def _pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so every process it starts, to its highest CPU.

    Unpinned theory runs had 0 to 16 jobs per run slowed to 2.6x the median
    or more; pinned runs, to either CPU, had 0 or 1.  Returns (nproc, cpu).
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus), max(cpus)


def _environment(nproc: int, cpu: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc,
        "pinned_cpu": cpu,
        "threads": {key: os.environ.get(key) for key in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _import_seconds(env: dict) -> list[float]:
    """Wall time of `import dirichletops` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dirichletops"], env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def _setup_probe(args) -> float:
    """Fresh process to the end of its warm-up, in seconds."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--src", args.src, "--setup-only"]
    spawned = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_end"] - spawned


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    nproc, cpu = _pin_to_one_cpu()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    lib = None
    # the cli workload drives subprocesses; only its traced form calls in process
    if args.workload != "cli" or args.trace:
        lib = _load_library(Path(args.src))
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload == "cli":
        wl.env = dict(os.environ)
        if args.trace:
            wl.in_process = lambda argv: lib.cli.main(argv)

    warm = wl.warmup()
    wl.summarize(warm, wl.run(warm, lib))
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0
    if tracer is not None:
        tracer.clear()
    ref_loop_ms = _reference_loop_ms()

    records, seconds, probe_setup_s = [], [], []
    probes = 0 if args.trace else SETUP_PROBES
    start = time.perf_counter()
    t = 0
    while True:
        for job in wl.round(t):
            if tracer is not None:
                tracer.job = len(seconds)
            begin = time.perf_counter()
            try:
                out = wl.run(job, lib)
            except Exception as exc:  # counted as a failed operation
                out = exc
            seconds.append(time.perf_counter() - begin)
            if isinstance(out, Exception):
                records.append({"slot": job["slot"], "error": repr(out)})
            else:
                records.append(wl.summarize(job, out))
            del out
            # probe k is due k/probes of the way through the timed window
            while (len(probe_setup_s) < probes
                   and time.perf_counter() - start >= len(probe_setup_s) * args.seconds / probes):
                probe_setup_s.append(_setup_probe(args))
        t += 1
        if (time.perf_counter() - start >= args.seconds and len(seconds) >= MIN_JOBS
                and t >= wl.PERIOD):
            break

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux

    per_layer = None
    if tracer is not None:
        from tracing import layer_metrics

        per_layer = layer_metrics(tracer, len(seconds), seconds, _import_seconds(dict(os.environ)))
        if args.trace_file:
            tracer.write(args.trace_file)
        tracer = None

    chk = workloads.Checker()
    wl.check(records, lib, chk)
    failed_jobs = {n for n, rec in enumerate(records) if "error" in rec}
    unexpected = []
    for n, failures in sorted(chk.failures.items()):
        for name, detail in failures:
            if name in workloads.KNOWN_FAULT_CHECKS:
                failed_jobs.add(n)
            else:
                unexpected.append(f"job {n}: {name} {detail}".rstrip())
    errors = [f"job {n}: {records[n]['error']}" for n in sorted(failed_jobs) if "error" in records[n]]

    first_period = records[: wl.PERIOD * len(wl.SLOTS)]
    result = {
        "setup_end": setup_end,
        "probe_setup_s": probe_setup_s,
        "rounds": t,
        "job_s": seconds,
        "peak_rss_mib": peak_rss_mib,
        "brackets": wl.brackets([rec for rec in first_period if "error" not in rec]),
        "attempted": len(records),
        "failed": len(failed_jobs),
        "correct": not unexpected,
        "unexpected": unexpected[:20],
        "errors": errors[:20],
        "ref_loop_ms": ref_loop_ms,
        "environment": _environment(nproc, cpu),
        "per_layer": per_layer,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
