"""Benchmark for dirichletops: one workload per call, one result line.

    python3 perfbench/run.py --workload theory --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ``./src``, never
from an installed copy, so the command fails without a result where ``src``
is missing.  The workload runs in a fresh worker process (``worker.py``),
pinned to one CPU, with BLAS and OpenMP pinned to one thread.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the worker wraps the library's public functions and the line
holds the per-layer metrics instead.
Each run also writes a record (machine, versions, every job time) and, when
traced, the spans under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("theory", "matrix", "spectrum", "cli")
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for key in THREAD_VARS:
        env[key] = "1"
    return env


def _spawn(argv: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run a worker; return its spawn time (monotonic) and its JSON line."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker {argv} timed out after {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {argv} exited with {proc.returncode}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> float:
    """Highest percentile with at least ten jobs beyond it: the 11th largest."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "dirichletops" / "__init__.py").is_file():
        print(f"error: no dirichletops sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = _worker_env(src)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    run_args = ["--workload", args.workload, "--seed", str(args.seed), "--src", str(src),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--trace-file", str(out_dir / f"trace-{stem}.tsv.gz")]
    spawned, res = _spawn(run_args, env, WORKER_TIMEOUT_S)

    # the run's own set-up plus the set-up-only processes it started
    setup_s = [res["setup_end"] - spawned, *res["probe_setup_s"]]

    job_s = res["job_s"]
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "jobs_per_s": {"value": len(job_s) / sum(job_s), "unit": "jobs/s"},
            "job_s.p50": {"value": statistics.median(job_s), "unit": "s"},
            "job_s.tail": {"value": _tail(job_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mib"], "unit": "MiB"},
            "bracket_rel.p50": {"value": statistics.median(res["brackets"]), "unit": "1"},
        }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": res["rounds"], "setup_s": setup_s,
              "ref_loop_ms": res["ref_loop_ms"], "environment": res["environment"],
              "unexpected": res["unexpected"], "errors": res["errors"], "job_s": job_s,
              "metrics": metrics}
    (out_dir / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env_line = res["environment"]
    print(f"# {args.workload} seed={args.seed}: python {env_line['python']}, numpy "
          f"{env_line['numpy']}, {env_line['blas']}, nproc {env_line['nproc']} (pinned to cpu "
          f"{env_line['pinned_cpu']}), threads "
          f"{env_line['threads']}, reference loop {res['ref_loop_ms']:.2f} ms")
    print(f"# {args.workload}: {res['attempted']} jobs attempted in {res['rounds']} rounds, "
          f"{res['failed']} failed, correct={res['correct']}")
    for line in res["unexpected"] + res["errors"]:
        print(f"# {line}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
