"""Vista feature-transfer benchmark: one command for every metric.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``explore`` and ``durable``, which
``BENCHMARK.json`` lists, and ``reuse``.
With ``--trace 0`` it reports the end-to-end metrics, measured with
every instrument off; with ``--trace 1`` it reports the per-layer
metrics from a separate run whose spans are recorded by wrappers at
the layer boundaries, and writes the spans to
``.perfbench/spans/<workload>-seed<seed>.json`` when the run ends.

``setup_s`` is the median over fresh interpreters of the time from
process start until the first call is ready (``import repro``, dataset
generation and ``build_model`` for the roster). A reference process
computes the outputs every call is checked against, and the untraced
measurement is split over several workload processes whose calls are
pooled; the set-up probes are spread between them. Every workload
process runs BLAS on one thread (see :data:`BLAS_THREADS`), and the
host fingerprint records it. Every metric is printed
by name with its unit, followed by the host fingerprint; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Failed calls (a call that raises, returns
wrong outputs, or leaks a resource) are listed with their causes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed for ``setup_s``. An untraced run times
#: them in equal groups before the reference process and after each
#: workload process, so their median samples the host over the whole
#: run rather than over its first seconds.
SETUP_PROBES = 12
#: Workload processes an untraced run splits its seconds over. Call
#: times of one process drift together, so pooling the calls of
#: several processes steadies the medians.
MEASURE_PROCESSES = 5
#: Threads every BLAS library the program may load runs with. With
#: the default of one thread per core, OpenBLAS spin-waits on every
#: core, and one competing process on a 2-core host slowed ``explore``
#: calls 2.0-2.4x; with one thread the same load slowed them 2-6%,
#: for 4% more call time on an idle host.
BLAS_THREADS = "1"
#: A run must end within 180 s; its children are stopped before that.
RUN_DEADLINE_S = 170


def worker_env():
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE, env.get("PYTHONPATH")) if p
    )
    return env


def remaining(args):
    left = args.deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError(f"run exceeded {RUN_DEADLINE_S} s")
    return left


def worker(mode, args, *extra):
    """Run ``worker.py`` in ``mode``; returns its last stdout line
    parsed as JSON (None when it prints nothing)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode,
         "--workload", args.workload, "--seed", str(args.seed), *extra],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
        timeout=remaining(args),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed (exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def time_setup(args, probes, samples):
    """Time ``probes`` fresh interpreters from spawn until each reports
    ready. Appends each wall time to ``samples["wall"]`` and each
    internal step's seconds to ``samples[step]``."""
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.wait(timeout=remaining(args))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.setdefault("wall", []).append(wall)
        for key, value in json.loads(line).items():
            if key != "ready":
                samples.setdefault(key, []).append(value)


def tail_of(walls):
    """The highest percentile of ``walls`` with at least ten samples
    beyond it, as ``(value, percentile)``."""
    ordered = sorted(walls)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    position = len(ordered) - 11
    return ordered[position], 100.0 * (position + 1) / len(ordered)


def measure(args, workdir, between):
    """The workload processes of one run, merged: pooled call walls for
    untraced runs, the single traced process's metrics otherwise.
    ``between()`` runs after each untraced workload process."""
    references = os.path.join(workdir, "references.json")
    worker("reference", args, "--workdir", workdir,
           "--references", references)
    common = ["--trace", str(args.trace), "--workdir", workdir,
              "--references", references]
    if args.trace:
        os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
        spans_out = os.path.join(
            STATE, "spans", f"{args.workload}-seed{args.seed}.json"
        )
        result = worker("run", args, "--seconds", str(args.seconds),
                        "--spans-out", spans_out, *common)
        result["notes"]["records_per_call"] = result["records_per_call"]
        return result
    parts = []
    for _ in range(MEASURE_PROCESSES):
        parts.append(worker("run", args, "--seconds",
                            str(args.seconds / MEASURE_PROCESSES), *common))
        between()
    walls = [wall for part in parts for wall in part["walls"]]
    records = parts[0]["records_per_call"]
    tail, percentile = tail_of(walls)
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
        "host": parts[0]["host"],
        "metrics": {
            "workload_s_p50": [statistics.median(walls), "s"],
            "workload_s_tail": [tail, "s"],
            "records_per_s": [records * len(walls) / sum(walls),
                              "records/s"],
            "peak_rss_mb": [max(p["peak_rss_mb"] for p in parts), "MB"],
        },
        "notes": {
            "processes": MEASURE_PROCESSES,
            "calls_timed": len(walls),
            "tail_percentile": round(percentile, 2),
            "records_per_call": records,
        },
    }


def source_state():
    """Commit and dirty flag when the checkout is a git work tree,
    and a digest of the program's sources either way."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SOURCE, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SOURCE).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    state = {"source_sha256": h.hexdigest()[:16], "commit": None,
             "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*cmd):
            return subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True,
            ).stdout.strip()
        state["commit"] = git("rev-parse", "HEAD") or None
        state["dirty"] = bool(git("status", "--porcelain", "--", "src"))
    return state


def report(args, result, samples):
    setup_steps = {
        key: statistics.median(values) for key, values in samples.items()
    }
    setup_s = setup_steps.pop("wall")
    metrics = dict(result["metrics"])
    if args.trace:
        for key, value in setup_steps.items():
            metrics[f"setup.{key}"] = [value, "s"]
    else:
        metrics["setup_s"] = [setup_s, "s"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"# host {json.dumps({**result['host'], **source_state()})}")
    print(f"# notes {json.dumps(result['notes'])}")
    if not args.trace:
        print(f"# setup_s median of {len(samples['wall'])} fresh "
              "interpreters; "
              f"its steps: {json.dumps(setup_steps)}")
    else:
        print("# per-layer values are per traced call; forked-worker "
              "work shows only as dataflow.wave time in the parent, and "
              "waiting inside a layer is counted as its busy time")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{args.workload:8s} {name:36s} {value:.6g} {unit}")
    print(f"{args.workload:8s} {'error_rate':36s} "
          f"{failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    for failure in result["failures"]:
        print(f"# FAILED call {failure['call']} ({failure['model']}): "
              f"{'; '.join(failure['causes'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Vista feature-transfer benchmark"
    )
    parser.add_argument("--workload", required=True,
                        choices=("explore", "reuse", "durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no program source under {SOURCE}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    args.deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(workdir)
    samples = {}
    groups = 1 if args.trace else MEASURE_PROCESSES + 1

    def probe_group():
        time_setup(args, SETUP_PROBES // groups, samples)

    try:
        probe_group()
        result = measure(args, workdir, probe_group)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, result, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
