#!/usr/bin/env python3
"""Benchmark one allpath workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid-control --seed 1 --seconds 24 --trace 0

The workload runs in one worker process that imports allpath from ``src/``
of this checkout.  A few more processes only set the workload up, so that
``setup_s`` is a median.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run instead.  The full record of a
run (metadata, per-call times, output digests, failed checks) is written to
``perfbench/runs/<workload>-seed<seed>-trace<trace>/run.json``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 2  # set-up-only processes, besides the worker's own set-up
DEADLINE_S = 170  # the whole run, build and probes included, must end before this


class RunError(Exception):
    pass


def spawn(args, run_dir, extra, deadline):
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--run-dir", run_dir] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting %s" % " ".join(extra or ["the worker"]))
    try:
        proc = subprocess.run(argv + ["--t0", repr(time.monotonic())], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError("worker did not finish within %.0f s" % timeout) from exc
    if proc.returncode != 0:
        raise RunError("worker exited with code %d" % proc.returncode)
    return proc.stdout


def build(deadline):
    """Build the package's extension modules in place, as in a source checkout.

    Nothing is compiled while setup.py declares no buildable extension; the
    step is here so that a compiled kernel, once the package has one, is
    what gets measured.
    """
    try:
        proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired as exc:
        raise RunError("the build did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError("the build failed:\n" + proc.stdout)


def measure(args, run_dir):
    deadline = time.monotonic() + DEADLINE_S
    build(deadline)
    setup = []
    for k in range(SETUP_PROBES):
        out = spawn(args, os.path.join(run_dir, "setup%d" % k), ["--setup-only"], deadline)
        setup.append(json.loads(out.strip().splitlines()[-1]))
    spawn(args, run_dir, [], deadline)
    with open(os.path.join(run_dir, "run.json")) as fh:
        record = json.load(fh)
    setup.append({key: record[key] for key in ("setup_s", "setup_wall_s")})
    for key in ("setup_s", "setup_wall_s"):
        record[key + "_samples"] = [probe[key] for probe in setup]
        record[key] = statistics.median(record[key + "_samples"])
    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def summary_lines(record):
    meta = record["meta"]
    yield "workload %s seed %d trace %d" % (record["workload"], record["seed"], record["trace"])
    yield ("kernel=%(kernel)s python=%(python)s numpy=%(numpy)s scipy=%(scipy)s "
           "nproc=%(nproc)s blas_threads=%(blas_threads)s" % meta)
    yield "git=%(git_revision)s src_sha256=%(src_sha256)s" % meta
    yield "allpath=%(allpath_file)s kernel_twin: %(kernel_twin)s" % meta
    yield "setup_s %.4f, wall %.4f s (medians of %d processes)" % (
        record["setup_s"], record["setup_wall_s"], len(record["setup_s_samples"]))
    yield "run_s %.4f, wall %.4f s" % (record["run_s"], record["run_wall_s"])
    for label, samples in sorted(record["call_seconds"].items()):
        timed = samples[1:] or samples
        probes = [p for _, p in timed if p is not None]
        yield "call %-22s wall median %.4f s over %d timed passes, probe median %s" % (
            label, statistics.median(w for w, _ in timed), len(timed),
            "%.1f us" % (1e6 * statistics.median(probes)) if probes else "none")
    for proto, (done, unresolved, pending, total) in sorted(
            record["facts"].get("flows", {}).items()):
        yield "flows %-11s done %d unresolved %d pending_at_end %d of %d" % (
            proto, done, unresolved, pending, total)
    digest = json.dumps(record["digests"], sort_keys=True).encode()
    yield "outputs sha256 %s" % hashlib.sha256(digest).hexdigest()
    yield "fail_ratio %d/%d" % (len(record["failed"]), record["attempted"])
    for name, detail in record["failed"]:
        yield "FAILED %s: %s" % (name, detail.strip().splitlines()[-1] if detail else "")


def end_to_end(record):
    return {
        "setup_s": (record["setup_s"], "s"),
        "run_s": (record["run_s"], "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "output_mb": (record["output_mb"], "MB"),
        "ok_ratio": (1.0 - len(record["failed"]) / record["attempted"], "1"),
    }


def per_layer(record):
    units = dict(tracing.PER_LAYER)
    units.update({"trace.run_s_untraced": "s", "trace.run_s_traced": "s",
                  "trace.overhead_s": "s"})
    metrics = {name: (record["layer"][name], unit) for name, unit in units.items()}
    flows = record["facts"].get("flows", {})
    for proto in workloads.PROTOCOL_NAMES:
        done, unresolved, pending, _ = flows.get(proto, (0, 0, 0, 0))
        metrics["simnet.flows_done." + proto] = (done, "count")
        metrics["simnet.flows_unresolved." + proto] = (unresolved, "count")
        metrics["simnet.flows_pending_at_end." + proto] = (pending, "count")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    package = os.path.join(ROOT, "src", "allpath", "__init__.py")
    if not os.path.isfile(package):
        print("run.py: nothing to measure, %s is missing" % package, file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        record = measure(args, run_dir)
    except RunError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    for line in summary_lines(record):
        print(line)
    metrics = per_layer(record) if args.trace else end_to_end(record)
    print(json.dumps({
        "correct": not record["failed"],
        "attempted": record["attempted"],
        "failed": len(record["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
