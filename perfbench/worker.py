"""One workload in one process: set up, time passes, check outputs, trace.

Started by run.py; not meant to be run by hand.  It imports allpath from
``src/`` of the checkout it lives in, builds the workload's inputs from the
seed, then repeats passes over the workload's calls until ``--seconds`` have
gone by.  Everything it learns goes to ``<run-dir>/run.json``.
"""

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """The allpath package of this checkout, with every layer and the libraries it loads."""
    sys.path.insert(0, SRC)
    import allpath
    where = os.path.realpath(allpath.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("allpath was imported from %s, outside %s" % (where, SRC))
    from allpath import balance, cli, protocol, qbd, scalability, simnet, topology
    import scipy.stats  # noqa: F401  (balance imports it lazily on first use)
    return SimpleNamespace(allpath=allpath, balance=balance, cli=cli, protocol=protocol,
                           qbd=qbd, scalability=scalability, simnet=simnet, topology=topology)


# -- run metadata -------------------------------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when unknown."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_revision():
    """Commit of the checkout from .git, or None when it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def tree_sha256(top):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def metadata(api):
    import numpy
    import scipy
    return {
        "kernel": api.balance.KERNEL,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
        "src_sha256": tree_sha256(SRC),
        "allpath_file": os.path.realpath(api.allpath.__file__),
    }


def kernel_twin_check(api):
    """Both balance kernels on one short mixture replication, or None without a compiled one."""
    try:
        from allpath import _balance_core
    except ImportError:
        return None
    from allpath import _balance_py
    mix = api.balance.TrafficMix()
    caps = [workloads.DC_CAPACITY] * workloads.DC_PATHS
    lam = api.balance.arrival_rate_for_load(workloads.DC_RHO, caps, mix.mean_holding_s)
    args = (caps, lam, workloads.DC_DURATION, workloads.DC_DURATION * workloads.WARMUP_FRACTION,
            12345) + mix.kernel_params()
    busy_py, *rest_py = _balance_py.run_replication(*args)
    busy_c, *rest_c = _balance_core.run_replication(*args)
    same = rest_py == rest_c and all(abs(a - b) <= 1e-9 * max(1.0, abs(a))
                                     for a, b in zip(busy_py, busy_c))
    return same, "python %r, compiled %r" % (rest_py, rest_c)


# -- passes ---------------------------------------------------------------------


def output_digests(out_dir):
    """sha256 of every CLI output file except the manifest, which carries wall_clock_s."""
    digests = {}
    size = 0
    for path in sorted(glob.glob(os.path.join(out_dir, "*"))):
        size += os.path.getsize(path)
        if os.path.basename(path) != "manifest.json":
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests, size


# -- speed probe ---------------------------------------------------------------

PROBE_INTERVAL_S = 0.01
PROBE_LOOP = 300
# Median duration of one probe loop on an idle core of the machine the
# benchmark was tuned on (2-vCPU Intel Xeon VM, Python 3.11).  It only sets
# the scale of probe-scaled times, so that they read as seconds there.
PROBE_REF_S = 30e-6


class SpeedProbe:
    """How fast this process runs while it is being timed.

    On a shared host the whole process slows by up to 2x, for a second or
    for minutes, whenever other tenants load the machine; the slowdown
    shows in CPU time as much as in wall time.  While started, a timer
    signal interrupts the process every PROBE_INTERVAL_S and runs a fixed
    loop of integer arithmetic; the median time of that loop over an
    interval measures the machine's speed during it.  A wall time times
    PROBE_REF_S / that median is the time the interval would have taken at
    the reference speed.  The probe costs about 0.4% of the interval and
    runs in every timed call, so it adds the same to every commit.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += (i * 7) ^ (i >> 2)
        self.samples.append(time.perf_counter() - t)

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        """Median probe loop time since start(), or None without a sample."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return statistics.median(self.samples) if self.samples else None


def scaled(wall_s, probe_s):
    return wall_s * PROBE_REF_S / probe_s


# -- passes ---------------------------------------------------------------------


class Runner:
    def __init__(self, work, probe):
        self.work = work
        self.probe = probe
        self.attempted = 0
        self.failed = []  # (what, detail)
        self.digests = None
        self.results = None
        self.out_bytes = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed.append((name, detail))

    def run_pass(self, times):
        """One pass over the calls; times[label] gets [wall s, probe s] of each call."""
        results = {}
        for call in self.work.calls:
            gc.collect()  # the same heap state, so the same collector work, every pass
            self.probe.start()
            t = time.perf_counter()
            try:
                rc, results[call.label] = call.run()
            except Exception:
                rc, detail = "exception", traceback.format_exc()
            else:
                detail = ""
            wall = time.perf_counter() - t
            times.setdefault(call.label, []).append([wall, self.probe.stop()])
            self.check("call." + call.label, rc == 0, detail or "exit code %r" % (rc,))
        digests = {}
        total = 0
        for call in self.work.calls:
            if call.out_dir is not None:
                digests[call.label], size = output_digests(call.out_dir)
                total += size
        self.out_bytes.append(total)
        if self.digests is None:
            self.digests, self.results = digests, results
        else:
            self.check("same_outputs_every_pass", digests == self.digests)

    def loop(self, deadline, times, after_pass=None):
        """Passes until the next one would likely end after the deadline; at least one."""
        while True:
            start = time.monotonic()
            self.run_pass(times)
            if after_pass is not None:
                after_pass()
            end = time.monotonic()
            if end + (end - start) > deadline:
                return


def run_s(times, wall=False):
    """Sum over the calls of each call's median time across the timed passes.

    The first pass of each loop warms up and counts only when it is the
    only one.  Times are probe-scaled (see SpeedProbe) unless ``wall``.
    A call that ran without a probe sample (one long C call) is scaled by
    the median probe time of the other calls.
    """
    probes = [p for samples in times.values() for _, p in samples if p is not None]
    fallback = statistics.median(probes) if probes else PROBE_REF_S
    total = 0.0
    for samples in times.values():
        timed = samples[1:] or samples
        total += statistics.median(
            w if wall else scaled(w, fallback if p is None else p) for w, p in timed)
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    api = import_program()
    os.makedirs(args.run_dir, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](api, args.seed, args.run_dir)
    setup_wall_s = time.monotonic() - args.t0
    setup_s = scaled(setup_wall_s, probe.stop() or PROBE_REF_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    runner = Runner(work, probe)
    begin = time.monotonic()
    times = {}
    traced_times = {}
    layers = []
    runner.run_pass(times)
    try:
        checks, facts = work.checks(runner.results, {c.label: c.out_dir for c in work.calls})
    except Exception:  # a failed call can leave outputs the checks cannot read
        checks, facts = [("checks_ran", False, traceback.format_exc())], {}
    for name, ok, detail in checks:
        runner.check(name, ok, detail)
    for label, (done, unresolved, pending, total) in facts.get("flows", {}).items():
        runner.check("flows_add_up." + label, done + unresolved + pending == total,
                     "%d + %d + %d != %d" % (done, unresolved, pending, total))
    if args.trace:
        runner.loop(begin + args.seconds / 2, times)
        tracer = tracing.Tracer()
        tracing.install(tracer, api)

        def collect():
            layers.append(tracing.layer_metrics(tracer.spans))
            tracer.reset()

        runner.loop(begin + args.seconds, traced_times, collect)
        tracer.unpatch()
        for name in sorted(tracing.EXACT):
            runner.check("same_count_every_pass." + name,
                         len({m[name] for m in layers}) == 1)
    else:
        runner.loop(begin + args.seconds, times)

    twin = kernel_twin_check(api)
    if twin is not None:
        runner.check("kernel_twins_agree", *twin)
    meta = metadata(api)
    runner.check("blas_threads_within_nproc",
                 meta["blas_threads"] is None or meta["blas_threads"] <= meta["nproc"],
                 "%r BLAS threads, %r cores" % (meta["blas_threads"], meta["nproc"]))
    meta["kernel_twin"] = "not run: no compiled kernel" if twin is None else twin[1]

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "meta": meta,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s(times),
        "run_wall_s": run_s(times, wall=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_mb": statistics.median(runner.out_bytes) / 1e6,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "call_seconds": times,
        "digests": runner.digests,
        "facts": facts,
    }
    if args.trace:
        layer = {name: layers[0][name] if name in tracing.EXACT
                 else statistics.median(m[name] for m in layers)
                 for name, _ in tracing.PER_LAYER}
        layer["trace.run_s_untraced"] = run_s(times)
        layer["trace.run_s_traced"] = run_s(traced_times)
        layer["trace.overhead_s"] = layer["trace.run_s_traced"] - layer["trace.run_s_untraced"]
        record["layer"] = layer
        record["traced_call_seconds"] = traced_times
    shutil.rmtree(os.path.join(args.run_dir, "out"), ignore_errors=True)
    with open(os.path.join(args.run_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
